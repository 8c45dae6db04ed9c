/**
 * @file
 * Minimal JSON section splicing for shared result files.
 *
 * BENCH_host.json is written by more than one experiment: host_perf
 * owns the host, table1Sweep, setup, sweepRunner, selfProfile,
 * eventKernel and hotPath sections, scale owns "scale" and serve
 * owns "serve".
 * Rather than have each producer clobber the whole file, these helpers
 * parse the file's top-level object into ordered (key, raw value)
 * pairs and write it back with one section replaced or appended.  The
 * value text is treated as an opaque span -- the scanner only needs to
 * balance braces/brackets and honour string escapes -- so producers
 * keep full control over their own section's formatting.
 */

#ifndef TCPNI_COMMON_JSONIO_HH
#define TCPNI_COMMON_JSONIO_HH

#include <string>
#include <utility>
#include <vector>

namespace tcpni
{
namespace jsonio
{

/** The top-level object as ordered (key, raw JSON value text) pairs. */
using Sections = std::vector<std::pair<std::string, std::string>>;

/**
 * Parse the top-level JSON object of @p text into @p out.
 * @return false (and leaves @p out empty) on malformed input.
 */
bool parseTopLevel(const std::string &text, Sections &out);

/**
 * Load @p path and parse its top-level object.  A missing, empty, or
 * malformed file yields empty sections and returns false.
 */
bool readSections(const std::string &path, Sections &out);

/** Serialize sections as a top-level object, one key per line. */
std::string renderSections(const Sections &sections);

/** Raw value of @p key, or nullptr. */
const std::string *find(const Sections &sections,
                        const std::string &key);

/** Insert-or-replace @p key (preserving order for existing keys). */
void upsert(Sections &sections, const std::string &key,
            const std::string &value_json);

/**
 * Read-modify-write @p path: replace or append the top-level @p key
 * with @p value_json, preserving every other section.  Creates the
 * file when absent.  @return false if the file could not be written.
 */
bool upsertSection(const std::string &path, const std::string &key,
                   const std::string &value_json);

} // namespace jsonio
} // namespace tcpni

#endif // TCPNI_COMMON_JSONIO_HH
