/**
 * @file
 * JSON formatting helpers shared by the benchmark writers and the
 * metrics collector.  Counters themselves live in the metrics
 * registry (metrics/metrics.hh); this header only renders values.
 */

#ifndef TCPNI_COMMON_STATS_HH
#define TCPNI_COMMON_STATS_HH

#include <string>

namespace tcpni
{
namespace stats
{

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format a double as a JSON number ("%.10g"; non-finite values,
 *  which JSON cannot represent, collapse to "0"). */
std::string jsonNum(double v);

} // namespace stats
} // namespace tcpni

#endif // TCPNI_COMMON_STATS_HH
