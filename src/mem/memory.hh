/**
 * @file
 * A node's local memory.
 *
 * Memory is byte-addressed but only word (32-bit) accesses are
 * supported, matching the RISC load/store model the paper's handlers
 * use.  Addresses must be word aligned.
 *
 * Every store goes through write(), which marks the store's 4 KB page
 * dirty, so clear() zeroes only the pages written since the last
 * clear.  A run that touches a few pages of a 1 MB memory can then
 * reuse it for the next run at the cost of those pages, not of a
 * fresh 1 MB zero-fill.
 */

#ifndef TCPNI_MEM_MEMORY_HH
#define TCPNI_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tcpni
{

/** Word-access local memory of one node. */
class Memory
{
  public:
    /** Create a memory of @p size_bytes bytes (rounded up to a word). */
    explicit Memory(Addr size_bytes);

    /** Read the word at byte address @p addr (must be aligned). */
    Word read(Addr addr) const;

    /** Write the word at byte address @p addr (must be aligned). */
    void write(Addr addr, Word value);

    /** Memory size in bytes. */
    Addr size() const { return static_cast<Addr>(words_.size() * 4); }

    /** Zero all of memory (every page written since the last
     *  clear). */
    void clear();

  private:
    /** log2 of the dirty-tracking page size in bytes (4 KB). */
    static constexpr unsigned pageShift = 12;
    static constexpr size_t pageWords = (size_t(1) << pageShift) / 4;

    void check(Addr addr) const;

    std::vector<Word> words_;
    /** One byte per page: nonzero if the page may hold a nonzero
     *  word. */
    std::vector<uint8_t> dirty_;
};

} // namespace tcpni

#endif // TCPNI_MEM_MEMORY_HH
