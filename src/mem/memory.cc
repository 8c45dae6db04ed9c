#include "mem/memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tcpni
{

Memory::Memory(Addr size_bytes)
    : words_((size_bytes + 3) / 4, 0),
      dirty_((words_.size() + pageWords - 1) / pageWords, 0)
{
}

void
Memory::check(Addr addr) const
{
    if (addr & 3)
        panic("unaligned word access at 0x%08x", addr);
    if (addr / 4 >= words_.size())
        panic("memory access out of bounds at 0x%08x (size 0x%08x)",
              addr, size());
}

Word
Memory::read(Addr addr) const
{
    check(addr);
    return words_[addr / 4];
}

void
Memory::write(Addr addr, Word value)
{
    check(addr);
    words_[addr / 4] = value;
    dirty_[addr >> pageShift] = 1;
}

void
Memory::clear()
{
    for (size_t p = 0; p < dirty_.size(); ++p) {
        if (!dirty_[p])
            continue;
        const size_t first = p * pageWords;
        const size_t last = std::min(first + pageWords, words_.size());
        std::fill(words_.begin() + first, words_.begin() + last, 0);
        dirty_[p] = 0;
    }
}

} // namespace tcpni
