#include <gtest/gtest.h>

#include "common/logging.hh"
#include "mem/memory.hh"

using namespace tcpni;

TEST(Memory, ReadWriteRoundTrip)
{
    Memory m(1024);
    m.write(0, 0xdeadbeef);
    m.write(4, 42);
    m.write(1020, 7);
    EXPECT_EQ(m.read(0), 0xdeadbeefu);
    EXPECT_EQ(m.read(4), 42u);
    EXPECT_EQ(m.read(1020), 7u);
}

TEST(Memory, InitiallyZero)
{
    Memory m(64);
    for (Addr a = 0; a < 64; a += 4)
        EXPECT_EQ(m.read(a), 0u);
}

TEST(Memory, UnalignedPanics)
{
    Memory m(64);
    EXPECT_THROW(m.read(2), PanicError);
    EXPECT_THROW(m.write(1, 0), PanicError);
}

TEST(Memory, OutOfBoundsPanics)
{
    Memory m(64);
    EXPECT_THROW(m.read(64), PanicError);
    EXPECT_THROW(m.write(1 << 20, 0), PanicError);
}

TEST(Memory, SizeRoundsUpToWord)
{
    Memory m(5);
    EXPECT_EQ(m.size(), 8u);
    EXPECT_NO_THROW(m.write(4, 1));
}

TEST(Memory, Clear)
{
    Memory m(16);
    m.write(8, 99);
    m.clear();
    EXPECT_EQ(m.read(8), 0u);
}

TEST(Memory, ClearZeroesEveryWrittenWord)
{
    // clear() zeroes only the pages written since the last clear, so
    // write where a page-tracking slip would show: the first and last
    // word, both sides of a page boundary, and one word in every page
    // (memory size not a whole number of pages).
    constexpr Addr page = 4096;
    Memory m(5 * page + 8);
    const Addr last = m.size() - 4;
    Word v = 1;
    for (Addr a : {Addr(0), last, page - 4, page, 3 * page - 4,
                   3 * page})
        m.write(a, v++);
    for (Addr a = 12; a < m.size(); a += page)
        m.write(a, v++);

    m.clear();
    for (Addr a = 0; a < m.size(); a += 4)
        ASSERT_EQ(m.read(a), 0u) << "word at 0x" << std::hex << a;

    // A second clear finds nothing to do and leaves memory zero.
    m.clear();
    for (Addr a = 0; a < m.size(); a += 4)
        ASSERT_EQ(m.read(a), 0u) << "word at 0x" << std::hex << a;

    // Memory stays writable and clearable after a clear.
    m.write(2 * page + 4, 7);
    EXPECT_EQ(m.read(2 * page + 4), 7u);
    m.clear();
    EXPECT_EQ(m.read(2 * page + 4), 0u);
}
