/**
 * @file
 * Test helper: the GoogleTest printer for ni::Model.
 *
 * GoogleTest names a value parameter by printing it, and by default
 * prints a Model as its 16 object bytes.  Six of those bytes are the
 * padding after `optimized`, which a copy need not carry: GoogleTest
 * copies each parameter into fresh heap memory, so the padding shows
 * whatever that memory held and a test's name could change from run
 * to run.  This printer shows the same 16 bytes with the padding
 * zeroed, so every name stays "16-byte object <02-01 00-00 ...>".
 */

#ifndef TCPNI_TESTS_NI_MODEL_PRINT_HH
#define TCPNI_TESTS_NI_MODEL_PRINT_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "ni/config.hh"

namespace tcpni
{
namespace ni
{

inline void
PrintTo(const Model &m, std::ostream *os)
{
    unsigned char bytes[sizeof(Model)] = {};
    std::memcpy(bytes + offsetof(Model, placement), &m.placement,
                sizeof m.placement);
    std::memcpy(bytes + offsetof(Model, optimized), &m.optimized,
                sizeof m.optimized);
    std::memcpy(bytes + offsetof(Model, offchipLoadUseDelay),
                &m.offchipLoadUseDelay, sizeof m.offchipLoadUseDelay);
    ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

} // namespace ni
} // namespace tcpni

#endif // TCPNI_TESTS_NI_MODEL_PRINT_HH
