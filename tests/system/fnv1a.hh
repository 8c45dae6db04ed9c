/**
 * @file
 * Test helper: the 64-bit FNV-1a hash, for pinning long fingerprints
 * (tests/system/metrics_fingerprint.hh) as one constant.
 */

#ifndef TCPNI_TESTS_SYSTEM_FNV1A_HH
#define TCPNI_TESTS_SYSTEM_FNV1A_HH

#include <cstdint>
#include <string>

namespace tcpni
{

inline uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace tcpni

#endif // TCPNI_TESTS_SYSTEM_FNV1A_HH
