/**
 * @file
 * 64-bit FNV-1a, behind phloemd's cache keys, the output-image hash and
 * the reports' config fingerprint. Committed baselines and cache keys
 * carry its values, so there is one copy and its constants never change.
 */

#ifndef PHLOEM_BASE_HASH_H
#define PHLOEM_BASE_HASH_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace phloem {

constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;

/** Fold n bytes into the running FNV-1a hash h (64-bit variant). */
inline uint64_t
fnv1a(const void* data, size_t n, uint64_t h = kFnv1aOffset)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a of a byte string. */
inline uint64_t
fnv1a(std::string_view bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

} // namespace phloem

#endif // PHLOEM_BASE_HASH_H
