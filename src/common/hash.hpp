/**
 * @file
 * FNV-1a hashing over 64-bit lanes, shared by the latency-model
 * fingerprint and the plan-cache key hashes so the two can never
 * diverge. Doubles enter by exact bit pattern: keys must compare the
 * values the consumers actually saw, not a rounded rendition.
 */

#ifndef THEMIS_COMMON_HASH_HPP
#define THEMIS_COMMON_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace themis {

/** The 64-bit FNV prime and standard offset basis. */
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/** Incremental FNV-1a accumulator; see file comment. */
class Fnv1a
{
  public:
    void
    mix(std::uint64_t v)
    {
        hash_ ^= v;
        hash_ *= kFnvPrime;
    }

    void
    mix(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

/**
 * Byte-wise FNV-1a over @p n bytes, continuing @p h (default: the
 * standard offset basis). Result-record fingerprints and --jobs mix
 * keys live in on-disk journals, so they keep this form; Fnv1a keeps
 * its own basis, which golden pins depend on.
 */
inline std::uint64_t
fnv1aBytes(const void* data, std::size_t n,
           std::uint64_t h = kFnvOffsetBasis)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * kFnvPrime;
    return h;
}

/**
 * Bit-pattern equality for doubles used in hash keys: keys that
 * compare equal must hash equal (so -0.0 != 0.0 here, and a NaN
 * equals itself), mirroring what Fnv1a::mix(double) feeds the hash.
 */
inline bool
bitEquals(double a, double b)
{
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
}

} // namespace themis

#endif // THEMIS_COMMON_HASH_HPP
