/**
 * @file
 * Size and bandwidth unit helpers.
 *
 * Bandwidths in carve-sim are expressed in bytes per cycle. With the
 * 1 GHz GPU clock used by the paper (Table III), 1 GB/s == ~1.074 B/cyc;
 * we adopt the conventional simplification 1 GB/s == 1 B/cyc (i.e.,
 * "GB" == 2^30 but cycles at 10^9/s treated as binary giga), which keeps
 * every bandwidth *ratio* exact — and only ratios matter for the paper's
 * relative results.
 */

#ifndef CARVE_COMMON_UNITS_HH
#define CARVE_COMMON_UNITS_HH

#include <cstdint>

#include "common/types.hh"

namespace carve {

inline constexpr std::uint64_t KiB = 1024ull;
inline constexpr std::uint64_t MiB = 1024ull * KiB;
inline constexpr std::uint64_t GiB = 1024ull * MiB;

/** Integer ceiling division. */
template <typename T>
inline constexpr T
divCeil(T a, T b)
{
    return (a + b - 1) / b;
}

/** True when @p v is a power of two (v > 0). */
inline constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power-of-two value. */
inline constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** Align @p a down to a multiple of power-of-two @p align. */
inline constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    return a & ~(align - 1);
}

/** Align @p a up to a multiple of power-of-two @p align. */
inline constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    return (a + align - 1) & ~(align - 1);
}

} // namespace carve

#endif // CARVE_COMMON_UNITS_HH
