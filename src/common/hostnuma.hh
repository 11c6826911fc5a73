/**
 * @file
 * What is left of the host NUMA placement shim: perfbench's host
 * record still prints available(). The simulator places its pages
 * and threads wherever the host puts them; src/numa/ models the
 * simulated machine's NUMA behaviour. The next change to perfbench
 * deletes this header.
 */

#ifndef CARVE_COMMON_HOSTNUMA_HH
#define CARVE_COMMON_HOSTNUMA_HH

namespace carve {
namespace hostnuma {

/** Always false: no build binds the simulator to host NUMA nodes. */
constexpr bool available() { return false; }

} // namespace hostnuma
} // namespace carve

#endif // CARVE_COMMON_HOSTNUMA_HH
