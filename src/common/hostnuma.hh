/**
 * @file
 * Host NUMA placement shim. "hostnuma" (not "numa") because
 * src/numa/ models the *simulated* machine's NUMA behaviour; this
 * namespace is about where the *simulator's own* memory and threads
 * land on the host running it.
 *
 * Built with -DCARVE_NUMA=ON the implementation dlopens
 * libnuma.so.1 at first use — no numa.h, no link-time dependency —
 * and resolves the handful of entry points it needs. If the library
 * is missing, or numa_available() reports no support, or the build
 * has CARVE_NUMA=OFF, every call degrades to a portable no-op
 * answer: available()==false, one node, ordinary heap allocation.
 * Callers therefore never branch on platform, only on policy.
 */

#ifndef CARVE_COMMON_HOSTNUMA_HH
#define CARVE_COMMON_HOSTNUMA_HH

#include <cstddef>

namespace carve {
namespace hostnuma {

/** True iff libnuma loaded and the kernel reports NUMA support. */
bool available();

/** Configured node count; 1 when unavailable. */
int nodeCount();

/** Node the calling thread is executing on; 0 when unavailable. */
int currentNode();

/** Bind the calling thread's CPU + memory preference to @p node.
 * Returns false (no-op) when unavailable or @p node is out of
 * range. */
bool bindThreadToNode(int node);

/** Allocate @p bytes on @p node. Returns nullptr when unavailable —
 * caller falls back to the ordinary heap. Pair with freeOnNode. */
void *allocOnNode(std::size_t bytes, int node);

/** Free memory obtained from allocOnNode (size must match). */
void freeOnNode(void *p, std::size_t bytes);

} // namespace hostnuma
} // namespace carve

#endif // CARVE_COMMON_HOSTNUMA_HH
