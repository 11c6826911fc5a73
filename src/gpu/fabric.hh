/**
 * @file
 * SystemFabric: everything the GPU side needs from the rest of the
 * machine, and the one seam it reaches the machine through. GpuNode,
 * its RdcController, the GpuVi coherence engine and the PageManager's
 * window commit all take it at construction (or, for the commit, as
 * an argument):
 *  - remoteRead / remoteWrite / rdcFlush: traffic to another GPU's
 *    memory (LLC and RDC misses, write-throughs, dirty victims, the
 *    write-back RDC's boundary drain);
 *  - cpuRead / cpuWrite: Unified Memory traffic to CPU memory;
 *  - bulkTransfer: page copies of migration, replication and UM;
 *  - coherenceLocalAccess: a GPU's own access reached its memory;
 *  - sendCtrl / invalidateAt: GPU-VI's invalidate fan-out (the
 *    control packet and the drop of every cached copy);
 *  - kernelDone: a GPU retired its last CTA of the kernel.
 * Implemented by MultiGpuSystem; tests substitute one recording fake
 * (tests/sim_test_util.hh).
 */

#ifndef CARVE_GPU_FABRIC_HH
#define CARVE_GPU_FABRIC_HH

#include <cstdint>

#include "common/completion.hh"
#include "common/types.hh"

namespace carve {

/**
 * Off-chip service interface of one GPU node.
 *
 * All read calls deliver data to the requester via the callback; all
 * write calls are posted. Coherence notifications happen inside the
 * fabric at the access's home node, so protocol logic lives in one
 * place regardless of which GPU initiated the access. Callbacks are
 * POD Completion delegates, so crossing the fabric never allocates.
 */
class SystemFabric
{
  public:
    using Callback = Completion;

    virtual ~SystemFabric() = default;

    /**
     * Read @p line from GPU @p home's memory on behalf of @p src.
     * Charges request + data link traffic and the home DRAM access;
     * fires IMST read tracking at the home.
     */
    virtual void remoteRead(NodeId src, NodeId home, Addr line,
                            Callback done) = 0;

    /**
     * Posted write-through of @p line to GPU @p home's memory.
     * Fires coherence write handling (possible invalidate broadcast)
     * when the write reaches the home.
     */
    virtual void remoteWrite(NodeId src, NodeId home, Addr line) = 0;

    /** Read @p line from CPU system memory (Unified Memory path). */
    virtual void cpuRead(NodeId src, Addr line, Callback done) = 0;

    /** Posted write of @p line to CPU system memory. */
    virtual void cpuWrite(NodeId src, Addr line) = 0;

    /**
     * Posted page-sized bulk transfer (migration / replication / UM
     * page move). @p src may be cpu_node.
     */
    virtual void bulkTransfer(NodeId src, NodeId dst,
                              std::uint64_t bytes) = 0;

    /**
     * Posted kernel-boundary flush of @p bytes of dirty RDC data from
     * GPU @p src to GPU @p home's memory (write-back RDC drain).
     */
    virtual void rdcFlush(NodeId src, NodeId home,
                          std::uint64_t bytes) = 0;

    /**
     * An access by @p home to its own memory reached the memory
     * controller: run coherence tracking (a local write may need to
     * invalidate remote copies of the line; a local read updates the
     * sharing tracker).
     */
    virtual void coherenceLocalAccess(NodeId home, Addr line,
                                      AccessType type) = 0;

    /** Posted coherence control packet of @p bytes from GPU @p src to
     * GPU @p dst (a GPU-VI write-invalidate). */
    virtual void sendCtrl(NodeId src, NodeId dst, unsigned bytes) = 0;

    /** Drop every cached copy of @p line at GPU @p node (L1s, LLC,
     * RDC): at once when @p node is the calling domain, otherwise
     * when the invalidate arrives there. */
    virtual void invalidateAt(NodeId node, Addr line) = 0;

    /** GPU @p gpu retired its last CTA of the current kernel. */
    virtual void kernelDone(NodeId gpu) = 0;
};

} // namespace carve

#endif // CARVE_GPU_FABRIC_HH
