/**
 * @file
 * Distributed CTA scheduler: NUMA-GPU assigns each GPU a large
 * *contiguous* batch of CTAs (adjacent CTAs exhibit strong spatial
 * locality, Section II-B), which combined with first-touch placement
 * keeps most of a GPU's working set in local memory.
 */

#ifndef CARVE_GPU_CTA_SCHEDULER_HH
#define CARVE_GPU_CTA_SCHEDULER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Hands out a kernel's CTAs in contiguous per-GPU batches. */
class CtaScheduler
{
  public:
    /** @param num_gpus GPU node count */
    explicit CtaScheduler(unsigned num_gpus);

    /** Start distributing @p num_ctas CTAs of a new kernel. */
    void launchKernel(std::uint64_t num_ctas);

    /**
     * Claim the next CTA for @p gpu.
     * @return nullopt when the GPU's batch is exhausted
     */
    std::optional<CtaId> nextCta(NodeId gpu);

    /** Report one CTA of @p gpu fully retired. Counted in a per-GPU
     * slot so concurrent event domains never contend; readers
     * (kernelDone(), retiredCtas()) sum the slots and must only run
     * at a window barrier or in a single-domain context. */
    void retireCta(NodeId gpu);

    /** True once every CTA of the current kernel has retired. */
    bool
    kernelDone() const
    {
        return retiredCtas() == total_;
    }

    /** CTAs remaining unclaimed for @p gpu. */
    std::uint64_t remaining(NodeId gpu) const;

    /** First CTA id of @p gpu's contiguous batch (tests). */
    CtaId batchStart(NodeId gpu) const;
    /** One past the last CTA id of @p gpu's batch (tests). */
    CtaId batchEnd(NodeId gpu) const;

    std::uint64_t retiredCtas() const;

  private:
    /** Per-GPU retire counter, padded so adjacent GPUs' increments
     * never share a cache line across worker threads. */
    struct alignas(64) RetireSlot
    {
        std::uint64_t count = 0;
    };

    unsigned num_gpus_;
    std::uint64_t total_ = 0;
    std::vector<RetireSlot> retired_;  ///< per-GPU retired CTAs
    std::vector<CtaId> next_;   ///< per-GPU next unclaimed CTA
    std::vector<CtaId> end_;    ///< per-GPU batch end (exclusive)
    std::vector<CtaId> start_;  ///< per-GPU batch start
};

} // namespace carve

#endif // CARVE_GPU_CTA_SCHEDULER_HH
