/**
 * @file
 * Two-level GPU TLB hierarchy: a small per-SM L1 TLB backed by a
 * GPU-shared L2 TLB, with a fixed-latency page-walk penalty on a full
 * miss. 2 MB pages (Table III) keep reach high; the paper's
 * false-sharing analysis hinges on this page size.
 */

#ifndef CARVE_TLB_TLB_HH
#define CARVE_TLB_TLB_HH

#include <cstdint>
#include <vector>

#include "cache/tag_array.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace carve {

/** Result of a TLB translation attempt. */
struct TlbResult
{
    Cycle latency;     ///< cycles spent translating
    bool l1_hit;
    bool l2_hit;       ///< meaningful only when !l1_hit
};

/**
 * TLB hierarchy for one GPU: cfg.l1_entries fully tracked per SM,
 * one shared L2. Entries are virtual page numbers; carve-sim keeps
 * translation results in the page table, so the TLB only models
 * latency and reach.
 */
class TlbHierarchy
{
  public:
    /**
     * @param cfg TLB geometry and latencies
     * @param num_sms SMs on this GPU (one L1 TLB each)
     * @param page_size bytes per page
     */
    TlbHierarchy(const TlbConfig &cfg, unsigned num_sms,
                 std::uint64_t page_size);

    /**
     * Translate @p vaddr on behalf of @p sm. Fills TLB entries along
     * the way and returns the latency to add to the access.
     */
    TlbResult translate(SmId sm, Addr vaddr);

    /**
     * Drop the translation for @p vpage everywhere (page migration or
     * replication collapse shootdown).
     * @return number of TLB entries dropped
     */
    std::uint64_t shootdown(Addr vaddr);

    std::uint64_t l1Hits() const { return l1_hits_.value(); }
    std::uint64_t l2Hits() const { return l2_hits_.value(); }
    std::uint64_t walks() const { return walks_.value(); }

    /** Register this hierarchy's counters into @p g. */
    void
    registerStats(stats::StatGroup &g)
    {
        g.addScalar("l1_hits", &l1_hits_);
        g.addScalar("l2_hits", &l2_hits_);
        g.addScalar("walks", &walks_);
    }

  private:
    const TlbConfig &cfg_;
    std::uint64_t page_size_;
    std::vector<TagArray> l1_;   ///< one per SM, fully associative
    TagArray l2_;                ///< shared, fully associative

    stats::Scalar l1_hits_;
    stats::Scalar l2_hits_;
    stats::Scalar walks_;  ///< full misses (page walks)
};

} // namespace carve

#endif // CARVE_TLB_TLB_HH
