/**
 * @file
 * carve-audit: opt-in conservation and invariant auditing.
 *
 * Two mechanisms, both off unless SimJob.options.audit (or the
 * MultiGpuSystem audit flag) is set:
 *
 *  1. In-flight token accounting (InflightTracker): every hand-off
 *     boundary in the machine (SM->L2, L2 miss->fill, RDC fetch, DRAM
 *     access, link delivery, bulk transfer) increments an issue
 *     counter when work is handed over and a retire counter when the
 *     continuation fires. After the event queue drains, issued !=
 *     retired proves a stranded MSHR entry, a lost callback, or a
 *     dropped delivery — the failure class that otherwise shows up as
 *     a silently wrong traffic fraction.
 *
 *  2. Cross-stat invariant checks over the flattened StatGroup tree
 *     (stats::flattenStats(), taken once per audit pass): per-cache
 *     probe conservation (hits + misses [+ stale_hits] == probes) and
 *     system-wide byte/message conservation (link bytes equal the
 *     classified traffic they carry; every remote access is serviced
 *     at its home). Checks are pure functions of the tree so tests
 *     can feed doctored trees that reproduce a reverted bugfix.
 *
 * Violations are reported as human-readable strings carrying the
 * offending dotted stat names and values; the caller escalates
 * through the ordinary panic()/fatal() path.
 */

#ifndef CARVE_COMMON_AUDIT_HH
#define CARVE_COMMON_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/domain_engine.hh"
#include "common/stats.hh"

namespace carve {
namespace audit {

/** Hand-off boundaries tracked by the in-flight token counters. */
enum class Boundary : unsigned {
    SmL2 = 0,     ///< SM access handed to the L2 path
    L2Fill,       ///< L2 MSHR NewEntry -> fill completion
    RdcFetch,     ///< RDC miss fetch -> data arrival
    DramAccess,   ///< memory-controller access -> completion
    LinkDelivery, ///< link packet accepted -> delivered
    BulkTransfer, ///< charged bulk page copy -> delivered
};

/** Number of Boundary values. */
constexpr std::size_t num_boundaries = 6;

/** Stat-name-safe label of @p b ("sm_l2", "link_delivery", ...). */
const char *boundaryName(Boundary b);

/**
 * Issue/retire token counters per boundary. Counters are Scalars so
 * an audit-enabled run exposes them in the stat tree ("audit.
 * inflight.sm_l2_issued" etc.) for post-mortem inspection.
 */
class InflightTracker
{
  public:
    void
    issue(Boundary b)
    {
        issued_[static_cast<unsigned>(b)].inc();
    }

    void
    retire(Boundary b)
    {
        retired_[static_cast<unsigned>(b)].inc();
    }

    std::uint64_t
    issued(Boundary b) const
    {
        return issued_[static_cast<unsigned>(b)].scalar().value();
    }

    std::uint64_t
    retired(Boundary b) const
    {
        return retired_[static_cast<unsigned>(b)].scalar().value();
    }

    /** Fold the per-domain token counts into the registered scalars;
     * call only at a window barrier. */
    void
    foldShards()
    {
        for (unsigned b = 0; b < num_boundaries; ++b) {
            issued_[b].fold();
            retired_[b].fold();
        }
    }

    /** Tokens currently in flight at @p b. */
    std::uint64_t
    inflight(Boundary b) const
    {
        return issued(b) - retired(b);
    }

    /** Register every counter into @p g ("<name>_issued"/"_retired"). */
    void registerStats(stats::StatGroup &g);

    /** Append one failure string per imbalanced boundary to @p out.
     * Only meaningful once the event queue has drained. */
    void check(std::vector<std::string> &out) const;

  private:
    /** Tokens cross boundaries inside every event domain, so the
     * counters are sharded per executing domain and folded at
     * barriers; issued()/retired() read the folded scalars. */
    ShardedScalar issued_[num_boundaries];
    ShardedScalar retired_[num_boundaries];
};

/**
 * Probe conservation: for every scalar named "<cache>.probes" in the
 * flattened tree @p flat, hits + misses (+ stale_hits when
 * registered) must equal it. Appends one failure string per
 * violation to @p out.
 */
void checkCacheProbes(const std::vector<stats::FlatStat> &flat,
                      std::vector<std::string> &out);

/** Machine parameters the conservation equations need. */
struct ConservationParams
{
    std::uint64_t line_size = 0;
    unsigned ctrl_packet_size = 0;
    /** True for the end-of-sim pass (event queue drained): posted
     * traffic has landed, so home-side service counts and in-flight
     * balances are also checked. At kernel boundaries only the
     * invariants whose two sides advance in the same event hold. */
    bool final_pass = false;
};

/**
 * System-wide conservation over the flattened stat tree @p flat:
 *  - per GPU: traffic.remote_reads == rdc.read_misses and
 *    traffic.rdc_hit_reads == rdc.read_hits (RDC classification);
 *  - per GPU: rdc.alloy.dirty_evictions == rdc.writeback_victims
 *    (no dirty victim vanishes without a write-back);
 *  - sum(gpu*.rdc.flush_bytes) == fabric.flush_bytes (kernel-boundary
 *    flushes really cross the fabric);
 *  - fabric.remote_write_msgs == sum(gpu*.traffic.remote_writes)
 *    + sum(gpu*.rdc.writeback_victims);
 *  - GPU<->GPU link bytes == read msgs x (ctrl + line) + write msgs x
 *    line + flush bytes + coherence ctrl bytes + charged bulk bytes;
 *    CPU links likewise;
 *  - final pass: every remote read/write message was serviced at its
 *    home (fabric msgs == sum of gpu*.remote_serviced_*).
 * Appends one failure string per violation to @p out.
 */
void checkConservation(const std::vector<stats::FlatStat> &flat,
                       const ConservationParams &p,
                       std::vector<std::string> &out);

} // namespace audit
} // namespace carve

#endif // CARVE_COMMON_AUDIT_HH
