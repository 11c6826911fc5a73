/**
 * @file
 * NUMA runtime facade: first-touch placement, sharing profiling,
 * page migration, read-only replication, ideal replicate-all, and
 * Unified-Memory spill handling, restructured around the windowed
 * domain engine:
 *
 *  - recordAccess() / route() run mid-window inside the accessing
 *    GPU's event domain and touch only per-domain state (overlay maps,
 *    profiler shards, route logs) plus the *committed* page table,
 *    which is immutable between barriers — so domains never race;
 *  - commitWindow() runs single-threaded at every window barrier: it
 *    applies first touches in deterministic (tick, domain, page)
 *    order, then replays the window's route log domain-major through
 *    the policy engines (migration, replication, Unified Memory),
 *    whose state transitions take effect for the next window.
 *
 * Mid-window routing is therefore a pure function of (committed
 * table, own domain's overlay) — identical no matter how many threads
 * execute the domains, which is what makes parallel runs
 * byte-identical to serial ones.
 */

#ifndef CARVE_NUMA_PAGE_MANAGER_HH
#define CARVE_NUMA_PAGE_MANAGER_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "numa/migration.hh"
#include "numa/page_table.hh"
#include "numa/placement.hh"
#include "numa/replication.hh"
#include "numa/sharing_profiler.hh"
#include "numa/unified_memory.hh"

namespace carve {

class SystemFabric;

/**
 * The software half of the paper's HW/SW combination.
 */
class PageManager
{
  public:
    /**
     * @param cfg system configuration (NUMA policies, geometry)
     * @param track_pages profile sharing at page granularity
     * @param track_lines profile sharing at line granularity
     */
    explicit PageManager(const SystemConfig &cfg,
                         bool track_pages = true,
                         bool track_lines = true);

    /**
     * First-touch candidacy + sharing profiling for one access at
     * @p tick. Must precede route() for the same address from the
     * same domain. Touches only the calling domain's shard.
     */
    void recordAccess(Addr addr, NodeId node, AccessType type,
                      Cycle tick);

    /**
     * Node whose memory services a post-LLC access at @p now: the
     * committed home (or a replica / the migration-stall previous
     * home), or the calling domain's tentative first-touch home for
     * pages not yet committed. Pure w.r.t. shared state; the access
     * is appended to the calling domain's route log for policy replay
     * at the next commitWindow().
     */
    NodeId route(Addr addr, NodeId node, AccessType type, Cycle now);

    /**
     * Window barrier (single-threaded): commit first touches in
     * (first tick, domain, page) order, merge touch masks, then
     * replay the route logs through the policy engines. Policy page
     * moves set PageEntry::ready_at = @p now + migration_stall and
     * charge each page copy as SystemFabric::bulkTransfer() of one
     * page on @p fabric (when non-null).
     */
    void commitWindow(Cycle now, SystemFabric *fabric = nullptr);

    /** Merge the per-domain profiler shards into the main profiler.
     * Call once the run quiesces, before reading sharing stats. */
    void finalizeProfile();

    /** True when @p node holds the committed page containing @p addr
     * (home or replica) — i.e. the access would be serviced locally. */
    bool isLocal(Addr addr, NodeId node) const;

    /** Committed home node of the page containing @p addr
     * (invalid_node when unmapped or uncommitted). */
    NodeId homeOf(Addr addr) const;

    PageTable &table() { return table_; }
    const PageTable &table() const { return table_; }
    SharingProfiler &profiler() { return profiler_; }
    const SharingProfiler &profiler() const { return profiler_; }
    const MigrationEngine &migration() const { return migration_; }
    const ReplicationManager &replication() const
    {
        return replication_;
    }

    /** First-touch placements performed. */
    std::uint64_t firstTouches() const { return first_touches_.value(); }

    /** Register NUMA runtime counters (first touches, migration,
     * replication, UM, capacity pressure) plus an owned "sharing"
     * child group for the profiler into @p g. */
    void registerStats(stats::StatGroup &g);

  private:
    /** Per-domain view of a page first seen this window. */
    struct PendingPage
    {
        Cycle first_tick = 0;       ///< this domain's earliest access
        NodeId first_node = invalid_node;  ///< who touched it first
        NodeId tentative_home = invalid_node;
        std::uint16_t touch_mask = 0;
        bool written = false;
    };

    /** One post-LLC access awaiting policy replay. */
    struct RouteOp
    {
        Addr vpage;
        NodeId node;
        bool write;
    };

    /** Per-domain mid-window state; padded apart because adjacent
     * shards are written by different worker threads. */
    struct alignas(64) DomainShard
    {
        std::unordered_map<Addr, PendingPage> pending;
        std::vector<RouteOp> route_log;
        std::unique_ptr<SharingProfiler> profiler;
    };

    /** The calling context's shard (GPU domains 0..G-1; barrier and
     * engine-less callers share the last slot). */
    DomainShard &shard();
    const PendingPage *pendingOf(const DomainShard &s, Addr vpage) const;

    const SystemConfig &cfg_;
    PageTable table_;
    Placement placement_;
    SharingProfiler profiler_;
    MigrationEngine migration_;
    ReplicationManager replication_;
    UnifiedMemory um_;
    std::vector<DomainShard> shards_;
    std::unique_ptr<stats::StatGroup> sharing_group_;

    stats::Scalar first_touches_;
};

} // namespace carve

#endif // CARVE_NUMA_PAGE_MANAGER_HH
