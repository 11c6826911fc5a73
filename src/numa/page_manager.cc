#include "numa/page_manager.hh"

#include <algorithm>

#include "common/domain_engine.hh"
#include "common/logging.hh"
#include "gpu/fabric.hh"

namespace carve {

PageManager::PageManager(const SystemConfig &cfg, bool track_pages,
                         bool track_lines)
    : cfg_(cfg), table_(cfg),
      placement_(cfg.numa, cfg.num_gpus, cfg.seed),
      profiler_(cfg.page_size, cfg.line_size, track_pages, track_lines),
      migration_(cfg.numa, table_),
      replication_(cfg.numa, table_),
      um_(cfg.numa, table_),
      shards_(cfg.num_gpus + 2)
{
    for (DomainShard &s : shards_) {
        s.profiler = std::make_unique<SharingProfiler>(
            cfg.page_size, cfg.line_size, track_pages, track_lines);
    }
}

PageManager::DomainShard &
PageManager::shard()
{
    const auto last = static_cast<unsigned>(shards_.size() - 1);
    return shards_[std::min(engine_ctx::currentShard(), last)];
}

void
PageManager::recordAccess(Addr addr, NodeId node, AccessType type,
                          Cycle tick)
{
    DomainShard &s = shard();
    const Addr vpage = table_.pageOf(addr);
    const auto [p, inserted] = s.pending.insert(PendingPage{vpage});
    if (inserted) {
        s.touched.push_back(vpage);
        if (table_.find(addr) == nullptr) {
            // Uncommitted page: this domain's first-touch candidate.
            // Events within a domain execute in time order, so the
            // first record carries the domain's earliest tick.
            p->first_tick = tick;
            p->first_node = node;
            p->tentative_home = placement_.tentativeHome(vpage, node);
        }
    }
    p->touch_mask |= static_cast<std::uint16_t>(1u << node);
    if (isWrite(type))
        p->written = true;
    s.profiler->record(addr, node, type);
}

NodeId
PageManager::route(Addr addr, NodeId node, AccessType type, Cycle now)
{
    DomainShard &s = shard();
    const Addr vpage = table_.pageOf(addr);
    s.route_log.push_back(RouteOp{vpage, node, isWrite(type)});

    const PageEntry *e = table_.find(addr);
    NodeId home;
    std::uint16_t replicas = 0;
    if (e != nullptr) {
        // Committed page; honor an in-flight migration's stall window
        // by servicing at the previous home until the move lands.
        home = e->ready_at > now ? e->prev_home : e->home;
        replicas = e->replica_mask;
    } else {
        // First seen this window: route to the tentative first-touch
        // home until the barrier commits the real placement.
        const PendingPage *p = s.pending.find(vpage);
        carve_assert(p != nullptr && p->first_node != invalid_node);
        home = p->tentative_home;
    }
    carve_assert(home != invalid_node);

    if (home == cpu_node)
        return cpu_node;
    if (cfg_.numa.replication == ReplicationPolicy::All)
        return node;  // ideal replicate-all: always local
    if (home == node ||
        (replicas & static_cast<std::uint16_t>(1u << node))) {
        return node;
    }
    return home;
}

void
PageManager::commitWindow(Cycle now, SystemFabric *fabric)
{
    // (1) Commit first touches in deterministic global order. Two
    // domains can race to first-touch the same page inside one
    // window; (tick, domain, page) order picks the winner the serial
    // engine would pick.
    struct Candidate
    {
        Cycle tick;
        unsigned slot;
        Addr vpage;
        NodeId node;
    };
    std::vector<Candidate> candidates;
    for (unsigned slot = 0; slot < shards_.size(); ++slot) {
        const DomainShard &s = shards_[slot];
        for (const Addr vpage : s.touched) {
            const PendingPage &p = *s.pending.find(vpage);
            if (p.first_node != invalid_node)
                candidates.push_back({p.first_tick, slot, vpage,
                                      p.first_node});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  if (a.slot != b.slot)
                      return a.slot < b.slot;
                  return a.vpage < b.vpage;
              });
    for (const Candidate &c : candidates) {
        PageEntry &page = table_.entry(c.vpage);
        if (page.home != invalid_node)
            continue;  // lost the race to an earlier toucher
        page.home = placement_.firstTouch(c.vpage, c.node);
        if (page.home != cpu_node)
            table_.addHomedPage(page.home);
        ++first_touches_;
    }

    // (2) Merge the window's touch masks (commutative ORs) and empty
    // each overlay, in O(pages it touched).
    for (DomainShard &s : shards_) {
        for (const Addr vpage : s.touched) {
            PendingPage *p = s.pending.find(vpage);
            PageEntry &page = table_.entry(vpage);
            page.touch_mask |= p->touch_mask;
            if (p->written)
                page.written = true;
            s.pending.erase(p);
        }
        s.touched.clear();
    }

    // (3) Replay the route logs domain-major through the policy
    // engines. Each domain's log is in that domain's event order, so
    // the replay sequence is identical for serial and parallel runs.
    const std::uint64_t page_bytes = table_.pageSize();
    for (DomainShard &s : shards_) {
        for (const RouteOp &op : s.route_log) {
            PageEntry &page = table_.entry(op.vpage);
            carve_assert(page.home != invalid_node);
            if (op.node < max_nodes)
                ++page.access_counts[op.node];

            // Writes first: a store to a replicated read-only page
            // collapses its replicas before anything else happens.
            if (op.write &&
                cfg_.numa.replication == ReplicationPolicy::ReadOnly &&
                replication_.onWrite(page, op.node)) {
                page.ready_at = now + cfg_.numa.migration_stall;
                page.prev_home = page.home;
            }

            // CPU-resident (spilled) page: Unified Memory services it
            // over the CPU link until it proves hot enough to pull in.
            if (page.home == cpu_node) {
                if (um_.onAccess(page, op.node) && fabric)
                    fabric->bulkTransfer(cpu_node, op.node, page_bytes);
                continue;
            }

            // Ideal replicate-all: mirror everywhere, zero cost.
            if (cfg_.numa.replication == ReplicationPolicy::All) {
                if (!page.localAt(op.node))
                    replication_.maybeReplicate(page, op.node);
                continue;
            }

            if (page.localAt(op.node))
                continue;

            const NodeId old_home = page.home;
            if (!op.write &&
                replication_.maybeReplicate(page, op.node)) {
                if (fabric)
                    fabric->bulkTransfer(old_home, op.node, page_bytes);
                continue;
            }

            if (migration_.maybeMigrate(page, op.node)) {
                page.ready_at = now + cfg_.numa.migration_stall;
                page.prev_home = old_home;
                if (fabric)
                    fabric->bulkTransfer(old_home, op.node, page_bytes);
            }
        }
        s.route_log.clear();
    }
}

void
PageManager::finalizeProfile()
{
    for (DomainShard &s : shards_)
        profiler_.absorb(*s.profiler);
}

bool
PageManager::isLocal(Addr addr, NodeId node) const
{
    const PageEntry *page = table_.find(addr);
    return page != nullptr && page->localAt(node);
}

NodeId
PageManager::homeOf(Addr addr) const
{
    const PageEntry *page = table_.find(addr);
    return page == nullptr ? invalid_node : page->home;
}

void
PageManager::registerStats(stats::StatGroup &g)
{
    g.addScalar("first_touches", &first_touches_);
    migration_.registerStats(g);
    replication_.registerStats(g);
    um_.registerStats(g);
    g.addDerived("capacity_pressure",
                 [this] { return table_.capacityPressure(); });
    sharing_group_ = std::make_unique<stats::StatGroup>("sharing", &g);
    profiler_.registerStats(*sharing_group_);
}

} // namespace carve
