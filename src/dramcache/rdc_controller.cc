#include "dramcache/rdc_controller.hh"

#include <algorithm>
#include <string>

#include "common/logging.hh"

namespace carve {

RdcController::RdcController(EventQueue &eq, const SystemConfig &cfg,
                             NodeId self, MemoryController &local_mem,
                             SystemFabric &fabric, Arena *arena)
    : eq_(eq), cfg_(cfg), self_(self), local_mem_(local_mem),
      fabric_(fabric),
      alloy_(cfg.rdc.size, cfg.line_size),
      epoch_(cfg.rdc.epoch_bits),
      mshrs_(cfg.rdc.mshr_entries, arena, &eq),
      pending_misses_(arena),
      carve_base_(cfg.dram.capacity - cfg.rdc.size)
{
    carve_assert(cfg.rdc.enabled);
}

Addr
RdcController::storageAddr(Addr line_addr) const
{
    return carve_base_ + alloy_.setStorageOffset(line_addr);
}

void
RdcController::read(NodeId home, Addr line_addr, Callback done)
{
    carve_assert(home != self_);

    const RdcLookup outcome = alloy_.lookup(line_addr, epoch_.current());
    const bool hit = outcome == RdcLookup::Hit;
    const bool use_predictor = cfg_.rdc.hit_predictor;
    const bool predicted_hit =
        use_predictor ? predictor_.predictHit(line_addr) : true;
    if (use_predictor)
        predictor_.update(line_addr, hit);

    if (hit) {
        ++read_hits_;
        // Tags-with-data: the single probe access returns the line.
        // Park the payload; the bound handle keeps the event inline.
        const std::uint32_t pending = pending_misses_.alloc(
            PendingMiss{line_addr, done, home});
        eq_.scheduleAfter(cfg_.rdc.controller_latency,
                          bindEvent<&RdcController::probeHitParked>(
                              this, pending));
        return;
    }

    ++read_misses_;
    if (use_predictor && !predicted_hit) {
        // Predicted miss: overlap the verification probe with the
        // remote fetch. The probe still consumes local bandwidth.
        ++bypasses_;
        local_mem_.access(storageAddr(line_addr), AccessType::Read,
                          Callback());
        handleMiss(home, line_addr, /* serialized */ false, done);
    } else {
        // Serialized probe-then-fetch: the RandAccess pathology. The
        // in-flight state (home, line, done) lives in the pool, so
        // each stage hop is a two-word bound event.
        const std::uint32_t pending = pending_misses_.alloc(
            PendingMiss{line_addr, done, home});
        eq_.scheduleAfter(cfg_.rdc.controller_latency,
                          bindEvent<&RdcController::probeMiss>(
                              this, pending));
    }
}

void
RdcController::probeHit(Addr line_addr, Callback done)
{
    local_mem_.access(storageAddr(line_addr), AccessType::Read, done);
}

void
RdcController::probeHitParked(std::uint32_t pending)
{
    const PendingMiss miss = pending_misses_[pending];
    pending_misses_.free(pending);
    probeHit(miss.line_addr, miss.done);
}

void
RdcController::probeMiss(std::uint32_t pending)
{
    local_mem_.access(storageAddr(pending_misses_[pending].line_addr),
                      AccessType::Read,
                      Completion::bind<&RdcController::probeMissDone>(
                          this, pending));
}

void
RdcController::probeMissDone(std::uint32_t pending)
{
    const PendingMiss miss = pending_misses_[pending];
    pending_misses_.free(pending);
    handleMiss(miss.home, miss.line_addr, /* serialized */ true,
               miss.done);
}

void
RdcController::handleMiss(NodeId home, Addr line_addr, bool serialized,
                          Callback done)
{
    (void)serialized;
    // A full file cannot merge a new line: park on the wake-list and
    // re-enter when a fetch completes. Small rdc.mshr_entries configs
    // hit this legally; it is backpressure, not a simulator bug.
    if (mshrs_.full() && !mshrs_.outstanding(line_addr)) {
        ++mshr_stalls_;
        const std::uint32_t pending = pending_misses_.alloc(
            PendingMiss{line_addr, done, home});
        mshrs_.park(
            Completion::bind<&RdcController::wakeMiss>(this, pending));
        return;
    }

    const MshrOutcome out = mshrs_.allocate(line_addr, done);
    carve_assert(out != MshrOutcome::Full);
    if (out != MshrOutcome::NewEntry)
        return;

    if (audit_)
        audit_->issue(audit::Boundary::RdcFetch);
    fabric_.remoteRead(self_, home, line_addr,
                       Completion::bind<&RdcController::fetchArrived>(
                           this, line_addr, home));
}

void
RdcController::wakeMiss(std::uint32_t pending)
{
    const PendingMiss miss = pending_misses_[pending];
    if (mshrs_.full() && !mshrs_.outstanding(miss.line_addr)) {
        // Earlier waiters took every freed register: keep the record
        // and our wake-list position.
        mshrs_.park(
            Completion::bind<&RdcController::wakeMiss>(this, pending));
        return;
    }
    pending_misses_.free(pending);
    handleMiss(miss.home, miss.line_addr, /* serialized */ false,
               miss.done);
}

void
RdcController::fetchArrived(Addr line_addr, NodeId home)
{
    if (audit_)
        audit_->retire(audit::Boundary::RdcFetch);
    handleVictim(alloy_.insert(line_addr, epoch_.current(),
                               /* dirty */ false, home));
    // Fill write into the carve-out is posted.
    local_mem_.access(storageAddr(line_addr), AccessType::Write,
                      Callback());
    mshrs_.complete(line_addr);
}

void
RdcController::handleVictim(const std::optional<RdcVictim> &victim)
{
    if (!victim || !victim->dirty)
        return;
    // The carve-out held the only up-to-date copy of the displaced
    // line; its home must absorb it before the data is lost.
    ++writeback_victims_;
    dirty_map_.clearDirty(alloy_.setStorageOffset(victim->tag));
    fabric_.remoteWrite(self_, victim->home, victim->tag);
}

void
RdcController::write(NodeId home, Addr line_addr)
{
    carve_assert(home != self_);

    if (cfg_.rdc.write_policy == RdcWritePolicy::WriteThrough) {
        // Update in place when resident so later reads stay hits.
        if (alloy_.lookup(line_addr, epoch_.current()) ==
                RdcLookup::Hit) {
            ++write_updates_;
            local_mem_.access(storageAddr(line_addr),
                              AccessType::Write, Callback());
        }
        ++write_throughs_;
        fabric_.remoteWrite(self_, home, line_addr);
        return;
    }

    // Write-back: allocate on write, defer propagation to the flush.
    if (alloy_.lookup(line_addr, epoch_.current()) != RdcLookup::Hit)
        handleVictim(alloy_.insert(line_addr, epoch_.current(),
                                   /* dirty */ true, home));
    else
        alloy_.markDirty(line_addr, epoch_.current());
    local_mem_.access(storageAddr(line_addr), AccessType::Write,
                      Callback());
    dirty_map_.markDirty(alloy_.setStorageOffset(line_addr), home);
    ++write_updates_;
}

Cycle
RdcController::kernelBoundarySwc()
{
    Cycle stall = 0;
    if (cfg_.rdc.write_policy == RdcWritePolicy::WriteBack) {
        // Dirty regions must reach their homes before the next kernel
        // may consume them. Worst-case serialization over one link.
        const std::uint64_t bytes = dirty_map_.dirtyBytes();
        stall = static_cast<Cycle>(
            static_cast<double>(bytes) / cfg_.link.gpu_gpu_bw);
        // The stall charges the latency; the flush data itself still
        // has to cross the fabric and land in the home memories.
        for (const auto &[flush_home, flush_bytes] :
                 dirty_map_.flushTargets()) {
            flush_bytes_ += flush_bytes;
            flush_regions_ += flush_bytes / dirty_map_.regionSize();
            fabric_.rdcFlush(self_, flush_home, flush_bytes);
        }
        dirty_map_.clear();
        alloy_.cleanAll();
        flush_.instant(eq_.now(), bytes);
    }
    if (epoch_.increment()) {
        // Rollover: the controller physically clears every line.
        alloy_.clear();
        rollover_.instant(eq_.now());
    }
    return stall;
}

bool
RdcController::invalidateLine(Addr line_addr)
{
    ++hw_invalidates_;
    if (alloy_.lineDirty(line_addr))
        dirty_map_.clearDirty(alloy_.setStorageOffset(line_addr));
    return alloy_.invalidateLine(line_addr);
}

bool
RdcController::contains(Addr line_addr)
{
    return alloy_.peek(line_addr, epoch_.current());
}

void
RdcController::registerStats(stats::StatGroup &g)
{
    g.addScalar("read_hits", &read_hits_);
    g.addScalar("read_misses", &read_misses_);
    g.addScalar("mshr_stalls", &mshr_stalls_);
    g.addScalar("write_updates", &write_updates_);
    g.addScalar("write_throughs", &write_throughs_);
    g.addScalar("bypasses", &bypasses_);
    g.addScalar("hw_invalidates", &hw_invalidates_);
    g.addScalar("writeback_victims", &writeback_victims_);
    g.addScalar("flush_bytes", &flush_bytes_);
    g.addScalar("flush_regions", &flush_regions_);

    const auto child = [&](const char *name) {
        stat_groups_.push_back(
            std::make_unique<stats::StatGroup>(name, &g));
        return stat_groups_.back().get();
    };
    alloy_.registerStats(*child("alloy"));
    epoch_.registerStats(*child("epoch"));
    predictor_.registerStats(*child("predictor"));
    dirty_map_.registerStats(*child("dirty_map"));
    stats::StatGroup *mshrsg = child("mshrs");
    mshrs_.registerStats(*mshrsg);
    if (mshrs_.parkProbe().histogram())
        mshrsg->addHistogram("park_duration", &mshr_park_dur_);
    if (mshrs_.lifetimeProbe().histogram())
        mshrsg->addHistogram("miss_lifetime", &miss_life_);
}

void
RdcController::auditDirtyState(const std::string &prefix,
                               std::vector<std::string> &out) const
{
    std::vector<std::string> fails;
    const std::uint64_t line = cfg_.line_size;

    alloy_.setsMap().forEach([&](const AlloyCache::SetEntry &entry) {
        if (!entry.valid || !entry.dirty)
            return;
        const std::uint64_t set = alloy_.setIndex(entry.tag);
        const Addr offset = set * line;
        if (!dirty_map_.isDirtyLine(offset)) {
            fails.push_back(prefix + ": dirty alloy set " +
                            std::to_string(set) +
                            " missing from the dirty map");
        } else if (dirty_map_.dirtySets().at(offset) != entry.home) {
            fails.push_back(prefix + ": dirty alloy set " +
                            std::to_string(set) +
                            " home disagrees with the dirty map");
        }
    });

    for (const auto &[offset, home] : dirty_map_.dirtySets()) {
        (void)home;
        const AlloyCache::SetEntry *entry =
            alloy_.setsMap().find(offset / line);
        if (entry == nullptr || !entry->valid || !entry->dirty) {
            fails.push_back(prefix + ": dirty map set at offset " +
                            std::to_string(offset) +
                            " has no dirty alloy line");
        }
    }

    // Both walks above are in hash order; sort for stable reports.
    std::sort(fails.begin(), fails.end());
    out.insert(out.end(), fails.begin(), fails.end());
}

} // namespace carve
