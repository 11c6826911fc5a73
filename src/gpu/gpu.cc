#include "gpu/gpu.hh"

#include "common/logging.hh"

namespace carve {

double
GpuTraffic::fracRemote() const
{
    const std::uint64_t t = total();
    if (t == 0)
        return 0.0;
    // CPU traffic also leaves the package but the paper's Figure 8
    // counts GPU<->GPU NUMA traffic; CPU accesses are reported apart.
    return static_cast<double>(remote_reads + remote_writes) /
        static_cast<double>(t);
}

GpuNode::GpuNode(EventQueue &eq, const SystemConfig &cfg, NodeId id,
                 const Workload &wl, PageManager &pages,
                 SystemFabric &fabric, Arena *arena)
    : eq_(eq), cfg_(cfg), id_(id), wl_(wl), pages_(pages),
      fabric_(fabric),
      l2_("l2", cfg.l2, cfg.line_size),
      l2_mshrs_(cfg.l2.mshrs, arena, &eq),
      parked_misses_(arena),
      tlb_(cfg.tlb, cfg.core.sms_per_gpu, cfg.page_size),
      mem_(eq, cfg, arena)
{
    if (cfg.rdc.enabled) {
        rdc_ = std::make_unique<RdcController>(eq, cfg, id, mem_,
                                               fabric, arena);
    }

    Sm::Port &port = *this;
    sms_.reserve(cfg.core.sms_per_gpu);
    for (unsigned s = 0; s < cfg.core.sms_per_gpu; ++s) {
        const std::uint64_t jitter =
            (static_cast<std::uint64_t>(id) << 32) | s;
        sms_.push_back(std::make_unique<Sm>(eq, cfg, s, wl, port,
                                            jitter, arena));
    }
}

void
GpuNode::startKernel(KernelId k, CtaScheduler &sched)
{
    cur_kernel_ = k;
    sched_ = &sched;

    // Greedily fill every SM's CTA slots from this GPU's batch.
    bool any = false;
    for (auto &sm : sms_) {
        while (sm->freeWarpSlots() >= wl_.warpsPerCta()) {
            const auto cta = sched.nextCta(id_);
            if (!cta)
                break;
            const bool started = sm->tryStartCta(k, *cta);
            carve_assert(started);
            ++live_ctas_;
            any = true;
        }
        if (sched.remaining(id_) == 0)
            break;
    }

    if (!any && live_ctas_ == 0) {
        // Empty batch: report completion asynchronously.
        eq_.schedule(eq_.now(),
                     bindEvent<&GpuNode::maybeFinishKernel>(this));
    }
}

void
GpuNode::onCtaRetired(SmId sm, CtaId)
{
    carve_assert(sched_ != nullptr && live_ctas_ > 0);
    --live_ctas_;
    sched_->retireCta(id_);

    // Backfill the SM that freed capacity.
    while (sms_[sm]->freeWarpSlots() >= wl_.warpsPerCta()) {
        const auto cta = sched_->nextCta(id_);
        if (!cta)
            break;
        const bool started = sms_[sm]->tryStartCta(cur_kernel_, *cta);
        carve_assert(started);
        ++live_ctas_;
    }
    maybeFinishKernel();
}

void
GpuNode::maybeFinishKernel()
{
    if (live_ctas_ == 0 && sched_ != nullptr &&
        sched_->remaining(id_) == 0) {
        fabric_.kernelDone(id_);
    }
}

bool
GpuNode::busy() const
{
    if (live_ctas_ > 0)
        return true;
    return sched_ != nullptr && sched_->remaining(id_) > 0;
}

std::uint64_t
GpuNode::instsIssued() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->instsIssued();
    return total;
}

Cycle
GpuNode::kernelBoundary()
{
    for (auto &sm : sms_)
        sm->invalidateL1();

    boundary_inval_.instant(eq_.now());

    Cycle stall = 0;
    const bool hw_coherent = rdc_ &&
        (cfg_.rdc.coherence == RdcCoherence::HardwareVI ||
         cfg_.rdc.coherence == RdcCoherence::None);
    if (!hw_coherent) {
        // Software coherence: the LLC's remote lines are stale.
        l2_.invalidateRemote();
    }
    if (rdc_ && cfg_.rdc.coherence == RdcCoherence::Software)
        stall += rdc_->kernelBoundarySwc();
    return stall;
}

void
GpuNode::serviceRemoteRead(Addr line, Callback done)
{
    ++serviced_remote_reads_;
    mem_.access(line, AccessType::Read, done);
}

void
GpuNode::serviceRemoteWrite(Addr line)
{
    ++serviced_remote_writes_;
    mem_.access(line, AccessType::Write, Callback());
}

void
GpuNode::invalidateLine(Addr line)
{
    ++hw_invalidations_in_;
    hw_inval_.instant(eq_.now(), line);
    l2_.invalidateLine(line);
    if (rdc_)
        rdc_->invalidateLine(line);
    for (auto &sm : sms_)
        sm->invalidateL1Line(line);
}

void
GpuNode::accessFromSm(Addr line, AccessType type, Callback done)
{
    if (audit_)
        audit_->issue(audit::Boundary::SmL2);
    // Resolve the read/write split here instead of inside the event:
    // both continuations then fit EventFn's inline storage, keeping
    // the hottest scheduling path in the machine allocation-free.
    if (isWrite(type)) {
        eq_.scheduleAfter(cfg_.core.l1_to_l2_latency,
                          bindEvent<&GpuNode::handleWrite>(this, line));
        return;
    }
    // (line, done) is a 40-byte payload — park it and bind the pool
    // handle so the event stays within EventFn's inline storage.
    const std::uint32_t parked = parked_misses_.alloc(
        ParkedMiss{line, done});
    eq_.scheduleAfter(cfg_.core.l1_to_l2_latency,
                      bindEvent<&GpuNode::arriveAtL2Parked>(this,
                                                           parked));
}

void
GpuNode::recordAccess(Addr line, AccessType type)
{
    pages_.recordAccess(line, id_, type, eq_.now());
}

Cycle
GpuNode::translate(SmId sm, Addr addr)
{
    return tlb_.translate(sm, addr).latency;
}

void
GpuNode::arriveAtL2Parked(std::uint32_t parked)
{
    const ParkedMiss miss = parked_misses_[parked];
    parked_misses_.free(parked);
    arriveAtL2(miss.line, miss.done);
}

void
GpuNode::arriveAtL2(Addr line, Callback done)
{
    if (audit_)
        audit_->retire(audit::Boundary::SmL2);
    if (l2_.readProbe(line)) {
        eq_.scheduleAfter(l2_.hitLatency(), done);
        return;
    }
    handleL2ReadMiss(line, done);
}

void
GpuNode::handleL2ReadMiss(Addr line, Callback done)
{
    // A full MSHR file cannot merge a new line: one stall episode
    // begins. Park the request in the pool and join the wake-list;
    // a completing fill drains us back in FIFO order — no polling.
    if (l2_mshrs_.full() && !l2_mshrs_.outstanding(line)) {
        ++l2_mshr_stalls_;
        const std::uint32_t parked =
            parked_misses_.alloc(ParkedMiss{line, done});
        l2_mshrs_.park(
            Completion::bind<&GpuNode::wakeL2Miss>(this, parked));
        return;
    }

    const MshrOutcome out = l2_mshrs_.allocate(line, done);
    carve_assert(out != MshrOutcome::Full);
    if (out == MshrOutcome::NewEntry) {
        if (audit_)
            audit_->issue(audit::Boundary::L2Fill);
        // Tag check latency before the fill heads off-chip/to DRAM.
        eq_.scheduleAfter(l2_.hitLatency(),
                          bindEvent<&GpuNode::startFill>(this, line));
    }
}

void
GpuNode::wakeL2Miss(std::uint32_t parked)
{
    const ParkedMiss miss = parked_misses_[parked];
    if (l2_mshrs_.full() && !l2_mshrs_.outstanding(miss.line)) {
        // Earlier waiters took every freed register: same episode,
        // keep the record and our wake-list position.
        l2_mshrs_.park(
            Completion::bind<&GpuNode::wakeL2Miss>(this, parked));
        return;
    }
    parked_misses_.free(parked);
    handleL2ReadMiss(miss.line, miss.done);
}

void
GpuNode::startFill(Addr line)
{
    // Routing is a pure read of the committed NUMA state; policy
    // actions (migrations, replicas, their bulk copies and stalls)
    // apply at the next window barrier.
    launchFill(line, pages_.route(line, id_, AccessType::Read,
                                  eq_.now()));
}

void
GpuNode::launchFill(Addr line, NodeId service)
{
    if (service == id_) {
        ++traffic_.local_reads;
        fabric_.coherenceLocalAccess(id_, line, AccessType::Read);
        mem_.access(line, AccessType::Read,
                    Completion::bind<&GpuNode::finishFill>(this, line,
                                                           false));
    } else if (service == cpu_node) {
        ++traffic_.cpu_reads;
        fabric_.cpuRead(id_, line,
                        Completion::bind<&GpuNode::finishFill>(
                            this, line, true));
    } else if (rdc_) {
        // CARVE: the RDC fields the remote read. Classify by what
        // actually happened (hit => local bandwidth).
        const bool was_resident = rdc_->contains(line);
        if (was_resident)
            ++traffic_.rdc_hit_reads;
        else
            ++traffic_.remote_reads;
        rdc_->read(service, line,
                   Completion::bind<&GpuNode::finishFill>(this, line,
                                                          true));
    } else {
        ++traffic_.remote_reads;
        fabric_.remoteRead(id_, service, line,
                           Completion::bind<&GpuNode::finishFill>(
                               this, line, true));
    }
}

void
GpuNode::finishFill(Addr line, bool remote)
{
    if (audit_)
        audit_->retire(audit::Boundary::L2Fill);
    if (!remote || cfg_.numa.llc_caches_remote)
        l2_.fill(line, remote);
    l2_mshrs_.complete(line);
}

void
GpuNode::handleWrite(Addr line)
{
    if (audit_)
        audit_->retire(audit::Boundary::SmL2);
    // Write-through LLC: update a resident copy, then propagate to
    // the service memory. Stores never block warps.
    l2_.writeProbe(line, false);
    deliverWrite(line, pages_.route(line, id_, AccessType::Write,
                                    eq_.now()));
}

void
GpuNode::deliverWrite(Addr line, NodeId service)
{
    if (service == id_) {
        ++traffic_.local_writes;
        mem_.access(line, AccessType::Write, Callback());
        fabric_.coherenceLocalAccess(id_, line, AccessType::Write);
    } else if (service == cpu_node) {
        ++traffic_.cpu_writes;
        fabric_.cpuWrite(id_, line);
    } else if (rdc_) {
        // Classify by where the data actually goes: a write-back
        // RDC absorbs the store locally until the boundary flush,
        // so counting it as NUMA write traffic double-charges.
        if (rdc_->absorbsWrites())
            ++traffic_.rdc_hit_writes;
        else
            ++traffic_.remote_writes;
        rdc_->write(service, line);
    } else {
        ++traffic_.remote_writes;
        fabric_.remoteWrite(id_, service, line);
    }
}

void
GpuNode::instrument(trace::Session *session, std::uint32_t pid,
                    bool telemetry, audit::InflightTracker *audit)
{
    audit_ = audit;
    // Defines a trace row (when traced) and returns its track.
    const auto row = [&](std::uint32_t tid, const std::string &name) {
        if (session)
            session->defineThread(pid, tid, name);
        return trace::makeTrack(pid, tid);
    };

    if (session)
        session->defineProcess(pid, "gpu" + std::to_string(id_));
    l1_park_ = trace::Probe(trace::histogramIf(telemetry, l1_park_dur_));
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const auto tid = static_cast<std::uint32_t>(1 + s);
        sms_[s]->instrument(session, row(tid, "sm" + std::to_string(s)),
                            l1_park_);
    }
    l2_mshrs_.instrument(
        trace::Probe(session, trace::Category::Cache, row(100, "l2.mshr"),
                     "l2 miss",
                     trace::histogramIf(telemetry, l2_miss_life_)),
        trace::Probe(trace::histogramIf(telemetry, l2_park_dur_)));
    if (rdc_)
        rdc_->instrument(session, row(110, "rdc"), telemetry, audit);
    const std::uint32_t coherence = row(120, "coherence");
    boundary_inval_ = trace::Probe(session, trace::Category::Coherence,
                                   coherence, "boundary_invalidate");
    hw_inval_ = trace::Probe(session, trace::Category::Coherence,
                             coherence, "hw_invalidate");
    mem_.instrument(session, pid, audit);

    if (!session)
        return;
    session->addCounter(pid, "l2_mshr_occupancy", [this] {
        return static_cast<double>(l2_mshrs_.size());
    });
    session->addCounter(pid, "dram_queue_occupancy", [this] {
        std::size_t total = 0;
        for (unsigned c = 0; c < mem_.numChannels(); ++c) {
            total += mem_.channel(c).readQueueSize() +
                mem_.channel(c).writeQueueSize();
        }
        return static_cast<double>(total);
    });
    if (rdc_) {
        session->addCounter(pid, "rdc_hit_rate", [this] {
            const double hits =
                static_cast<double>(rdc_->readHits());
            const double total =
                hits + static_cast<double>(rdc_->readMisses());
            return total == 0.0 ? 0.0 : hits / total;
        });
    }
}

void
GpuNode::registerStats(stats::StatGroup &g)
{
    g.addScalar("hw_invalidations_in", &hw_invalidations_in_);
    g.addScalar("remote_serviced_reads", &serviced_remote_reads_);
    g.addScalar("remote_serviced_writes", &serviced_remote_writes_);
    g.addDerivedInt("insts_issued", [this] { return instsIssued(); });

    const auto child = [&](const std::string &name,
                           stats::StatGroup *parent) {
        stat_groups_.push_back(
            std::make_unique<stats::StatGroup>(name, parent));
        return stat_groups_.back().get();
    };

    traffic_.registerStats(*child("traffic", &g));

    stats::StatGroup *l2g = child("l2", &g);
    l2_.registerStats(*l2g);
    l2g->addScalar("mshr_stalls", &l2_mshr_stalls_);
    stats::StatGroup *l2mg = child("mshrs", l2g);
    l2_mshrs_.registerStats(*l2mg);
    if (l2_mshrs_.parkProbe().histogram())
        l2mg->addHistogram("park_duration", &l2_park_dur_);
    if (l2_mshrs_.lifetimeProbe().histogram())
        l2mg->addHistogram("miss_lifetime", &l2_miss_life_);
    if (l1_park_.histogram())
        child("l1_mshrs", &g)->addHistogram("park_duration", &l1_park_dur_);

    tlb_.registerStats(*child("tlb", &g));
    mem_.registerStats(*child("mem", &g));
    if (rdc_)
        rdc_->registerStats(*child("rdc", &g));
    for (std::size_t i = 0; i < sms_.size(); ++i)
        sms_[i]->registerStats(*child("sm" + std::to_string(i), &g));
}

} // namespace carve
