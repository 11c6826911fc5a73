#include "core/multi_gpu_system.hh"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "common/logging.hh"

namespace carve {

namespace {

/** Chunk-table headroom for the cross-domain op pools: readers in
 * other domains must never observe the table reallocate (16k in-flight
 * ops per source, far above any configuration's MSHR budget). */
constexpr std::size_t kOpPoolChunkReserve = 64;

} // namespace

MultiGpuSystem::MultiGpuSystem(const SystemConfig &cfg,
                               const Workload &wl, bool profile_lines,
                               bool audit,
                               telemetry::Options telemetry,
                               trace::Session *trace)
    : cfg_(cfg),
      engine_(cfg_.num_gpus, DomainEngine::lookaheadWindow(cfg_),
              cfg_.engine, cfg_.sim_threads),
      wl_(wl),
      pages_(cfg_, true, profile_lines),
      net_(engine_, cfg_.link, cfg_.num_gpus),
      sched_(cfg_.num_gpus),
      trace_(trace),
      telem_(telemetry),
      stat_root_("")
{
    cfg_.validate();
    if (audit)
        audit_.emplace();

    if (cfg_.rdc.enabled &&
        cfg_.rdc.coherence == RdcCoherence::HardwareVI) {
        vi_.emplace(cfg_, cfg_.num_gpus, *this);
    }

    gpu_arenas_.reserve(cfg_.num_gpus);
    for (unsigned g = 0; g < cfg_.num_gpus; ++g)
        gpu_arenas_.emplace_back();

    remote_read_ops_.reserve(cfg_.num_gpus);
    cpu_read_ops_.reserve(cfg_.num_gpus);
    for (unsigned g = 0; g < cfg_.num_gpus; ++g) {
        remote_read_ops_.emplace_back(&gpu_arenas_[g]);
        remote_read_ops_.back().reserveChunks(kOpPoolChunkReserve);
        cpu_read_ops_.emplace_back(&gpu_arenas_[g]);
        cpu_read_ops_.back().reserveChunks(kOpPoolChunkReserve);
    }

    gpus_.reserve(cfg_.num_gpus);
    for (unsigned g = 0; g < cfg_.num_gpus; ++g) {
        gpus_.push_back(std::make_unique<GpuNode>(
            engine_.queue(g), cfg_, g, wl_, pages_, *this,
            &gpu_arenas_[g]));
    }

    if (telem_.enabled) {
        engine_profile_.host_timing = telem_.host_timing;
        engine_.attachProfile(&engine_profile_);
    }

    // The one observer pass (trace, telemetry, audit), before
    // registerStats() so the telemetry histograms join the stat tree.
    // Trace rows are defined in exported order: system, gpu0..N,
    // interconnect.
    if (trace_) {
        trace_->defineProcess(0, "system");
        trace_->defineThread(0, 0, "kernels");
        trace_->defineThread(0, 1, "log");
    }
    audit::InflightTracker *const tracker = audit_ ? &*audit_ : nullptr;
    for (unsigned g = 0; g < numGpus(); ++g)
        gpus_[g]->instrument(trace_, 1 + g, telem_.enabled, tracker);
    net_.instrument(trace_, 1 + numGpus(), telem_.enabled, tracker);

    registerStats();
}

void
MultiGpuSystem::registerStats()
{
    const auto child = [&](const std::string &name) {
        stat_groups_.push_back(
            std::make_unique<stats::StatGroup>(name, &stat_root_));
        return stat_groups_.back().get();
    };

    // Registered even when no session is attached (reads 0): the stat
    // name set must not depend on tracing, or traced-off and untraced
    // results files would differ.
    stats::StatGroup *tracing = child("trace");
    tracing->addDerivedInt("dropped_events",
                           [this] {
                               return trace_ ? trace_->droppedEvents()
                                             : 0;
                           });

    stats::StatGroup *sim = child("sim");
    sim->addScalar("bulk_bytes", &bulk_bytes_);
    sim->addDerivedInt("cycles",
                       [this] {
                           return finished_ ? finish_time_
                                            : engine_.now();
                       });
    sim->addDerivedInt("insts_issued",
                       [this] { return totalInstsIssued(); });
    sim->addDerivedInt("events",
                       [this] { return engine_.eventsExecuted(); });

    stats::StatGroup *fabric = child("fabric");
    fabric->addScalar("remote_read_msgs", &fabric_remote_read_msgs_.scalar());
    fabric->addScalar("remote_write_msgs",
                      &fabric_remote_write_msgs_.scalar());
    fabric->addScalar("cpu_read_msgs", &fabric_cpu_read_msgs_.scalar());
    fabric->addScalar("cpu_write_msgs", &fabric_cpu_write_msgs_.scalar());
    fabric->addScalar("flush_bytes", &fabric_flush_bytes_.scalar());
    fabric->addScalar("coh_ctrl_bytes", &fabric_coh_ctrl_bytes_.scalar());
    fabric->addScalar("bulk_gpu_bytes", &fabric_bulk_gpu_bytes_.scalar());
    fabric->addScalar("bulk_cpu_bytes", &fabric_bulk_cpu_bytes_.scalar());
    if (telem_.enabled) {
        fabric->addHistogram(
            "remote_read_latency", &remote_read_latency_.histogram());
    }

    // Engine self-profiling. Like every telemetry stat, the whole
    // group is registered whenever telemetry is on — regardless of
    // the engine mode or thread count — so the stat name set is a
    // function of the options alone (barrier_wait_ns simply reads
    // empty for serial runs or when host_timing is off).
    if (telem_.enabled) {
        stats::StatGroup *eng = child("engine");
        eng->addDerivedInt("windows",
                           [this] { return engine_profile_.windows; });
        eng->addHistogram("window_occupancy",
                          &engine_profile_.window_occupancy);
        eng->addHistogram("outbox_depth", &engine_profile_.outbox_depth);
        eng->addHistogram("exchange_msgs", &engine_profile_.exchange_msgs);
        eng->addHistogram("barrier_wait_ns", &engine_profile_.barrier_wait_ns);
        for (unsigned d = 0; d < engine_.numDomains(); ++d) {
            stat_groups_.push_back(std::make_unique<stats::StatGroup>(
                "domain" + std::to_string(d), eng));
            stat_groups_.back()->addDerivedInt(
                "events",
                [this, d] { return engine_.queue(d).executed(); });
        }
    }

    if (audit_) {
        stats::StatGroup *audit_grp = child("audit");
        stat_groups_.push_back(std::make_unique<stats::StatGroup>(
            "inflight", audit_grp));
        audit_->registerStats(*stat_groups_.back());
    }

    net_.registerStats(*child("link"));
    pages_.registerStats(*child("numa"));
    if (vi_)
        vi_->registerStats(*child("coherence"));
    for (unsigned g = 0; g < cfg_.num_gpus; ++g)
        gpus_[g]->registerStats(*child("gpu" + std::to_string(g)));
}

void
MultiGpuSystem::foldShardedStats()
{
    fabric_remote_read_msgs_.fold();
    fabric_remote_write_msgs_.fold();
    fabric_cpu_read_msgs_.fold();
    fabric_cpu_write_msgs_.fold();
    fabric_flush_bytes_.fold();
    fabric_coh_ctrl_bytes_.fold();
    fabric_bulk_gpu_bytes_.fold();
    fabric_bulk_cpu_bytes_.fold();
    if (telem_.enabled)
        remote_read_latency_.fold();
    if (audit_)
        audit_->foldShards();
    if (vi_)
        vi_->foldShards();
}

Cycle
MultiGpuSystem::run(Cycle max_cycles, double max_wall_seconds)
{
    carve_assert(!finished_);

    // Mirror fatal/panic/warn text onto the timeline so the trace and
    // the harness's error capture tell one story.
    std::optional<ScopedLogObserver> log_obs;
    if (trace::active(trace_, trace::Category::Audit)) {
        log_obs.emplace([this](LogLevel, const std::string &msg) {
            trace_->instantText(trace::Category::Audit,
                                trace::makeTrack(0, 1), msg,
                                engine_.now());
        });
    }

    // Kernel sequencing lives in the system domain; kick it off there.
    engine_.queue(engine_.systemDomain())
        .schedule(0, bindEvent<&MultiGpuSystem::launchKernel>(
                         this, KernelId{0}));

    DomainEngine::Hooks hooks;
    hooks.max_wall_seconds = max_wall_seconds;
    hooks.on_barrier = [this](Cycle t) {
        // Commit the window's NUMA policy decisions (single-threaded,
        // deterministic order), then make every sharded counter
        // coherent for barrier actions and the audit.
        pages_.commitWindow(t, this);
        foldShardedStats();
        // Counter sampling happens at barriers, never from scheduled
        // events, so a traced run executes the exact event sequence
        // of an untraced one.
        if (trace_ != nullptr && trace_->hasCounters() &&
            trace_->sampleInterval() > 0 && t >= trace_next_sample_) {
            trace_->sampleCounters(t);
            trace_next_sample_ = t + trace_->sampleInterval();
        }
    };
    hooks.keep_going = [this, max_cycles](Cycle next_window_start) {
        if (max_cycles != 0 && next_window_start > max_cycles)
            return false;
        if (!finished_)
            return true;
        // Audit mode drains the posted tail (stores, DRAM callbacks,
        // link deliveries) so every issued token can retire.
        return audit_.has_value() && !engine_.quiescent();
    };

    engine_.run(hooks);

    watchdog_tripped_ = !finished_;
    if (watchdog_tripped_ &&
        trace::active(trace_, trace::Category::Audit)) {
        trace_->instant(trace::Category::Audit, trace::makeTrack(0, 1),
                        "watchdog_tripped", engine_.now());
    }
    pages_.finalizeProfile();
    if (audit_ && finished_)
        auditCheck(/* final_pass */ true);
    return finished_ ? finish_time_ : engine_.now();
}

void
MultiGpuSystem::launchKernel(KernelId k)
{
    // Runs in the system domain. The CTA batches written here are
    // read by the GPU domains only after the next barrier, which is
    // also when the startKernel events below can earliest fire.
    cur_kernel_ = k;
    kernel_started_at_ = engine_.now();
    gpus_done_ = 0;
    sched_.launchKernel(wl_.numCtas(k));
    const Cycle when = engine_.now() + engine_.lookahead();
    for (unsigned g = 0; g < gpus_.size(); ++g) {
        engine_.post(g, when,
                     bindEvent<&MultiGpuSystem::startGpuKernel>(
                         this, g, k));
    }
}

void
MultiGpuSystem::startGpuKernel(NodeId g, KernelId k)
{
    gpus_[g]->startKernel(k, sched_);
}

void
MultiGpuSystem::onGpuKernelDone(NodeId)
{
    // Runs in the system domain (posted from the finishing GPU).
    ++gpus_done_;
    if (gpus_done_ < gpus_.size())
        return;
    // Kernel-boundary work mutates every GPU's caches: defer it to
    // the window barrier, where all domains are stopped.
    engine_.atNextBarrier([this] { finishKernelBarrier(); });
}

void
MultiGpuSystem::finishKernelBarrier()
{
    carve_assert(sched_.kernelDone());

    // Global barrier reached: apply kernel-boundary coherence on
    // every GPU; the slowest flush gates the next launch.
    Cycle stall = 0;
    for (auto &gpu : gpus_)
        stall = std::max(stall, gpu->kernelBoundary());

    if (trace::active(trace_, trace::Category::Kernel)) {
        const std::uint32_t track = trace::makeTrack(0, 0);
        trace_->span(trace::Category::Kernel, track,
                     trace_->intern("kernel " +
                                    std::to_string(cur_kernel_)),
                     kernel_started_at_, engine_.now(), cur_kernel_);
        trace_->instant(trace::Category::Kernel, track,
                        "kernel_boundary", engine_.now(), stall);
    }

    auditCheck(/* final_pass */ false);

    if (cur_kernel_ + 1 < wl_.numKernels()) {
        const KernelId next = cur_kernel_ + 1;
        engine_.post(engine_.systemDomain(),
                     engine_.now() + cfg_.core.kernel_launch_latency +
                         stall,
                     bindEvent<&MultiGpuSystem::launchKernel>(this,
                                                              next));
    } else {
        finished_ = true;
        finish_time_ = engine_.now() + stall;
    }
}

void
MultiGpuSystem::remoteRead(NodeId src, NodeId home, Addr line,
                           Callback done)
{
    carve_assert(src != home && home < gpus_.size());
    fabric_remote_read_msgs_.inc();
    // The op's state lives in the source domain's pool so each hop of
    // the request/service/data chain is a small bound event; only the
    // source domain allocates and frees.
    const std::uint32_t op = remote_read_ops_[src].alloc(
        RemoteReadOp{line, done, src, home, engine_.now()});
    // Request packet to the home node...
    net_.send(src, home, cfg_.link.ctrl_packet_size,
              bindEvent<&MultiGpuSystem::remoteReadAtHome>(this, src,
                                                           op));
}

void
MultiGpuSystem::remoteReadAtHome(NodeId src, std::uint32_t op)
{
    // Runs in the home domain; the record was published before the
    // request crossed the window barrier.
    const RemoteReadOp &r = remote_read_ops_[src][op];
    if (vi_)
        vi_->onRead(r.home, r.src, r.line);
    // ...home DRAM access...
    gpus_[r.home]->serviceRemoteRead(
        r.line,
        Completion::bind<&MultiGpuSystem::remoteReadServiced>(
            this, src, op));
}

void
MultiGpuSystem::remoteReadServiced(NodeId src, std::uint32_t op)
{
    const RemoteReadOp &r = remote_read_ops_[src][op];
    // ...data line back to the requester. Sent even for an empty
    // completion: the source-side delivery frees the op record.
    net_.send(r.home, r.src, cfg_.line_size,
              bindEvent<&MultiGpuSystem::deliverRemoteReadData>(
                  this, src, op));
}

void
MultiGpuSystem::deliverRemoteReadData(NodeId src, std::uint32_t op)
{
    // Back in the source domain: recycle the op and unblock the miss.
    const RemoteReadOp r = remote_read_ops_[src][op];
    remote_read_ops_[src].free(op);
    if (telem_.enabled)
        remote_read_latency_.sample(engine_.now() - r.issued);
    if (r.done)
        r.done();
}

void
MultiGpuSystem::remoteWrite(NodeId src, NodeId home, Addr line)
{
    carve_assert(src != home && home < gpus_.size());
    fabric_remote_write_msgs_.inc();
    net_.send(src, home, cfg_.line_size,
              bindEvent<&MultiGpuSystem::deliverRemoteWrite>(
                  this, src, home, line));
}

void
MultiGpuSystem::deliverRemoteWrite(NodeId src, NodeId home, Addr line)
{
    gpus_[home]->serviceRemoteWrite(line);
    if (vi_)
        vi_->onWrite(home, src, line);
}

void
MultiGpuSystem::cpuRead(NodeId src, Addr line, Callback done)
{
    (void)line;
    fabric_cpu_read_msgs_.inc();
    const std::uint32_t op =
        cpu_read_ops_[src].alloc(CpuReadOp{done, src});
    net_.sendToCpu(src, cfg_.link.ctrl_packet_size,
                   bindEvent<&MultiGpuSystem::cpuReadAtCpu>(this, src,
                                                            op));
}

void
MultiGpuSystem::cpuReadAtCpu(NodeId src, std::uint32_t op)
{
    // Runs in the system domain: CPU memory belongs to it.
    engine_.queue(engine_.systemDomain())
        .scheduleAfter(cfg_.link.cpu_mem_latency,
                       bindEvent<&MultiGpuSystem::cpuReadData>(
                           this, src, op));
}

void
MultiGpuSystem::cpuReadData(NodeId src, std::uint32_t op)
{
    const CpuReadOp &r = cpu_read_ops_[src][op];
    net_.sendFromCpu(r.src, cfg_.line_size,
                     bindEvent<&MultiGpuSystem::deliverCpuReadData>(
                         this, src, op));
}

void
MultiGpuSystem::deliverCpuReadData(NodeId src, std::uint32_t op)
{
    const CpuReadOp r = cpu_read_ops_[src][op];
    cpu_read_ops_[src].free(op);
    if (r.done)
        r.done();
}

void
MultiGpuSystem::cpuWrite(NodeId src, Addr line)
{
    (void)line;
    fabric_cpu_write_msgs_.inc();
    net_.sendToCpu(src, cfg_.line_size, Network::Callback());
}

void
MultiGpuSystem::bulkTransfer(NodeId src, NodeId dst,
                             std::uint64_t bytes)
{
    // Charged from barrier context (NUMA commit, tests): the links'
    // source-domain state is safe to touch while domains are stopped.
    if (src == dst)
        return;
    bulk_bytes_ += bytes;
    if (!cfg_.numa.charge_bulk_transfers)
        return;

    Network::Callback done;
    if (audit_) {
        audit_->issue(audit::Boundary::BulkTransfer);
        done = [tracker = &*audit_] {
            tracker->retire(audit::Boundary::BulkTransfer);
        };
    }

    if (src == cpu_node) {
        fabric_bulk_cpu_bytes_.inc(bytes);
        net_.sendFromCpu(dst, bytes, std::move(done));
    } else if (dst == cpu_node) {
        fabric_bulk_cpu_bytes_.inc(bytes);
        net_.sendToCpu(src, bytes, std::move(done));
    } else {
        fabric_bulk_gpu_bytes_.inc(bytes);
        net_.send(src, dst, bytes, std::move(done));
    }
}

void
MultiGpuSystem::rdcFlush(NodeId src, NodeId home, std::uint64_t bytes)
{
    carve_assert(src != home && home < gpus_.size());
    fabric_flush_bytes_.inc(bytes);
    // Posted: the boundary stall already charged the drain latency on
    // the source side; the data still occupies the wire.
    net_.send(src, home, bytes, Network::Callback());
}

void
MultiGpuSystem::coherenceLocalAccess(NodeId home, Addr line,
                                     AccessType type)
{
    if (!vi_)
        return;
    if (isWrite(type))
        vi_->onWrite(home, home, line);
    else
        vi_->onRead(home, home, line);
}

void
MultiGpuSystem::sendCtrl(NodeId src, NodeId dst, unsigned bytes)
{
    fabric_coh_ctrl_bytes_.inc(bytes);
    net_.send(src, dst, bytes, Network::Callback());
}

void
MultiGpuSystem::invalidateAt(NodeId node, Addr line)
{
    // Invalidates fan out from the write's home domain: the home
    // drops its own copies in place, every other node gets the
    // invalidate one lookahead window later (covering the control
    // packet's wire latency).
    if (node == engine_ctx::currentShard()) {
        gpus_[node]->invalidateLine(line);
        return;
    }
    engine_.post(node, engine_.now() + engine_.lookahead(),
                 bindEvent<&GpuNode::invalidateLine>(gpus_[node].get(),
                                                     line));
}

void
MultiGpuSystem::kernelDone(NodeId gpu)
{
    // Completion is observed in the GPU's domain; the system domain
    // learns about it a window later.
    engine_.post(engine_.systemDomain(),
                 engine_.now() + engine_.lookahead(),
                 bindEvent<&MultiGpuSystem::onGpuKernelDone>(this, gpu));
}

std::uint64_t
MultiGpuSystem::totalInstsIssued() const
{
    std::uint64_t total = 0;
    for (const auto &gpu : gpus_)
        total += gpu->instsIssued();
    return total;
}

void
MultiGpuSystem::auditCheck(bool final_pass)
{
    if (!audit_)
        return;

    if (trace::active(trace_, trace::Category::Audit)) {
        trace_->instant(trace::Category::Audit, trace::makeTrack(0, 1),
                        final_pass ? "audit_final_pass" : "audit_pass",
                        engine_.now());
    }

    std::vector<std::string> fails;
    const std::vector<stats::FlatStat> flat =
        stats::flattenStats(stat_root_);
    audit::checkCacheProbes(flat, fails);

    audit::ConservationParams params;
    params.line_size = cfg_.line_size;
    params.ctrl_packet_size = cfg_.link.ctrl_packet_size;
    params.final_pass = final_pass;
    audit::checkConservation(flat, params, fails);

    for (unsigned g = 0; g < numGpus(); ++g) {
        if (const RdcController *rdc = gpus_[g]->rdc())
            rdc->auditDirtyState("gpu" + std::to_string(g) + ".rdc",
                                 fails);
    }

    if (final_pass) {
        // The queues have drained: every token must be retired, every
        // MSHR entry completed, every warp finished.
        audit_->check(fails);
        for (unsigned g = 0; g < numGpus(); ++g) {
            const GpuNode &gpu = *gpus_[g];
            const std::string prefix = "gpu" + std::to_string(g);
            if (gpu.l2Mshrs().size() != 0) {
                fails.push_back(prefix + ": " +
                    std::to_string(gpu.l2Mshrs().size()) +
                    " L2 MSHR entr(ies) stranded at end of sim");
            }
            if (gpu.rdc() && gpu.rdc()->mshrs().size() != 0) {
                fails.push_back(prefix + ": " +
                    std::to_string(gpu.rdc()->mshrs().size()) +
                    " RDC MSHR entr(ies) stranded at end of sim");
            }
            for (unsigned s = 0; s < gpu.numSms(); ++s) {
                const Sm &sm = gpu.sm(s);
                if (sm.l1Mshrs().size() != 0) {
                    fails.push_back(prefix + ".sm" +
                        std::to_string(s) + ": " +
                        std::to_string(sm.l1Mshrs().size()) +
                        " L1 MSHR entr(ies) stranded at end of sim");
                }
                if (!sm.idle()) {
                    fails.push_back(prefix + ".sm" +
                        std::to_string(s) +
                        ": warps still resident at end of sim");
                }
            }
        }
    }

    if (fails.empty())
        return;
    std::string msg = "carve-audit: " +
        std::to_string(fails.size()) + " invariant violation(s) " +
        (final_pass ? "at end of simulation"
                    : "at kernel boundary") +
        " (kernel " + std::to_string(cur_kernel_) + ")";
    for (const std::string &f : fails)
        msg += "\n  " + f;
    panic("%s", msg.c_str());
}

} // namespace carve
