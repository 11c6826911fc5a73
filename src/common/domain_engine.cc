#include "common/domain_engine.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.hh"

namespace carve {

namespace engine_ctx {

thread_local unsigned current_shard = barrier_shard;

} // namespace engine_ctx

namespace {

/** Events each worker fires between wall-clock checks. */
constexpr std::uint64_t clock_check_interval = 8192;

#if defined(__x86_64__) || defined(__i386__)
inline void cpuRelax() { __builtin_ia32_pause(); }
#elif defined(__aarch64__)
inline void cpuRelax() { asm volatile("yield" ::: "memory"); }
#else
inline void cpuRelax() {}
#endif

} // namespace

void
DomainEngine::SpinBarrier::arriveAndWait()
{
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        parties_) {
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        return;
    }
    unsigned spins = 0;
    while (phase_.load(std::memory_order_acquire) == phase) {
        if (++spins < 1024)
            cpuRelax();
        else
            std::this_thread::yield();
    }
}

DomainEngine::DomainEngine(unsigned num_gpus, Cycle lookahead,
                           SimEngine mode, unsigned threads)
    : lookahead_(lookahead), mode_(mode),
      threads_(std::max(1u, threads))
{
    if (lookahead_ == 0)
        fatal("DomainEngine: lookahead window must be >= 1 cycle");
    const unsigned domains = num_gpus + 1;  // + system/CPU domain
    if (domains > engine_ctx::barrier_shard) {
        fatal("DomainEngine: %u domains exceed the %u shard slots",
              domains, engine_ctx::barrier_shard);
    }
    queues_.reserve(domains);
    for (unsigned d = 0; d < domains; ++d)
        queues_.push_back(std::make_unique<EventQueue>());
    outboxes_ = std::vector<Outbox>(domains);
}

void
DomainEngine::post(unsigned dst, Cycle when, EventFn fn)
{
    carve_assert(dst < queues_.size());
    if (!fn)
        return;
    const unsigned src = engine_ctx::current_shard;
    if (in_barrier_ || src >= queues_.size()) {
        // Single-threaded context (barrier phase, or an engine-less
        // caller): deliver directly; barrier-phase posts land at or
        // past the next window start by construction.
        queues_[dst]->schedule(when, std::move(fn));
        return;
    }
    Outbox &ob = outboxes_[src];
    ob.msgs.push_back(Msg{when, ob.next_seq++,
                          static_cast<std::uint32_t>(src),
                          static_cast<std::uint32_t>(dst),
                          std::move(fn)});
}

void
DomainEngine::atNextBarrier(std::function<void()> fn)
{
    // Only the system domain (kernel sequencing) and barrier-phase
    // code register actions, so the vector needs no locking.
    carve_assert(engine_ctx::current_shard == systemDomain() ||
                 engine_ctx::current_shard >= queues_.size());
    barrier_actions_.push_back(std::move(fn));
}

std::uint64_t
DomainEngine::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &q : queues_)
        n += q->executed();
    return n;
}

bool
DomainEngine::quiescent() const
{
    for (const auto &q : queues_)
        if (!q->empty())
            return false;
    for (const Outbox &ob : outboxes_)
        if (!ob.msgs.empty())
            return false;
    return barrier_actions_.empty();
}

void
DomainEngine::windowBarrier(Cycle wend, const Hooks &hooks)
{
    in_barrier_ = true;
    engine_ctx::current_shard = engine_ctx::barrier_shard;

    // Self-profiling: sample per-domain occupancy and the outbox
    // depths before the exchange clears them. Everything here is a
    // pure function of the simulated schedule (the same windows and
    // outbox contents arise at any thread count), so these histograms
    // are engine- and thread-count invariant.
    if (profile_) {
        ++profile_->windows;
        if (prev_executed_.size() != queues_.size())
            prev_executed_.assign(queues_.size(), 0);
        std::uint64_t total_msgs = 0;
        for (const Outbox &ob : outboxes_) {
            profile_->outbox_depth.sample(ob.msgs.size());
            total_msgs += ob.msgs.size();
        }
        profile_->exchange_msgs.sample(total_msgs);
        for (std::size_t d = 0; d < queues_.size(); ++d) {
            const std::uint64_t ex = queues_[d]->executed();
            profile_->window_occupancy.sample(ex - prev_executed_[d]);
            prev_executed_[d] = ex;
        }
    }

    // Cross-domain exchange: merge every outbox and inject in
    // (tick, source-domain, sequence) order. Each destination queue
    // assigns its own sequence numbers in this deterministic order,
    // so intra-tick ordering downstream is thread-count independent.
    exchange_scratch_.clear();
    for (Outbox &ob : outboxes_) {
        for (Msg &m : ob.msgs)
            exchange_scratch_.push_back(std::move(m));
        ob.msgs.clear();
        ob.next_seq = 0;
    }
    std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
              [](const Msg &a, const Msg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.seq < b.seq;
              });
    for (Msg &m : exchange_scratch_) {
        // The conservative contract: nothing may land inside the
        // window that just executed.
        carve_assert(m.when >= wend);
        queues_[m.dst]->schedule(m.when, std::move(m.fn));
    }
    exchange_scratch_.clear();

    barrier_tick_ = wend;
    if (hooks.on_barrier)
        hooks.on_barrier(wend);

    // Barrier actions (kernel boundaries) may schedule events but not
    // register further actions for this same barrier.
    std::vector<std::function<void()>> actions;
    actions.swap(barrier_actions_);
    for (auto &fn : actions)
        fn();
}

void
DomainEngine::run(const Hooks &hooks)
{
    stop_requested_.store(false, std::memory_order_relaxed);
    const unsigned num_workers =
        mode_ == SimEngine::Parallel
            ? std::min(threads_, numDomains())
            : 1u;
    const bool watchdog = hooks.max_wall_seconds > 0.0;
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration<double>(hooks.max_wall_seconds);

    SpinBarrier start(num_workers);
    SpinBarrier done(num_workers);
    std::atomic<bool> shutdown{false};
    Cycle window_end = 0;

    // Per-worker state, padded apart: the worker's first error, its
    // watchdog countdown (carried across windows) and its barrier-wait
    // samples. The samples are merged into the profile in worker-id
    // order only after the workers have been joined, so no shard is
    // ever read while its owner might still write it.
    struct alignas(64) Worker
    {
        std::exception_ptr error;
        std::uint64_t until_check = clock_check_interval;
        telemetry::Histogram waits;
    };
    std::vector<Worker> workers(num_workers);

    // A lone worker never waits at a barrier, so it samples nothing.
    const bool time_waits =
        profile_ && profile_->host_timing && num_workers > 1;
    const auto timedWait = [&](SpinBarrier &b, Worker &w) {
        if (!time_waits) {
            b.arriveAndWait();
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        b.arriveAndWait();
        w.waits.sample(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    };

    // One window of every domain assigned to worker @p id. Under the
    // watchdog the clock is read once per clock_check_interval events;
    // a passed deadline ends the running domain's window early and
    // stops the run at the barrier.
    const auto workerWindow = [&](unsigned id) {
        Worker &w = workers[id];
        try {
            for (unsigned d = id; d < queues_.size(); d += num_workers) {
                engine_ctx::current_shard = d;
                EventQueue &q = *queues_[d];
                if (!watchdog) {
                    q.runWindow(window_end);
                    continue;
                }
                for (;;) {
                    w.until_check -= q.runWindow(window_end, w.until_check);
                    if (w.until_check > 0)
                        break;
                    w.until_check = clock_check_interval;
                    if (std::chrono::steady_clock::now() >= deadline) {
                        requestStop();
                        break;
                    }
                }
            }
        } catch (...) {
            w.error = std::current_exception();
            requestStop();
        }
        engine_ctx::current_shard = engine_ctx::barrier_shard;
    };

    std::vector<std::thread> threads;
    threads.reserve(num_workers - 1);
    for (unsigned id = 1; id < num_workers; ++id) {
        threads.emplace_back([&, id] {
            // fatal()/panic() on a worker must not kill the process
            // before the coordinator can report it from the main
            // thread with the caller's own capture semantics.
            ScopedErrorCapture capture;
            for (;;) {
                timedWait(start, workers[id]);
                if (shutdown.load(std::memory_order_acquire))
                    return;
                workerWindow(id);
                timedWait(done, workers[id]);
            }
        });
    }

    const auto stopWorkers = [&] {
        shutdown.store(true, std::memory_order_release);
        start.arriveAndWait();
        for (std::thread &t : threads)
            t.join();
    };

    // The calling thread is worker 0 and runs every barrier phase.
    try {
        for (;;) {
            window_end = barrier_tick_ + lookahead_;
            in_barrier_ = false;
            start.arriveAndWait();
            workerWindow(0);
            timedWait(done, workers[0]);
            const bool failed = std::any_of(
                workers.begin(), workers.end(),
                [](const Worker &w) { return w.error != nullptr; });
            if (failed)
                break;
            windowBarrier(window_end, hooks);
            if (stopRequested())
                break;
            if (hooks.keep_going && !hooks.keep_going(barrier_tick_))
                break;
            if (quiescent())
                break;
        }
    } catch (...) {
        stopWorkers();
        throw;
    }
    stopWorkers();

    if (time_waits)
        for (const Worker &w : workers)
            profile_->barrier_wait_ns.merge(w.waits);

    // Surface the first worker failure (lowest worker id) from the
    // main thread, preserving the caller's capture semantics: rethrow
    // under an active ScopedErrorCapture, re-issue as fatal()/panic()
    // otherwise (the capture on a spawned worker diverted the
    // message).
    for (const Worker &w : workers) {
        if (!w.error)
            continue;
        try {
            std::rethrow_exception(w.error);
        } catch (const SimAbortError &abort) {
            if (errorCaptureActive())
                throw;
            if (abort.level() == LogLevel::Fatal)
                fatal("%s", abort.what());
            panic("%s", abort.what());
        }
    }
    in_barrier_ = false;
}

} // namespace carve
