/**
 * @file
 * Conservative parallel discrete-event engine: one EventQueue per
 * simulation domain (one per GPU plus one for the system/CPU side),
 * synchronized by a fixed lookahead window derived from the minimum
 * inter-domain link latency. Within a window every domain executes its
 * own events independently; events targeting another domain are
 * buffered in per-source outboxes and exchanged at the window barrier
 * in (tick, source-domain, sequence) order, so the schedule each
 * destination queue observes — and therefore every stat the simulation
 * produces — is byte-identical whether the domains run on one thread
 * or many.
 *
 * Both modes run one window loop. SimEngine::Parallel fans the
 * domains out over sim_threads persistent workers joined by a
 * spin-then-yield sense-reversing barrier (the window cadence is a few
 * thousand barriers per million cycles, far too hot for a
 * mutex/condvar barrier); SimEngine::Serial is the same loop with one
 * worker, the calling thread, and no threads spawned. Identity between
 * the two modes holds by construction: thread assignment never
 * influences event order, only which core fires it.
 */

#ifndef CARVE_COMMON_DOMAIN_ENGINE_HH
#define CARVE_COMMON_DOMAIN_ENGINE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/event_queue.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace carve {

namespace engine_ctx {

/** Shard slots: max_nodes GPU domains + the system domain + one
 * barrier/external slot. */
inline constexpr unsigned max_shards = 18;
/** Shard index for single-threaded contexts: window barriers, unit
 * tests driving components without an engine, tool main threads. */
inline constexpr unsigned barrier_shard = max_shards - 1;

/** Domain the calling thread is currently executing (barrier_shard
 * outside a domain window). Set by DomainEngine only. */
extern thread_local unsigned current_shard;

inline unsigned currentShard() { return current_shard; }

} // namespace engine_ctx

/**
 * A Scalar whose increments land in a per-domain shard mid-window and
 * fold into the registered total at each barrier. Increments from the
 * barrier shard (single-threaded contexts) update the total directly,
 * so engine-less unit tests observe counts immediately.
 */
class ShardedScalar
{
  public:
    void
    inc(std::uint64_t v = 1)
    {
        const unsigned s = engine_ctx::current_shard;
        if (s == engine_ctx::barrier_shard)
            total_ += v;
        else
            shards_[s].v += v;
    }

    /** Fold every shard into the total (window barriers only). */
    void
    fold()
    {
        for (Slot &s : shards_) {
            total_ += s.v;
            s.v = 0;
        }
    }

    /** The registered stat; only coherent at window barriers. */
    stats::Scalar &scalar() { return total_; }
    const stats::Scalar &scalar() const { return total_; }

  private:
    /** Padded to a cache line: shards of one counter are written by
     * different worker threads in the same window. */
    struct alignas(64) Slot
    {
        std::uint64_t v = 0;
    };

    stats::Scalar total_;
    std::array<Slot, engine_ctx::barrier_shard> shards_{};
};

/**
 * Per-GPU event domains under a conservative lookahead window.
 * Domains 0..num_gpus-1 belong to the GPUs; domain num_gpus is the
 * system/CPU domain (kernel sequencing, CPU memory, spill traffic).
 */
class DomainEngine
{
  public:
    /** Sentinel "no more events" tick. */
    static constexpr Cycle no_event = EventQueue::no_event;

    struct Hooks
    {
        /** Runs single-threaded at every window barrier, after the
         * cross-domain exchange and before the barrier actions. */
        std::function<void(Cycle barrier_tick)> on_barrier;
        /** Continue into the window starting at @p next_window_start?
         * Checked after each barrier. */
        std::function<bool(Cycle next_window_start)> keep_going;
        /** Wall-clock budget; 0 disables the check. Each worker reads
         * the clock once per 8192 events it fires; tripping it ends
         * the running domain's window early and stops the run at the
         * next barrier (stopRequested() reports it). */
        double max_wall_seconds = 0.0;
    };

    /**
     * @param num_gpus GPU domain count (the system domain is added)
     * @param lookahead window width in cycles (>= 1); every
     *        cross-domain post must land at least this far ahead
     * @param mode Serial or Parallel execution of the same algorithm
     * @param threads worker count for Parallel (clamped to domains)
     */
    DomainEngine(unsigned num_gpus, Cycle lookahead, SimEngine mode,
                 unsigned threads);

    DomainEngine(const DomainEngine &) = delete;
    DomainEngine &operator=(const DomainEngine &) = delete;

    unsigned numDomains() const
    {
        return static_cast<unsigned>(queues_.size());
    }
    unsigned systemDomain() const { return numDomains() - 1; }
    EventQueue &queue(unsigned d) { return *queues_[d]; }
    const EventQueue &queue(unsigned d) const { return *queues_[d]; }

    Cycle lookahead() const { return lookahead_; }
    SimEngine mode() const { return mode_; }
    unsigned threads() const { return threads_; }

    /** Start tick of the current window (== last completed barrier). */
    Cycle barrierTick() const { return barrier_tick_; }

    /**
     * The executing context's current time: the running domain's queue
     * time mid-window, the barrier tick in barrier phases and outside
     * run().
     */
    Cycle
    now() const
    {
        const unsigned s = engine_ctx::current_shard;
        if (in_barrier_ || s >= queues_.size())
            return barrier_tick_;
        return queues_[s]->now();
    }

    /**
     * Deliver @p fn into domain @p dst at absolute tick @p when.
     * Mid-window the event is buffered in the executing domain's
     * outbox and injected at the barrier; @p when must therefore be at
     * least one full lookahead ahead of the window start. From barrier
     * phases (single-threaded) it is scheduled directly.
     */
    void post(unsigned dst, Cycle when, EventFn fn);

    /** Run @p fn single-threaded at the next window barrier, after the
     * exchange and on_barrier hook, in registration order. */
    void atNextBarrier(std::function<void()> fn);

    /** Total events executed across all domain queues. */
    std::uint64_t eventsExecuted() const;

    /** True when every queue, outbox and barrier action is empty. */
    bool quiescent() const;

    /** Ask the run loop to stop at the next barrier (thread-safe). */
    void
    requestStop()
    {
        stop_requested_.store(true, std::memory_order_relaxed);
    }
    bool
    stopRequested() const
    {
        return stop_requested_.load(std::memory_order_relaxed);
    }

    /** Execute windows until keep_going declines, stop is requested,
     * or the whole system quiesces. An error raised by an event on any
     * worker ends the run after that window; the lowest worker's error
     * is rethrown on the calling thread. */
    void run(const Hooks &hooks);

    /**
     * Attach the self-profiling record: every window barrier samples
     * per-domain occupancy, outbox depth and exchange volume into
     * @p p (single-threaded, so plain histograms suffice), and — when
     * p->host_timing is set and more than one worker runs — workers
     * time their barrier waits into private shards merged into
     * p->barrier_wait_ns in worker-id order after the run. Null
     * detaches; when detached the barrier path does no extra work at
     * all.
     */
    void attachProfile(telemetry::EngineProfile *p) { profile_ = p; }

    /**
     * Conservative lookahead for @p cfg: the earliest a cross-domain
     * message sent at tick t can act on its destination is
     * t + 1 (min link occupancy) + link latency, so a window of
     * link.latency + 1 cycles is safe.
     */
    static Cycle
    lookaheadWindow(const SystemConfig &cfg)
    {
        return static_cast<Cycle>(cfg.link.latency) + 1;
    }

  private:
    /** One buffered cross-domain event. */
    struct Msg
    {
        Cycle when;
        std::uint64_t seq;  ///< per-source append order
        std::uint32_t src;
        std::uint32_t dst;
        EventFn fn;
    };

    /** Outboxes are written by one domain each; pad them apart. */
    struct alignas(64) Outbox
    {
        std::vector<Msg> msgs;
        std::uint64_t next_seq = 0;
    };

    /** Sense-reversing spin barrier (see file comment). */
    class SpinBarrier
    {
      public:
        explicit SpinBarrier(unsigned parties) : parties_(parties) {}
        void arriveAndWait();

      private:
        const unsigned parties_;
        std::atomic<std::uint32_t> arrived_{0};
        std::atomic<std::uint32_t> phase_{0};
    };

    /** Exchange outboxes into destination queues in (tick, src, seq)
     * order, then run the barrier hook and actions. */
    void windowBarrier(Cycle wend, const Hooks &hooks);

    const Cycle lookahead_;
    const SimEngine mode_;
    const unsigned threads_;

    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<Outbox> outboxes_;
    std::vector<Msg> exchange_scratch_;
    std::vector<std::function<void()>> barrier_actions_;

    Cycle barrier_tick_ = 0;
    bool in_barrier_ = false;
    std::atomic<bool> stop_requested_{false};

    telemetry::EngineProfile *profile_ = nullptr;
    /** executed() at the previous barrier, per domain (profiling). */
    std::vector<std::uint64_t> prev_executed_;
};

} // namespace carve

#endif // CARVE_COMMON_DOMAIN_ENGINE_HH
