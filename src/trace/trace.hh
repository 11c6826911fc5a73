/**
 * @file
 * Cycle-level event tracing: a fixed-capacity ring-buffer sink for
 * timeline spans, instant events and sampled counter tracks, exported
 * as Chrome trace-event JSON (see trace/chrome_export.hh) and loadable
 * in Perfetto / chrome://tracing.
 *
 * Design constraints, in priority order:
 *
 *  1. Cheap when off. Components record through Probes
 *     (trace/probe.hh) whose sinks are resolved when they are wired,
 *     and the system's own sites are guarded by active(); either way
 *     an untraced site costs one test.
 *  2. Deterministic simulation. The tracer only *observes*: it never
 *     schedules events, so an instrumented run executes the exact
 *     event sequence of an uninstrumented one and results files stay
 *     byte-identical (pinned by tests/test_determinism.cc).
 *  3. Bounded memory. Events land in a fixed-capacity ring; overflow
 *     overwrites oldest-first and is reported through the
 *     trace.dropped_events stat.
 */

#ifndef CARVE_TRACE_TRACE_HH
#define CARVE_TRACE_TRACE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace carve {
namespace trace {

/** Event categories; each is one bit of the runtime enable mask. */
enum class Category : std::uint32_t {
    Sm        = 1u << 0,  ///< warp memory-latency spans, MSHR stalls
    Cache     = 1u << 1,  ///< L1/L2 miss lifetimes (MSHR alloc->fill)
    Rdc       = 1u << 2,  ///< RDC miss lifetimes, boundary flushes
    Dram      = 1u << 3,  ///< channel data-bus busy spans
    Link      = 1u << 4,  ///< per-link packet occupancy spans
    Coherence = 1u << 5,  ///< invalidations (hardware + boundary)
    Kernel    = 1u << 6,  ///< kernel phase spans + boundary markers
    Audit     = 1u << 7,  ///< audit passes, watchdog, log messages
};

/** Every category bit set. */
constexpr std::uint32_t all_categories = 0xffu;

/** Lower-case name of one category ("sm", "cache", ...). */
const char *categoryName(Category c);

/**
 * Parse a comma-separated category list ("sm,dram,link"; "all" for
 * every category) into an enable mask. fatal() on an unknown name,
 * listing the valid ones.
 */
std::uint32_t parseCategoryList(const std::string &list);

/** How one recorded event is rendered on the timeline. */
enum class EventKind : std::uint8_t {
    Span,     ///< duration slice [ts, ts+dur) on a thread row
    Instant,  ///< zero-width marker at ts
    Counter,  ///< sampled value of a counter track at ts
};

/** Encode a Chrome (pid, tid) pair into one track id. */
constexpr std::uint32_t
makeTrack(std::uint32_t pid, std::uint32_t tid)
{
    return (pid << 16) | (tid & 0xffffu);
}

/** Process half of a track id. */
constexpr std::uint32_t trackPid(std::uint32_t t) { return t >> 16; }
/** Thread half of a track id. */
constexpr std::uint32_t trackTid(std::uint32_t t) { return t & 0xffffu; }

/**
 * One recorded trace event. Fixed-size POD so the ring buffer is one
 * flat allocation; @ref name points at a string-literal (or a string
 * interned by the owning Session) and is never freed per-event.
 */
struct Event
{
    Cycle ts = 0;             ///< start cycle
    Cycle dur = 0;            ///< span length (0 for instant/counter)
    std::uint64_t arg = 0;    ///< payload (line addr, bytes, index...)
    double value = 0.0;       ///< counter sample value
    const char *name = "";    ///< static or Session-interned label
    std::uint32_t track = 0;  ///< makeTrack(pid, tid)
    Category cat = Category::Sm;
    EventKind kind = EventKind::Instant;
};

/** Tracing configuration, carried by RunOptions::trace. */
struct Options
{
    /** Master switch; false leaves the whole subsystem untouched. */
    bool enabled = false;
    /** Runtime per-category enable mask (see parseCategoryList). */
    std::uint32_t categories = all_categories;
    /** Ring capacity in events; overflow drops oldest-first. */
    std::size_t buffer_capacity = 1u << 20;
    /** Cycles between counter-track samples; 0 disables sampling. */
    Cycle sample_interval = 1000;
    /** Chrome trace-event JSON output file; empty == keep in memory
     * (callers may still export by hand). */
    std::string out_path;
    /** Harness use: directory for per-run trace files, composed into
     * out_path from the run key when out_path is empty. */
    std::string out_dir;
};

/**
 * One tracing session: the ring-buffer sink plus the track registry
 * (process/thread rows for the exporter) and the registered counter
 * samplers. Components record into it through Probes
 * (trace/probe.hh); the system's own sites go through active().
 */
class Session
{
  public:
    /** Display-row registration, consumed by the exporter. */
    struct ProcessDef
    {
        std::uint32_t pid;
        std::string name;
    };
    struct ThreadDef
    {
        std::uint32_t pid;
        std::uint32_t tid;
        std::string name;
    };
    /** One sampled counter track (per-process, named). */
    struct CounterDef
    {
        std::uint32_t pid;
        const char *name;  ///< interned by the session
        std::function<double()> sampler;
    };

    explicit Session(const Options &opt);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const Options &options() const { return opt_; }

    /** True when @p c is enabled in the runtime mask. */
    bool
    wants(Category c) const
    {
        return (opt_.categories & static_cast<std::uint32_t>(c)) != 0;
    }

    // ---- recording -------------------------------------------------
    /** Record a duration slice [start, end) (end < start is clamped). */
    void span(Category c, std::uint32_t track, const char *name,
              Cycle start, Cycle end, std::uint64_t arg = 0);

    /** Record a zero-width marker. */
    void instant(Category c, std::uint32_t track, const char *name,
                 Cycle ts, std::uint64_t arg = 0);

    /** Record an instant whose label is dynamic text (log messages);
     * the string is interned for the session's lifetime. */
    void instantText(Category c, std::uint32_t track,
                     const std::string &text, Cycle ts);

    // ---- track registry --------------------------------------------
    void defineProcess(std::uint32_t pid, std::string name);
    void defineThread(std::uint32_t pid, std::uint32_t tid,
                      std::string name);

    // ---- counter tracks --------------------------------------------
    /** Register a per-process counter: @p sampler is read every
     * options().sample_interval cycles by the owning system. */
    void addCounter(std::uint32_t pid, const std::string &name,
                    std::function<double()> sampler);

    bool hasCounters() const { return !counters_.empty(); }
    Cycle sampleInterval() const { return opt_.sample_interval; }

    /** Sample every registered counter at cycle @p now. */
    void sampleCounters(Cycle now);

    // ---- introspection / export ------------------------------------
    /** Events overwritten because the ring was full (oldest-first). */
    std::uint64_t droppedEvents() const { return dropped_; }
    /** Events recorded over the session (including dropped ones). */
    std::uint64_t recordedEvents() const { return recorded_; }
    /** Events currently held in the ring. */
    std::size_t size() const { return ring_.size(); }

    /** Visit retained events oldest-first. */
    void forEach(const std::function<void(const Event &)> &fn) const;

    const std::vector<ProcessDef> &processes() const
    {
        return processes_;
    }
    const std::vector<ThreadDef> &threads() const { return threads_; }
    const std::vector<CounterDef> &counters() const
    {
        return counters_;
    }

    /** Copy @p text into session-lifetime storage (stable address). */
    const char *intern(const std::string &text);

  private:
    void record(const Event &e);

    Options opt_;
    std::vector<Event> ring_;
    std::size_t head_ = 0;  ///< oldest element once the ring is full
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;

    std::vector<ProcessDef> processes_;
    std::vector<ThreadDef> threads_;
    std::vector<CounterDef> counters_;
    /** Interned dynamic labels; deque keeps addresses stable. */
    std::deque<std::string> interned_;
};

/**
 * The guard for sites that record into a Session directly (the
 * system's kernel and audit markers):
 *
 *     if (trace::active(trace_, trace::Category::Kernel))
 *         trace_->instant(...);
 *
 * With no session attached it costs one pointer test.
 */
inline bool
active(const Session *s, Category c)
{
    return s != nullptr && s->wants(c);
}

} // namespace trace
} // namespace carve

#endif // CARVE_TRACE_TRACE_HH
