/**
 * @file
 * Shared pieces of carve-perfbench: host timers, the in-memory
 * span log of the traced run, the stat-tree digest that decides
 * whether a job's output is correct, the per-layer stat aggregation
 * and the entry points of the three workloads.
 *
 * carve-perfbench measures carve-sim from outside: it only calls the
 * public functions of src/ and times those calls. It writes its raw
 * samples as one JSON document; perfbench/run.py turns them into
 * metrics.
 */

#ifndef PERFBENCH_CPP_BENCH_HH
#define PERFBENCH_CPP_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "core/simulator.hh"
#include "harness/json.hh"
#include "harness/run_spec.hh"

namespace perfbench {

using carve::json::Value;
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line settings shared by every workload. */
struct Settings
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (cache dirs, sockets). */
    std::string scratch = ".bench_build/scratch";
    /** Chrome trace-event output of the traced run. */
    std::string trace_out;
};

/**
 * Spans kept in memory around each public call the benchmark makes
 * (name, start, end, parent, job id). Disabled in untraced runs, so
 * begin/end cost one branch there. Thread-safe: the served workload
 * records from its client threads.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    /** Open a span; returns its id, or -1 when disabled. */
    int begin(const char *name, int parent, std::int64_t job);
    void end(int id);
    /** Write every closed span as Chrome trace-event JSON. */
    void writeChrome(const std::string &path) const;
    /** Self time (duration minus child coverage) per span name, in
     * seconds, summed over all spans of that name. */
    std::map<std::string, double> selfSeconds() const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
        std::int64_t job = -1;
        unsigned tid = 0;
        bool closed = false;
    };

    const bool enabled_;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * A host timer that is also a span when the log is enabled. stop()
 * returns the elapsed seconds; the destructor stops it if needed.
 */
class Timed
{
  public:
    Timed(SpanLog &log, const char *name, int parent = -1,
          std::int64_t job = -1);
    ~Timed();
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    double stop();
    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
    Clock::time_point start_;
    bool stopped_ = false;
    double elapsed_ = 0.0;
};

/** FNV-1a 64-bit digest (16 hex digits) of the canonical JSON of
 * @p tree without the host stats, whose values are host measurements
 * rather than functions of the simulated schedule (sim.wall_seconds,
 * sim.peak_rss_bytes, engine.barrier_wait_ns.*). Equal simulated
 * behaviour gives equal digests across engines, thread counts and
 * paths. */
std::string statDigest(const std::vector<carve::stats::FlatStat> &tree);

/**
 * Sums of the stat-tree counters the per-layer table needs, added up
 * over every job of a traced run, plus the per-job percentiles of the
 * telemetry histograms with their sample counts.
 */
class LayerCounts
{
  public:
    void add(const std::vector<carve::stats::FlatStat> &tree);
    Value toJson() const;

  private:
    std::map<std::string, double> sums_;
    /** histogram name -> list of {percentile value, sample count} */
    std::map<std::string, std::vector<std::pair<double, double>>>
        hists_;
};

/**
 * Outcome of one job executed through the benchmark's own call
 * sequence: a copy of the calls carve::run() and harness::executeRun
 * make, each timed. Only the traced run and the self-test use it (the
 * spans need the split calls); the self-test checks that its record
 * equals executeRun's, and the copy must follow run() when run()
 * changes. The timed end-to-end passes go through harness::runSweep.
 */
struct JobRun
{
    bool ok = false;
    std::string error;
    double build_s = 0.0;      ///< SyntheticWorkload + MultiGpuSystem
    double run_s = 0.0;        ///< MultiGpuSystem::run
    double collect_s = 0.0;    ///< collectResult
    double serialize_s = 0.0;  ///< resultToJson(...).dump(0)
    std::uint64_t warp_insts = 0;
    std::uint64_t events = 0;
    std::string record;        ///< serialized run record
    std::string digest;        ///< statDigest of the stat tree
    std::vector<carve::stats::FlatStat> tree;
};

/**
 * Build, run, collect and serialize @p job with each call timed (and
 * spanned when @p log is enabled). Failures (panic, fatal, watchdog)
 * come back as ok == false. @p keep_tree keeps the stat tree for
 * per-layer aggregation.
 */
JobRun runJob(const carve::SimJob &job, SpanLog &log, std::int64_t job_id,
              bool keep_tree);

/** Set-up calls only: construct the workload and the system, then
 * drop them. Returns the construction seconds. */
double buildOnly(const carve::SimJob &job);

/**
 * Reload stored run records the way a results-file reader does
 * (parse + resultFromJson): @p count reloads of records[(start + i) %
 * size], each reload's seconds appended to @p latencies. With
 * @p check, the first reload of each record is compared with its
 * digest; returns false on a mismatch.
 */
bool reloadRecords(const std::vector<std::string> &records,
                   const std::vector<std::string> &digests,
                   std::size_t start, std::size_t count, bool check,
                   std::vector<double> &latencies);

/** Host facts that make numbers from different hosts incomparable. */
Value hostRecord();

/** Peak resident set of this process, in KiB. */
std::uint64_t peakRssKib();

/** Record of one job's effective run length. */
Value runLength(const std::string &job, std::uint64_t insts_per_warp,
                std::uint64_t warp_insts, std::uint64_t events);

/** Capacity divisor of every job (the carve-sweep default). */
inline constexpr unsigned kMemoryScale = 8;

/** Suite workload @p name at memory scale 8 with @p insts_per_warp. */
carve::WorkloadParams suiteAt(const std::string &name,
                              std::uint64_t insts_per_warp);

/** One job: preset x workload, profile_lines off, host stats off,
 * the carve-sweep cycle watchdog, optional telemetry. */
carve::harness::RunSpec makeSpec(carve::Preset preset,
                                 const carve::WorkloadParams &workload,
                                 std::uint64_t seed, bool telemetry,
                                 bool host_timing);

/** Attempted/failed bookkeeping; keeps the first few errors. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Value errors{carve::json::Array{}};

    void fail(const std::string &what);
};

Value toArray(const std::vector<double> &v);

/** Trace-length floor of WorkloadParams::withDurationScale. */
inline constexpr std::uint64_t kClampInstsPerWarp = 2;

/** sweep's simulated workloads, one per memory-behaviour class, and
 * their trace length: the shortest above the clamp for every one, so
 * no two lengths collapse into one trace. */
inline constexpr const char *kSweepWorkloads[] = {
    "Lulesh", "XSBench", "bfs-road", "stream-triad"};
inline constexpr std::uint64_t kSweepInstsPerWarp = 3;

/** Workload entry points; each returns the raw result document. */
Value runSweepWorkload(const Settings &s, SpanLog &log);
Value runParWorkload(const Settings &s, SpanLog &log);
Value runServedWorkload(const Settings &s, SpanLog &log);

/** Window of the served session a traced sweep or par run embeds to
 * measure the service layer. */
inline constexpr double kServiceSessionSeconds = 4.0;

/** Layer replays of the traced run (see layers.cc). */
Value runLayerReplays(std::uint64_t seed);

/** Checks of the digest and record helpers; 0 when all pass. */
int selfTest();

} // namespace perfbench

#endif // PERFBENCH_CPP_BENCH_HH
