/**
 * @file
 * carve-bench: simulator throughput measurement. Two layers:
 *
 *  1. Event-queue microbenchmark — a population of self-rescheduling
 *     actors drives millions of events through the calendar queue and
 *     reports events/sec. This isolates the queue from the simulator.
 *  2. End-to-end preset x workload cells — full simulations timed on
 *     the host, reporting host-seconds, events/sec and warp-insts/sec
 *     per cell. Engine-scaling cells re-run the 4-GPU CARVE-HWC
 *     simulation under the parallel engine at 1/2/4 sim-threads
 *     (clamped to this host's cores); each produces the same result
 *     bytes as the serial cell, so the warp-insts/sec ratio is a pure
 *     intra-run speedup measurement.
 *
 * Results are written as a "carve-bench/v1" JSON file (default
 * BENCH_<date>.json). With --baseline the report is compared against
 * a committed bench file and the exit status gates only on a >
 * --fail-factor slowdown (default 2x), or on a cell's events or
 * allocations growing by more than that factor — loose on purpose,
 * because absolute host speed varies by machine; CI uses this as an
 * informational tripwire, not a tight perf lock.
 *
 * Examples:
 *   carve-bench --smoke --out bench.json
 *   carve-bench --baseline tests/data/bench_baseline.json --smoke
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "core/simulator.hh"
#include "harness/bench_io.hh"
#include "harness/results_io.hh"
#include "workloads/suite.hh"

// ---- allocation accounting (bench binary only) ---------------------
//
// Replacing the throwing global allocators in this TU rebinds every
// new/delete in the whole carve-bench binary (the nothrow and aligned
// non-throwing forms forward to these), so each cell can report how
// many heap allocations the simulation performed. The simulator
// libraries themselves carry no hook — only this tool pays for (and
// sees) the counter. delete stays count-free: the interesting figure
// is allocation traffic, and free-side accounting would double the
// atomic cost.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

// noinline keeps the replacements opaque at call sites; otherwise GCC
// inlines the free() into callers and raises a false-positive
// -Wmismatched-new-delete against the (not inlined) operator new.
#if defined(__GNUC__)
#define CARVE_ALLOC_FN __attribute__((noinline))
#else
#define CARVE_ALLOC_FN
#endif

CARVE_ALLOC_FN void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

CARVE_ALLOC_FN void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

CARVE_ALLOC_FN void *
operator new(std::size_t size, std::align_val_t al)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    std::size_t a = static_cast<std::size_t>(al);
    if (a < sizeof(void *))
        a = sizeof(void *);
    if (posix_memalign(&p, a, size ? size : a) != 0)
        throw std::bad_alloc();
    return p;
}

CARVE_ALLOC_FN void *
operator new[](std::size_t size, std::align_val_t al)
{
    return ::operator new(size, al);
}

CARVE_ALLOC_FN void
operator delete(void *p) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
CARVE_ALLOC_FN void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace carve;
using harness::BenchReport;
using harness::CellResult;
using harness::MicroResult;

struct CliOptions
{
    bool smoke = false;
    bool micro_only = false;
    std::uint64_t micro_events = 5'000'000;
    std::string out_path;  ///< empty == BENCH_<date>.json
    std::string baseline_path;
    double fail_factor = 2.0;
};

void
usage()
{
    std::puts(
        "usage: carve-bench [options]\n"
        "\n"
        "  --smoke            small grid + short micro (CI-sized)\n"
        "  --micro-only       skip the end-to-end cells\n"
        "  --micro-events N   events in the micro\n"
        "                     (default 5e6; --smoke uses 1e6)\n"
        "  --out FILE         output path (default BENCH_<date>.json)\n"
        "  --baseline FILE    compare against a bench file; exit 1\n"
        "                     only on a > fail-factor slowdown or\n"
        "                     events/allocations growth\n"
        "  --fail-factor X    gate factor (default 2.0)\n"
        "  --help             this text\n");
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions cli;
    const auto need = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            fatal("%s requires an argument", flag);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--smoke") {
            cli.smoke = true;
        } else if (a == "--micro-only") {
            cli.micro_only = true;
        } else if (a == "--micro-events") {
            cli.micro_events =
                std::stoull(need(i, "--micro-events"));
        } else if (a == "--out") {
            cli.out_path = need(i, "--out");
        } else if (a == "--baseline") {
            cli.baseline_path = need(i, "--baseline");
        } else if (a == "--fail-factor") {
            cli.fail_factor = std::stod(need(i, "--fail-factor"));
        } else {
            fatal("unknown flag '%s' (see --help)", a.c_str());
        }
    }
    return cli;
}

std::string
todayUtc()
{
    const std::time_t t = std::time(nullptr);
    char buf[16];
    std::strftime(buf, sizeof buf, "%Y-%m-%d", std::gmtime(&t));
    return buf;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * One self-rescheduling micro actor. Delays are a deterministic
 * LCG stream: mostly short (inside the calendar's near-horizon
 * ring), with one in 64 pushed past the horizon to exercise the
 * far-heap migration path. The callback is a pre-bound member
 * event, so steady state allocates nothing.
 */
struct Actor
{
    EventQueue *eq = nullptr;
    std::uint64_t state = 0;
    std::uint64_t fired = 0;

    void
    tick()
    {
        ++fired;
        state = state * 6364136223846793005ULL +
            1442695040888963407ULL;
        const std::uint64_t r = state >> 33;
        Cycle delta = 1 + (r % 197);
        if ((r & 63) == 0)
            delta += 4096;  // past the near-horizon ring
        eq->scheduleAfter(delta, bindEvent<&Actor::tick>(this));
    }
};

MicroResult
runMicro(const char *name, std::uint64_t target_events)
{
    constexpr std::size_t actors = 8192;

    EventQueue eq;
    std::vector<Actor> pop(actors);
    for (std::size_t i = 0; i < actors; ++i) {
        pop[i].eq = &eq;
        pop[i].state = 0x9e3779b97f4a7c15ULL * (i + 1);
        eq.schedule(i % 128, bindEvent<&Actor::tick>(&pop[i]));
    }

    const auto start = std::chrono::steady_clock::now();
    eq.run(target_events);
    const double secs = secondsSince(start);

    MicroResult m;
    m.name = name;
    m.events = eq.executed();
    m.seconds = secs;
    m.events_per_sec =
        secs > 0.0 ? static_cast<double>(m.events) / secs : 0.0;
    std::printf("micro %-18s %10llu events  %7.3fs  %11.0f ev/s\n",
                name, static_cast<unsigned long long>(m.events),
                m.seconds, m.events_per_sec);
    return m;
}

/** Peak resident set size of this process, in bytes. */
std::uint64_t
peakRssBytes()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

CellResult
runCell(const SimJob &job)
{
    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    const SimResult r = run(job);
    const double secs = secondsSince(start);

    CellResult c;
    c.preset = r.preset;
    c.workload = r.workload;
    c.cycles = r.cycles;
    c.events = r.events;
    c.warp_insts = r.warp_insts;
    c.allocations = g_allocations.load(std::memory_order_relaxed) -
        allocs_before;
    c.peak_rss_bytes = peakRssBytes();
    c.host_seconds = secs;
    c.events_per_sec =
        secs > 0.0 ? static_cast<double>(r.events) / secs : 0.0;
    c.warp_insts_per_sec =
        secs > 0.0 ? static_cast<double>(r.warp_insts) / secs : 0.0;
    std::printf("cell  %-18s %-10s %7.3fs  %11.0f ev/s  "
                "%10.0f winst/s  %9llu allocs  %5.0f MiB rss\n",
                c.preset.c_str(), c.workload.c_str(),
                c.host_seconds, c.events_per_sec,
                c.warp_insts_per_sec,
                static_cast<unsigned long long>(c.allocations),
                static_cast<double>(c.peak_rss_bytes) /
                    (1024.0 * 1024.0));
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    BenchReport rep;
    rep.date = todayUtc();
    rep.git_version = harness::gitDescribe();
    rep.engine = "calendar";

    // ---- event-queue microbenchmark -------------------------------
    const std::uint64_t micro_events =
        cli.smoke ? std::min<std::uint64_t>(cli.micro_events,
                                            1'000'000)
                  : cli.micro_events;
    rep.micro = {runMicro("eventq/calendar", micro_events)};

    // ---- end-to-end cells -----------------------------------------
    if (!cli.micro_only) {
        SuiteOptions suite;
        suite.memory_scale = 8;
        suite.duration = cli.smoke ? 0.05 : 0.2;
        rep.memory_scale = suite.memory_scale;
        rep.duration = suite.duration;

        const std::vector<Preset> presets =
            cli.smoke
                ? std::vector<Preset>{Preset::NumaGpu,
                                      Preset::CarveHwc}
                : std::vector<Preset>{Preset::SingleGpu,
                                      Preset::NumaGpu,
                                      Preset::CarveHwc,
                                      Preset::Ideal};
        const std::vector<std::string> workloads =
            cli.smoke
                ? std::vector<std::string>{"Lulesh", "XSBench"}
                : std::vector<std::string>{"Lulesh", "XSBench",
                                           "HPGMG", "MiniAMR"};

        const SystemConfig base =
            SystemConfig{}.scaled(suite.memory_scale);
        RunOptions opts;
        opts.profile_lines = false;
        opts.max_cycles = 1'000'000'000;

        // Cells run serially: each host-seconds figure must not be
        // polluted by sibling runs competing for cores.
        for (const std::string &wl : workloads) {
            const WorkloadParams params = suiteWorkload(wl, suite);
            for (const Preset p : presets)
                rep.cells.push_back(runCell(
                    makePresetJob(p, base, params, opts)));
        }

        // Tracing-overhead cells. "trace-off" attaches a session but
        // masks every category and disables sampling, so it prices
        // the per-event enabled checks alone; the baseline compare
        // against the plain NUMA-GPU cell gates that cost. "trace-on"
        // records everything (no file written) as the worst case.
        const WorkloadParams lulesh = suiteWorkload("Lulesh", suite);
        SimJob off =
            makePresetJob(Preset::NumaGpu, base, lulesh, opts);
        off.preset_label = "NUMA-GPU+trace-off";
        off.options.trace.enabled = true;
        off.options.trace.categories = 0;
        off.options.trace.sample_interval = 0;
        rep.cells.push_back(runCell(off));

        SimJob on =
            makePresetJob(Preset::NumaGpu, base, lulesh, opts);
        on.preset_label = "NUMA-GPU+trace-on";
        on.options.trace.enabled = true;
        on.options.trace.categories = trace::all_categories;
        on.options.trace.buffer_capacity = std::size_t{1} << 20;
        on.options.trace.sample_interval = 1000;
        rep.cells.push_back(runCell(on));

        // Telemetry-overhead cell: every latency histogram armed
        // (MSHR park/miss lifetimes, link queue delay, remote-read
        // latency, engine self-profiling), no host timing. The plain
        // NUMA-GPU cell above is the denominator; the acceptance
        // budget for always-on telemetry is a few percent of
        // warp-insts/sec.
        SimJob telem =
            makePresetJob(Preset::NumaGpu, base, lulesh, opts);
        telem.preset_label = "NUMA-GPU+telem-on";
        telem.options.telemetry.enabled = true;
        rep.cells.push_back(runCell(telem));

        // MSHR-saturated cell: tiny L1/L2 files keep the wake-lists
        // hot for the whole run. Its events column prices the
        // park/drain discipline — a regression back toward retry
        // polling shows up as an order-of-magnitude events jump
        // against the baseline.
        SimJob sat =
            makePresetJob(Preset::NumaGpu, base, lulesh, opts);
        sat.preset_label = "NUMA-GPU+mshr-sat";
        sat.config.l1.mshrs = 4;
        sat.config.l2.mshrs = 8;
        rep.cells.push_back(runCell(sat));

        // Engine-scaling cells: the 4-GPU CARVE-HWC cell re-run with
        // the per-GPU event domains on 1/2/4 worker threads. The
        // serial cell above is the denominator; thread counts this
        // host cannot supply are skipped (run() refuses
        // oversubscription), so baselines only gate cells both
        // machines produced.
        const unsigned hw = std::thread::hardware_concurrency();
        for (const unsigned n : {1u, 2u, 4u}) {
            if (hw != 0 && n > hw)
                continue;
            SimJob par =
                makePresetJob(Preset::CarveHwc, base, lulesh, opts);
            par.preset_label =
                "CARVE-HWC+par" + std::to_string(n);
            par.options.engine = SimEngine::Parallel;
            par.options.sim_threads = n;
            rep.cells.push_back(runCell(par));

            // The same cell with full telemetry plus host-clock
            // barrier-wait timing: the difference against the plain
            // par<N> cell prices the engine's self-profiling, and a
            // --telemetry-host-timing run of this shape is how
            // ROADMAP's barrier-overhead question gets its numbers
            // (engine.barrier_wait_ns in the stat tree).
            SimJob part =
                makePresetJob(Preset::CarveHwc, base, lulesh, opts);
            part.preset_label =
                "CARVE-HWC+par" + std::to_string(n) + "+telem";
            part.options.engine = SimEngine::Parallel;
            part.options.sim_threads = n;
            part.options.telemetry.enabled = true;
            part.options.telemetry.host_timing = true;
            rep.cells.push_back(runCell(part));
        }
    }

    // ---- write + gate ---------------------------------------------
    const std::string out = cli.out_path.empty()
        ? "BENCH_" + rep.date + ".json"
        : cli.out_path;
    harness::writeResultsFile(out, benchToJson(rep));
    std::printf("carve-bench: wrote %s\n", out.c_str());

    if (!cli.baseline_path.empty()) {
        const BenchReport baseline =
            harness::readBenchFile(cli.baseline_path);
        const auto deltas =
            harness::compareBench(baseline, rep, cli.fail_factor);
        std::fputs(
            harness::formatBenchCompare(deltas, cli.fail_factor)
                .c_str(),
            stdout);
        if (harness::benchHasRegression(deltas))
            return 1;
    }
    return 0;
}
