/**
 * @file
 * carve-sweep: expand a preset x workload x seed grid, execute it on
 * the parallel experiment harness, write structured JSON results, and
 * optionally gate against a baseline results file.
 *
 * Examples:
 *   carve-sweep --fig13 --threads 4 --out fig13.json
 *   carve-sweep --presets NUMA-GPU,CARVE-HWC --workloads Lulesh,HPGMG
 *   carve-sweep --baseline old.json --compare new.json --tolerance 0.03
 *
 * Exit status: 0 on success; 1 when any run failed/tripped its
 * watchdog or the baseline comparison found a regression; fatal
 * errors (bad flags, unreadable files) also exit 1.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "core/report.hh"
#include "trace/trace.hh"
#include "harness/fuzz.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "service/client.hh"
#include "workloads/suite.hh"

namespace {

using namespace carve;
using namespace carve::harness;

struct CliOptions
{
    std::vector<std::string> presets;
    std::vector<std::string> workloads;
    std::vector<std::uint64_t> seeds{1};
    unsigned scale = 8;
    double duration = 0.2;
    bool duration_set = false;
    unsigned threads = 0;  ///< 0 == all hardware threads
    Cycle max_cycles = 1'000'000'000;
    double max_wall_seconds = 0.0;
    std::string server_path;  ///< carve-served socket; empty == local
    bool profile_lines = false;
    bool audit = false;
    unsigned fuzz = 0;  ///< 0 == grid mode
    std::uint64_t fuzz_seed = 1;
    std::vector<std::string> overrides;
    std::string out_path;
    std::string baseline_path;
    std::string compare_path;
    double tolerance = 0.05;
    bool trace = false;
    bool telemetry = false;
    bool telemetry_host_timing = false;
    std::string trace_categories = "all";
    std::string trace_out = "traces";
    std::uint64_t trace_capacity = 0;         ///< 0 == library default
    std::uint64_t trace_sample_interval = 0;  ///< 0 == library default
    bool trace_sample_interval_set = false;
    bool host_stats = true;
    bool quiet = false;
    bool list_presets = false;
    bool list_workloads = false;
    bool list_overrides = false;
};

void
usage()
{
    std::puts(
        "usage: carve-sweep [options]\n"
        "\n"
        "grid selection:\n"
        "  --presets a,b,... | all   presets to run (default: the\n"
        "                            Figure 13 set)\n"
        "  --fig13                   alias for the Figure 13 preset\n"
        "                            grid (1-GPU, NUMA-GPU, +Repl-RO,\n"
        "                            CARVE-HWC, Ideal)\n"
        "  --workloads a,b,... | all workloads (default: all 20)\n"
        "  --seeds n,m,...           trace seeds (default: 1)\n"
        "\n"
        "configuration:\n"
        "  --scale N                 capacity divisor (default 8)\n"
        "  --duration X              trace-length multiplier\n"
        "                            (default 0.2)\n"
        "  --set key=value           config override (repeatable)\n"
        "  --profile-lines           line-granularity sharing stats\n"
        "\n"
        "auditing:\n"
        "  --audit                   run every grid point with the\n"
        "                            carve-audit conservation checker\n"
        "                            (a violation fails the run)\n"
        "  --fuzz N                  instead of a grid, draw N random\n"
        "                            valid configs x workloads from\n"
        "                            the override registry and run\n"
        "                            them short and audited\n"
        "  --fuzz-seed S             fuzz campaign seed (default 1)\n"
        "\n"
        "execution:\n"
        "  --threads N               sweep worker threads, i.e. how\n"
        "                            many runs execute concurrently\n"
        "                            (0 = all cores; default 0)\n"
        "  --engine serial|parallel  intra-run engine: per-GPU event\n"
        "                            domains executed serially or on\n"
        "                            a thread pool (default serial;\n"
        "                            sugar for --set engine=...)\n"
        "  --sim-threads N           worker threads per run when\n"
        "                            --engine parallel (sugar for\n"
        "                            --set sim_threads=N); results\n"
        "                            are byte-identical at any value\n"
        "  --max-cycles N            per-run cycle watchdog\n"
        "                            (default 1e9; 0 = unlimited)\n"
        "  --max-wall-seconds S      per-run wall watchdog\n"
        "                            (default off)\n"
        "  --server SOCKET           submit runs to a carve-served\n"
        "                            daemon instead of simulating\n"
        "                            in-process (falls back to local\n"
        "                            execution if unreachable);\n"
        "                            repeated identical runs come\n"
        "                            back from the daemon's result\n"
        "                            cache without re-simulating;\n"
        "                            --trace jobs are refused\n"
        "\n"
        "telemetry:\n"
        "  --telemetry               record latency histograms (MSHR\n"
        "                            park/miss lifetimes, link queue\n"
        "                            delay, remote-read latency) and\n"
        "                            engine self-profiling counters\n"
        "                            into the stat tree; deterministic\n"
        "                            across --sim-threads values\n"
        "  --telemetry-host-timing   also time parallel-engine barrier\n"
        "                            waits with the host clock\n"
        "                            (implies --telemetry; makes the\n"
        "                            engine.barrier_wait_ns stats\n"
        "                            host-dependent)\n"
        "\n"
        "tracing:\n"
        "  --trace                   write one Chrome trace-event\n"
        "                            JSON timeline per run (open in\n"
        "                            Perfetto / chrome://tracing)\n"
        "  --trace-categories a,b    category mask: sm, cache, rdc,\n"
        "                            dram, link, coherence, kernel,\n"
        "                            audit, all (default all)\n"
        "  --trace-out DIR           trace directory (default\n"
        "                            'traces', created if missing)\n"
        "  --trace-capacity N        ring capacity in events\n"
        "                            (default 1M; overflow drops\n"
        "                            oldest-first)\n"
        "  --trace-sample-interval N cycles between counter samples\n"
        "                            (default 1000; 0 disables)\n"
        "\n"
        "results:\n"
        "  --out FILE                write JSON results\n"
        "  --no-host-stats           omit sim.wall_seconds and\n"
        "                            sim.peak_rss_bytes so results\n"
        "                            are byte-reproducible\n"
        "  --baseline FILE           gate against FILE; candidate is\n"
        "                            this sweep, or --compare FILE\n"
        "  --compare FILE            diff --baseline vs FILE without\n"
        "                            running anything\n"
        "  --tolerance T             relative gate (default 0.05)\n"
        "\n"
        "misc:\n"
        "  --list                    list presets and workloads\n"
        "  --list-presets            list preset names only\n"
        "  --list-workloads          list workload names only\n"
        "  --list-overrides          list every --set key with its\n"
        "                            default value\n"
        "  --quiet                   suppress per-run progress\n"
        "  --help                    this text\n");
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        const std::string tok = s.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!tok.empty())
            out.push_back(tok);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        const std::uint64_t out = std::stoull(v, &used);
        if (used == v.size())
            return out;
    } catch (...) {
    }
    fatal("%s: expected an unsigned integer, got '%s'",
          flag.c_str(), v.c_str());
}

double
parseDouble(const std::string &flag, const std::string &v)
{
    try {
        std::size_t used = 0;
        const double out = std::stod(v, &used);
        if (used == v.size())
            return out;
    } catch (...) {
    }
    fatal("%s: expected a number, got '%s'", flag.c_str(),
          v.c_str());
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
        } else if (a == "--presets") {
            cli.presets = splitList(need(i, "--presets"));
        } else if (a == "--fig13") {
            cli.presets = {"1-GPU", "NUMA-GPU", "NUMA-GPU+Repl-RO",
                           "CARVE-HWC", "Ideal-NUMA-GPU"};
        } else if (a == "--workloads") {
            cli.workloads = splitList(need(i, "--workloads"));
        } else if (a == "--seeds") {
            cli.seeds.clear();
            for (const auto &s : splitList(need(i, "--seeds")))
                cli.seeds.push_back(parseU64("--seeds", s));
            if (cli.seeds.empty())
                fatal("--seeds: empty list");
        } else if (a == "--scale") {
            cli.scale = static_cast<unsigned>(
                parseU64("--scale", need(i, "--scale")));
        } else if (a == "--duration") {
            cli.duration =
                parseDouble("--duration", need(i, "--duration"));
            cli.duration_set = true;
        } else if (a == "--audit") {
            cli.audit = true;
        } else if (a == "--fuzz") {
            cli.fuzz = static_cast<unsigned>(
                parseU64("--fuzz", need(i, "--fuzz")));
            if (cli.fuzz == 0)
                fatal("--fuzz: expected a positive count");
        } else if (a == "--fuzz-seed") {
            cli.fuzz_seed =
                parseU64("--fuzz-seed", need(i, "--fuzz-seed"));
        } else if (a == "--threads") {
            cli.threads = static_cast<unsigned>(
                parseU64("--threads", need(i, "--threads")));
        } else if (a == "--engine") {
            // Sugar for the registered config override, so the
            // choice lands in results metadata and served job keys
            // exactly like any other --set.
            cli.overrides.push_back("engine=" +
                                    need(i, "--engine"));
        } else if (a == "--sim-threads") {
            cli.overrides.push_back(
                "sim_threads=" +
                std::to_string(parseU64("--sim-threads",
                                        need(i, "--sim-threads"))));
        } else if (a == "--max-cycles") {
            cli.max_cycles =
                parseU64("--max-cycles", need(i, "--max-cycles"));
        } else if (a == "--max-wall-seconds") {
            cli.max_wall_seconds = parseDouble(
                "--max-wall-seconds", need(i, "--max-wall-seconds"));
        } else if (a == "--server") {
            cli.server_path = need(i, "--server");
        } else if (a == "--set") {
            cli.overrides.push_back(need(i, "--set"));
        } else if (a == "--profile-lines") {
            cli.profile_lines = true;
        } else if (a == "--telemetry") {
            cli.telemetry = true;
        } else if (a == "--telemetry-host-timing") {
            cli.telemetry = true;
            cli.telemetry_host_timing = true;
        } else if (a == "--trace") {
            cli.trace = true;
        } else if (a == "--trace-categories") {
            cli.trace_categories = need(i, "--trace-categories");
        } else if (a == "--trace-out") {
            cli.trace_out = need(i, "--trace-out");
        } else if (a == "--trace-capacity") {
            cli.trace_capacity = parseU64("--trace-capacity",
                                          need(i, "--trace-capacity"));
            if (cli.trace_capacity == 0)
                fatal("--trace-capacity: expected a positive count");
        } else if (a == "--trace-sample-interval") {
            cli.trace_sample_interval =
                parseU64("--trace-sample-interval",
                         need(i, "--trace-sample-interval"));
            cli.trace_sample_interval_set = true;
        } else if (a == "--no-host-stats") {
            cli.host_stats = false;
        } else if (a == "--out") {
            cli.out_path = need(i, "--out");
        } else if (a == "--baseline") {
            cli.baseline_path = need(i, "--baseline");
        } else if (a == "--compare") {
            cli.compare_path = need(i, "--compare");
        } else if (a == "--tolerance") {
            cli.tolerance =
                parseDouble("--tolerance", need(i, "--tolerance"));
        } else if (a == "--list") {
            cli.list_presets = true;
            cli.list_workloads = true;
        } else if (a == "--list-presets") {
            cli.list_presets = true;
        } else if (a == "--list-workloads") {
            cli.list_workloads = true;
        } else if (a == "--list-overrides") {
            cli.list_overrides = true;
        } else if (a == "--quiet") {
            cli.quiet = true;
        } else {
            fatal("unknown flag '%s' (see --help)", a.c_str());
        }
    }
    return cli;
}

/** Per-run progress printer: status line plus elapsed wall time and a
 * running ETA extrapolated from the mean time per finished run. */
std::function<void(std::size_t, std::size_t, const RunResult &)>
makeProgress()
{
    const auto start = std::chrono::steady_clock::now();
    return [start](std::size_t done, std::size_t total,
                   const RunResult &r) {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const double eta = done == 0
            ? 0.0
            : elapsed / static_cast<double>(done) *
                static_cast<double>(total - done);
        std::fprintf(stderr,
                     "[%zu/%zu] %-8s %s (%.2fs) "
                     "[elapsed %.1fs, eta %.1fs]\n",
                     done, total, runStatusName(r.status),
                     r.key().c_str(), r.wall_seconds, elapsed, eta);
    };
}

/**
 * Execute @p specs on a carve-served daemon: submit ahead as far as
 * the server's queue allows, then collect records in spec order so
 * the assembled results (and any --out file) are byte-identical to
 * in-process execution. nullopt when the daemon is unreachable.
 */
std::optional<std::vector<RunResult>>
runViaServer(const std::vector<RunSpec> &specs, const CliOptions &cli)
{
    auto client = service::Client::connect(cli.server_path);
    if (!client)
        return std::nullopt;

    std::fprintf(stderr,
                 "carve-sweep: %zu runs via carve-served at %s "
                 "(%u server thread(s))\n",
                 specs.size(), cli.server_path.c_str(),
                 client->serverThreads());

    const auto progress = cli.quiet
        ? std::function<void(std::size_t, std::size_t,
                             const RunResult &)>{}
        : makeProgress();

    std::vector<std::string> ids(specs.size());
    std::vector<RunResult> results(specs.size());
    std::size_t next_submit = 0;  ///< first spec not yet submitted
    std::size_t next_fetch = 0;   ///< first spec not yet collected

    while (next_fetch < specs.size()) {
        // Submit ahead until the grid is in or the queue pushes back.
        while (next_submit < specs.size()) {
            const service::SubmitReply reply = client->submit(
                service::jobFromRunSpec(specs[next_submit]));
            if (reply.ok) {
                ids[next_submit] = reply.id;
                ++next_submit;
                continue;
            }
            if (!reply.retriable) {
                fatal("carve-sweep: server rejected %s: %s",
                      specs[next_submit].key().c_str(),
                      reply.error.c_str());
            }
            if (next_fetch < next_submit)
                break;  // queue full: drain one of ours first
            // Queue full with nothing of ours outstanding: another
            // client owns the queue; wait for it to drain a little.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }

        service::ResultReply res = client->result(ids[next_fetch]);
        if (!res.ok) {
            fatal("carve-sweep: server lost %s: %s",
                  specs[next_fetch].key().c_str(),
                  res.error.c_str());
        }
        results[next_fetch] = std::move(res.run);
        // Server-side execution time; 0 for cache hits. Display
        // only -- wall time is never serialised into results files.
        results[next_fetch].wall_seconds = res.wall_seconds;
        ++next_fetch;
        if (progress)
            progress(next_fetch, specs.size(),
                     results[next_fetch - 1]);
    }
    return results;
}

/** Run @p specs via --server when set (with in-process fallback),
 * locally otherwise. @p telemetry (may be null) is filled only for
 * local execution — served runs burn their wall time daemon-side. */
std::vector<RunResult>
executeSpecs(const std::vector<RunSpec> &specs, const CliOptions &cli,
             SweepTelemetry *telemetry)
{
    if (!cli.server_path.empty()) {
        auto served = runViaServer(specs, cli);
        if (served)
            return std::move(*served);
        warn("carve-sweep: no carve-served daemon at '%s'; "
             "running in-process",
             cli.server_path.c_str());
    }
    SweepOptions sweep;
    sweep.threads = cli.threads;
    sweep.telemetry = telemetry;
    if (!cli.quiet)
        sweep.on_progress = makeProgress();
    return runSweep(specs, sweep);
}

/** Render harness telemetry as the flat "harness" results member
 * (dotted keys, mirroring the flattened stat-tree spelling). */
json::Value
harnessJson(const SweepTelemetry &t)
{
    json::Members m;
    for (std::size_t w = 0; w < t.workers.size(); ++w) {
        const std::string prefix =
            "worker." + std::to_string(w) + ".";
        m.emplace_back(prefix + "jobs_run",
                       json::Value{t.workers[w].jobs_run});
        m.emplace_back(prefix + "numa_node",
                       json::Value{t.workers[w].numa_node});
    }
    const telemetry::Histogram &h = t.job_wall_us;
    m.emplace_back("job_wall_us.count", json::Value{h.count()});
    m.emplace_back("job_wall_us.max", json::Value{h.max()});
    m.emplace_back("job_wall_us.p50", json::Value{h.percentile(50)});
    m.emplace_back("job_wall_us.p95", json::Value{h.percentile(95)});
    m.emplace_back("job_wall_us.p99", json::Value{h.percentile(99)});
    m.emplace_back("job_wall_us.sum", json::Value{h.sum()});
    return json::Value{std::move(m)};
}

int
compareMode(const CliOptions &cli)
{
    const auto baseline =
        resultsFromJson(readResultsFile(cli.baseline_path));
    const auto candidate =
        resultsFromJson(readResultsFile(cli.compare_path));
    const CompareReport rep =
        compareResults(baseline, candidate, cli.tolerance);
    std::fputs(formatCompareReport(rep, cli.tolerance).c_str(),
               stdout);
    if (rep.compared_runs == 0) {
        std::fprintf(stderr,
                     "carve-sweep: error: '%s' and '%s' have no runs "
                     "in common; nothing was compared\n",
                     cli.baseline_path.c_str(),
                     cli.compare_path.c_str());
        return 1;
    }
    return rep.hasRegression() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli = parseArgs(argc, argv);

    if (cli.list_overrides) {
        // Each line is a ready-made --set argument carrying the
        // Table III default for that key.
        for (const auto &ov : SystemConfig{}.toOverrides())
            std::printf("%s=%s\n", ov.key.c_str(),
                        ov.value.c_str());
        return 0;
    }

    if (cli.list_presets || cli.list_workloads) {
        // With a single --list-* flag, print bare names (one per
        // line, shell-friendly); --list keeps the headed format.
        const bool both = cli.list_presets && cli.list_workloads;
        if (cli.list_presets) {
            if (both)
                std::puts("presets:");
            for (const Preset p : allPresets())
                std::printf(both ? "  %s\n" : "%s\n", presetName(p));
        }
        if (cli.list_workloads) {
            if (both)
                std::puts("workloads:");
            for (const auto &n : suiteNames())
                std::printf(both ? "  %s\n" : "%s\n", n.c_str());
        }
        return 0;
    }

    if (!cli.compare_path.empty()) {
        if (cli.baseline_path.empty())
            fatal("--compare requires --baseline");
        return compareMode(cli);
    }

    // Read the baseline up-front: a missing or unparsable file must
    // fail the invocation immediately, not after the whole sweep has
    // been simulated.
    std::vector<RunResult> baseline;
    if (!cli.baseline_path.empty()) {
        baseline =
            resultsFromJson(readResultsFile(cli.baseline_path));
        if (baseline.empty())
            fatal("--baseline: '%s' contains no runs to gate "
                  "against", cli.baseline_path.c_str());
    }

    // ---- fuzz mode -------------------------------------------------
    if (cli.fuzz > 0) {
        FuzzOptions fopt;
        fopt.count = cli.fuzz;
        fopt.seed = cli.fuzz_seed;
        fopt.memory_scale = cli.scale;
        if (cli.duration_set)
            fopt.duration = cli.duration;
        fopt.max_cycles = cli.max_cycles;
        if (cli.max_wall_seconds > 0.0)
            fopt.max_wall_seconds = cli.max_wall_seconds;

        const std::vector<FuzzSpec> fuzzes = makeFuzzSpecs(fopt);
        std::fprintf(stderr,
                     "carve-sweep: fuzz campaign, %u audited runs "
                     "(seed %llu); reproduce any line with --presets/"
                     "--workloads/--seeds/--set --audit:\n",
                     cli.fuzz,
                     static_cast<unsigned long long>(cli.fuzz_seed));
        std::vector<RunSpec> specs;
        specs.reserve(fuzzes.size());
        for (const FuzzSpec &f : fuzzes) {
            std::fprintf(stderr, "  %s\n", f.describe().c_str());
            specs.push_back(f.spec);
            specs.back().host_stats = cli.host_stats;
        }

        SweepTelemetry fuzz_telemetry;
        const std::vector<RunResult> results = executeSpecs(
            specs, cli,
            cli.host_stats ? &fuzz_telemetry : nullptr);

        unsigned bad = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok()) {
                ++bad;
                std::fprintf(stderr,
                             "carve-sweep: fuzz failure: %s: %s (%s)\n",
                             fuzzes[i].describe().c_str(),
                             runStatusName(results[i].status),
                             results[i].error.c_str());
            }
        }

        if (!cli.out_path.empty()) {
            SweepMeta meta;
            meta.memory_scale = cli.scale;
            meta.duration = fopt.duration;
            for (const FuzzSpec &f : fuzzes)
                for (const std::string &o : f.overrides)
                    meta.overrides.push_back(o);
            if (cli.host_stats && !fuzz_telemetry.workers.empty())
                meta.harness = harnessJson(fuzz_telemetry);
            writeResultsFile(cli.out_path,
                             sweepToJson(meta, results));
            std::fprintf(stderr,
                         "carve-sweep: wrote %s (%zu runs)\n",
                         cli.out_path.c_str(), results.size());
        }
        return bad ? 1 : 0;
    }

    // ---- build the grid -------------------------------------------
    SuiteOptions suite;
    suite.memory_scale = cli.scale;
    suite.duration = cli.duration;

    std::vector<Preset> presets;
    if (cli.presets.empty() ||
        (cli.presets.size() == 1 && cli.presets[0] == "all")) {
        if (cli.presets.empty()) {
            // Default: the Figure 13 headline grid.
            presets = {Preset::SingleGpu, Preset::NumaGpu,
                       Preset::NumaGpuReplRO, Preset::CarveHwc,
                       Preset::Ideal};
        } else {
            presets = allPresets();
        }
    } else {
        for (const auto &name : cli.presets)
            presets.push_back(parsePresetName(name));
    }

    std::vector<WorkloadParams> workloads;
    if (cli.workloads.empty() ||
        (cli.workloads.size() == 1 && cli.workloads[0] == "all")) {
        workloads = standardSuite(suite);
    } else {
        for (const auto &name : cli.workloads)
            workloads.push_back(suiteWorkload(name, suite));
    }

    SystemConfig base = SystemConfig{}.scaled(cli.scale);
    for (const auto &ov : cli.overrides) {
        const std::size_t eq = ov.find('=');
        if (eq == std::string::npos)
            fatal("--set: expected key=value, got '%s'", ov.c_str());
        base.applyOverride(ov.substr(0, eq), ov.substr(eq + 1));
    }

    RunOptions opts;
    opts.max_cycles = cli.max_cycles;
    opts.max_wall_seconds = cli.max_wall_seconds;
    opts.profile_lines = cli.profile_lines;
    opts.audit = cli.audit;
    opts.telemetry.enabled = cli.telemetry;
    opts.telemetry.host_timing = cli.telemetry_host_timing;

    if (cli.trace) {
        opts.trace.enabled = true;
        opts.trace.categories =
            trace::parseCategoryList(cli.trace_categories);
        opts.trace.out_dir = cli.trace_out;
        if (cli.trace_capacity != 0)
            opts.trace.buffer_capacity = cli.trace_capacity;
        if (cli.trace_sample_interval_set)
            opts.trace.sample_interval = cli.trace_sample_interval;
        std::error_code ec;
        std::filesystem::create_directories(cli.trace_out, ec);
        if (ec) {
            fatal("--trace-out: cannot create '%s': %s",
                  cli.trace_out.c_str(), ec.message().c_str());
        }
    }

    std::vector<RunSpec> specs =
        expandGrid(presets, workloads, cli.seeds, base, opts);
    for (RunSpec &s : specs)
        s.host_stats = cli.host_stats;

    // ---- execute ---------------------------------------------------
    std::fprintf(stderr,
                 "carve-sweep: %zu runs (%zu presets x %zu workloads "
                 "x %zu seeds), %u thread(s)\n",
                 specs.size(), presets.size(), workloads.size(),
                 cli.seeds.size(),
                 cli.threads == 0 ? ThreadPool::hardwareThreads()
                                  : cli.threads);

    SweepTelemetry sweep_telemetry;
    const std::vector<RunResult> results = executeSpecs(
        specs, cli, cli.host_stats ? &sweep_telemetry : nullptr);

    unsigned bad = 0;
    for (const auto &r : results) {
        if (!r.ok()) {
            ++bad;
            std::fprintf(stderr, "carve-sweep: %s: %s (%s)\n",
                         r.key().c_str(), runStatusName(r.status),
                         r.error.c_str());
        }
    }

    // ---- report ----------------------------------------------------
    SweepMeta meta;
    meta.memory_scale = cli.scale;
    meta.duration = cli.duration;
    meta.overrides = cli.overrides;
    // Worker-load facts are host-dependent, so they ride the same
    // opt-out as sim.wall_seconds: --no-host-stats keeps results
    // byte-reproducible. Served sweeps leave the record empty.
    if (cli.host_stats && !sweep_telemetry.workers.empty())
        meta.harness = harnessJson(sweep_telemetry);
    const json::Value doc = sweepToJson(meta, results);

    if (!cli.out_path.empty()) {
        writeResultsFile(cli.out_path, doc);
        std::fprintf(stderr, "carve-sweep: wrote %s (%zu runs)\n",
                     cli.out_path.c_str(), results.size());
    } else {
        // No file requested: emit the document on stdout (progress
        // goes to stderr, so piping stays clean).
        std::fputs(doc.dump().c_str(), stdout);
    }

    int status = bad ? 1 : 0;
    if (!cli.baseline_path.empty()) {
        const CompareReport rep =
            compareResults(baseline, results, cli.tolerance);
        std::fputs(formatCompareReport(rep, cli.tolerance).c_str(),
                   stdout);
        if (rep.compared_runs == 0) {
            std::fprintf(stderr,
                         "carve-sweep: error: no run in '%s' matches "
                         "this sweep; the gate compared nothing\n",
                         cli.baseline_path.c_str());
            status = 1;
        } else if (rep.hasRegression()) {
            status = 1;
        }
    }
    return status;
}
