/** @file Per-GPU event-domain engine: serial-vs-parallel byte
 * identity over the full preset grid, the conservative lookahead
 * window, worker error propagation, the wall-clock watchdog and
 * sim_threads validation.
 *
 * The contract under test is the PR's headline: SimEngine::Serial and
 * SimEngine::Parallel run the same windowed algorithm, so the entire
 * stat tree — every counter in every component — must serialize to
 * identical bytes at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/domain_engine.hh"
#include "common/logging.hh"
#include "core/simulator.hh"
#include "core/system_preset.hh"
#include "harness/stats_json.hh"
#include "workloads/suite.hh"

namespace carve {
namespace {

/** Suite scale for the grid: small enough that 8 presets x 6
 * workloads x 4 engine configurations stay tier-1 sized. */
SuiteOptions
gridSuite()
{
    SuiteOptions suite;
    suite.memory_scale = 32;
    suite.duration = 0.02;
    return suite;
}

SimJob
gridJob(Preset preset, const std::string &workload)
{
    const SystemConfig base =
        SystemConfig{}.scaled(gridSuite().memory_scale);
    RunOptions opt;
    opt.max_cycles = 200'000'000;
    return makePresetJob(preset, base,
                         suiteWorkload(workload, gridSuite()), opt);
}

std::string
statBytes(const SimJob &job)
{
    return harness::statTreeToJson(run(job).stat_tree).dump();
}

/** Thread counts to exercise, clamped to this host (run() refuses
 * oversubscription) and deduplicated. */
std::vector<unsigned>
threadCounts()
{
    const unsigned hw = std::max(
        1u, std::thread::hardware_concurrency());
    std::set<unsigned> counts;
    for (unsigned n : {1u, 2u, 4u})
        counts.insert(std::min(n, hw));
    return {counts.begin(), counts.end()};
}

TEST(EngineIdentity, SerialVsParallelAcrossThePresetGrid)
{
    // Every preset (all coherence/replication/migration mechanisms)
    // crossed with six workloads spanning the suite's sharing
    // patterns: interleaved false sharing + atomics, read-only
    // lookups, halo exchange, broadcast weights, private streaming,
    // and graph-style skewed atomics.
    const std::vector<Preset> presets = {
        Preset::SingleGpu,        Preset::NumaGpu,
        Preset::NumaGpuMigration, Preset::NumaGpuReplRO,
        Preset::CarveNoCoherence, Preset::CarveSwc,
        Preset::CarveHwc,         Preset::Ideal,
    };
    const std::vector<std::string> workloads = {
        "Lulesh", "MCB", "CoMD", "AlexNet", "stream-triad", "SSSP",
    };
    const std::vector<unsigned> threads = threadCounts();

    for (const Preset preset : presets) {
        for (const std::string &wl : workloads) {
            SimJob job = gridJob(preset, wl);
            job.options.engine = SimEngine::Serial;
            const std::string serial = statBytes(job);
            ASSERT_GT(serial.size(), 100u)
                << presetName(preset) << "/" << wl;

            job.options.engine = SimEngine::Parallel;
            for (const unsigned n : threads) {
                job.options.sim_threads = n;
                EXPECT_EQ(serial, statBytes(job))
                    << presetName(preset) << "/" << wl
                    << " diverged at sim_threads=" << n;
            }
        }
    }
}

TEST(EngineIdentity, MshrSaturatedWakeListsMatchAcrossThreads)
{
    // Tiny MSHR files keep all three wake-lists (L1, L2, RDC) hot:
    // every fill drains parked requests through the owning domain's
    // queue. Wake order must be a pure function of (tick, seq), so
    // the stat tree stays byte-identical at every thread count.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.config.l1.mshrs = 2;
    job.config.l2.mshrs = 4;
    job.config.rdc.mshr_entries = 4;
    job.preset_label = "carve-mshr-sat";

    job.options.engine = SimEngine::Serial;
    const std::string serial = statBytes(job);
    ASSERT_GT(serial.size(), 100u);

    job.options.engine = SimEngine::Parallel;
    for (const unsigned n : threadCounts()) {
        job.options.sim_threads = n;
        EXPECT_EQ(serial, statBytes(job))
            << "wake-list run diverged at sim_threads=" << n;
    }
}

TEST(EngineIdentity, SpillJobWithUnifiedMemoryMatches)
{
    // CPU-resident pages route through the system domain; make sure
    // that path (not exercised by the presets above) is identical too.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.config.numa.spill_fraction = 0.4;
    job.config.numa.um_migration_threshold = 8;
    job.preset_label = "carve-spill";

    job.options.engine = SimEngine::Serial;
    const std::string serial = statBytes(job);
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = threadCounts().back();
    EXPECT_EQ(serial, statBytes(job));
}

// ---- telemetry ----------------------------------------------------

TEST(EngineTelemetry, TelemetryOffIsByteIdenticalToDefault)
{
    // The master switch off must be provably free: the stat tree of
    // a run with an explicit telemetry::Options{} equals one that
    // never mentions telemetry, byte for byte (same guarantee the
    // trace layer makes).
    SimJob plain = gridJob(Preset::CarveHwc, "Lulesh");
    const std::string baseline = statBytes(plain);

    SimJob off = gridJob(Preset::CarveHwc, "Lulesh");
    off.options.telemetry = telemetry::Options{};
    EXPECT_EQ(baseline, statBytes(off));
}

TEST(EngineTelemetry, TelemetryOnIsIdenticalAcrossEnginesAndThreads)
{
    // With host_timing off, every telemetry sample is a pure
    // function of the simulated schedule: histograms (bucket
    // contents and rendered percentiles) must serialize identically
    // for the serial engine and the parallel engine at every thread
    // count, across a preset spread covering the RDC, replication
    // and coherence paths.
    const std::vector<Preset> presets = {
        Preset::NumaGpu, Preset::NumaGpuReplRO, Preset::CarveHwc};
    for (const Preset preset : presets) {
        SimJob job = gridJob(preset, "Lulesh");
        job.options.telemetry.enabled = true;
        job.options.engine = SimEngine::Serial;
        const std::string serial = statBytes(job);
        ASSERT_GT(serial.size(), 100u) << presetName(preset);
        // Telemetry stats actually made it into the tree.
        EXPECT_NE(serial.find("park_duration"), std::string::npos);
        EXPECT_NE(serial.find("engine.windows"), std::string::npos);

        job.options.engine = SimEngine::Parallel;
        for (const unsigned n : threadCounts()) {
            job.options.sim_threads = n;
            EXPECT_EQ(serial, statBytes(job))
                << presetName(preset)
                << " telemetry diverged at sim_threads=" << n;
        }
    }
}

TEST(EngineTelemetry, HostTimingPopulatesBarrierWaitsDeterministicallyNamed)
{
    // host_timing adds samples to engine.barrier_wait_ns (values are
    // wall-clock, so only the name set and count semantics are
    // checkable): parallel runs must record one sample per worker
    // barrier crossing, serial runs keep the histogram registered but
    // empty, and the stat NAME set must not depend on engine,
    // threads, or host_timing — only on telemetry.enabled.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    job.options.telemetry.enabled = true;
    job.options.telemetry.host_timing = true;

    job.options.engine = SimEngine::Serial;
    const SimResult serial = run(job);
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = threadCounts().back();
    const SimResult parallel = run(job);

    const auto names = [](const SimResult &r) {
        std::set<std::string> out;
        for (const auto &st : r.stat_tree)
            out.insert(st.name);
        return out;
    };
    EXPECT_EQ(names(serial), names(parallel));

    const auto statValue = [](const SimResult &r,
                              const std::string &name) {
        for (const auto &st : r.stat_tree) {
            if (st.name == name)
                return st.u64;
        }
        return std::uint64_t{0};
    };
    // The serial engine has no window barriers to wait at.
    EXPECT_EQ(statValue(serial, "engine.barrier_wait_ns.count"), 0u);
    // The parallel engine crosses two barriers (start + done) per
    // window per worker; with real multi-worker execution (a single
    // worker degenerates to the serial loop) and any windows run,
    // the count must be nonzero.
    if (threadCounts().back() > 1 &&
        statValue(parallel, "engine.windows") > 0) {
        EXPECT_GT(statValue(parallel,
                            "engine.barrier_wait_ns.count"),
                  0u);
    }
}

// ---- lookahead window ---------------------------------------------

TEST(DomainEngine, LookaheadWindowTracksMinimumLinkLatency)
{
    SystemConfig cfg;
    cfg.link.latency = 120;
    const Cycle wide = DomainEngine::lookaheadWindow(cfg);
    cfg.link.latency = 10;
    const Cycle narrow = DomainEngine::lookaheadWindow(cfg);
    EXPECT_LT(narrow, wide);
    // The window must cover at least the one-cycle send offset plus
    // the wire latency: an event posted at the last tick of a window
    // can never land inside a window another domain is executing.
    EXPECT_GE(narrow, cfg.link.latency + 1);
    cfg.link.latency = 0;
    EXPECT_GE(DomainEngine::lookaheadWindow(cfg), 1u);
}

// ---- worker errors ------------------------------------------------

/** Engine modes the error tests cover: serial, and parallel with the
 * failing domain on a spawned worker (2 and 3 workers). */
struct ModeCase
{
    SimEngine mode;
    unsigned threads;
};
constexpr ModeCase error_cases[] = {
    {SimEngine::Serial, 1},
    {SimEngine::Parallel, 2},
    {SimEngine::Parallel, 3},
};

/** Run a two-GPU engine whose domain 1 calls fatal() mid-window. */
void
runFailingDomain(const ModeCase &c)
{
    DomainEngine engine(2, 10, c.mode, c.threads);
    engine.queue(1).schedule(5, [] { fatal("boom in domain 1"); });
    engine.run({});
}

TEST(DomainEngine, WorkerErrorIsRethrownWithItsMessage)
{
    for (const ModeCase &c : error_cases) {
        ScopedErrorCapture capture;
        try {
            runFailingDomain(c);
            ADD_FAILURE() << "no error at threads=" << c.threads;
        } catch (const SimAbortError &e) {
            EXPECT_EQ(e.level(), LogLevel::Fatal)
                << "threads=" << c.threads;
            EXPECT_STREQ(e.what(), "boom in domain 1")
                << "threads=" << c.threads;
        }
    }
}

TEST(EngineDeathTest, WorkerFatalExitsWithItsMessage)
{
    for (const ModeCase &c : error_cases) {
        EXPECT_EXIT(runFailingDomain(c), ::testing::ExitedWithCode(1),
                    "boom in domain 1")
            << "threads=" << c.threads;
    }
}

// ---- wall-clock watchdog ------------------------------------------

TEST(EngineWatchdog, WallClockBudgetStopsTheRunEarly)
{
    // A budget far below the run's length trips at the first clock
    // read (after 8192 events on some worker) under either engine.
    SimJob job = gridJob(Preset::CarveHwc, "Lulesh");
    const SimResult full = run(job);
    ASSERT_FALSE(full.watchdog_tripped);

    job.options.max_wall_seconds = 1e-6;
    job.options.tolerate_watchdog = true;
    const ModeCase cases[] = {
        {SimEngine::Serial, 1},
        {SimEngine::Parallel, std::min(2u, threadCounts().back())},
    };
    for (const ModeCase &c : cases) {
        job.options.engine = c.mode;
        job.options.sim_threads = c.threads;
        const SimResult r = run(job);
        EXPECT_TRUE(r.watchdog_tripped) << "threads=" << c.threads;
        EXPECT_LT(r.events, full.events) << "threads=" << c.threads;
    }
}

// ---- sim_threads validation ---------------------------------------

TEST(EngineDeathTest, ZeroSimThreadsIsACleanConfigError)
{
    SimJob job = gridJob(Preset::NumaGpu, "Lulesh");
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = 0;
    EXPECT_EXIT(run(job), ::testing::ExitedWithCode(1),
                "sim_threads must be >= 1");
}

TEST(EngineDeathTest, OversubscribedSimThreadsIsACleanConfigError)
{
    if (std::thread::hardware_concurrency() == 0)
        GTEST_SKIP() << "hardware_concurrency unknown on this host";
    SimJob job = gridJob(Preset::NumaGpu, "Lulesh");
    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = 100000;
    EXPECT_EXIT(run(job), ::testing::ExitedWithCode(1),
                "exceeds this host's");
}

TEST(Config, EngineOverridesRoundTrip)
{
    SystemConfig cfg;
    cfg.applyOverride("engine", "parallel");
    cfg.applyOverride("sim_threads", "4");
    EXPECT_EQ(cfg.engine, SimEngine::Parallel);
    EXPECT_EQ(cfg.sim_threads, 4u);

    bool saw_engine = false, saw_threads = false;
    for (const ConfigOverride &o : cfg.toOverrides()) {
        if (o.key == "engine") {
            saw_engine = true;
            EXPECT_EQ(o.value, "parallel");
        }
        if (o.key == "sim_threads") {
            saw_threads = true;
            EXPECT_EQ(o.value, "4");
        }
    }
    EXPECT_TRUE(saw_engine);
    EXPECT_TRUE(saw_threads);
}

} // namespace
} // namespace carve
