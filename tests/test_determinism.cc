/** @file Run-to-run determinism and the SimJob entry point.
 *
 * Repeating a run, or tracing it, must reproduce the stat tree byte
 * for byte. These tests pin that contract, plus the SimJob
 * request-struct API that carve-sweep, the benches and the examples
 * build on.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/simulator.hh"
#include "harness/stats_json.hh"
#include "workloads/suite.hh"

namespace carve {
namespace {

RunOptions
fastOpts()
{
    RunOptions opt;
    opt.profile_lines = true;
    opt.max_cycles = 200'000'000;
    return opt;
}

/** A small but real Figure 8 cell: the remote-traffic breakdown of
 * one suite workload under a preset. */
SimJob
fig08Job(Preset preset)
{
    SuiteOptions suite;
    suite.memory_scale = 32;
    suite.duration = 0.05;
    const SystemConfig base =
        SystemConfig{}.scaled(suite.memory_scale);
    return makePresetJob(preset, base,
                         suiteWorkload("Lulesh", suite), fastOpts());
}

/** Run @p job and serialize the stat tree. */
std::string
statBytes(const SimJob &job)
{
    return harness::statTreeToJson(run(job).stat_tree).dump();
}

TEST(EngineDeterminism, RepeatRunsAreByteIdentical)
{
    const SimJob job = fig08Job(Preset::NumaGpu);
    const std::string first = statBytes(job);
    EXPECT_GT(first.size(), 100u);  // a real tree, not "{}"
    EXPECT_EQ(first, statBytes(job));
}

TEST(EngineDeterminism, TracingOnVsOffIsByteIdentical)
{
    // Tracing must be a pure observer: a traced run (all categories,
    // counters sampled, no file written) and an untraced run of the
    // same job serialize to byte-identical stat trees, with telemetry
    // off and on (one instrumentation pass wires both observers). The
    // buffer holds the whole run: trace.dropped_events differs once
    // the ring overflows.
    for (const bool telemetry : {false, true}) {
        SimJob plain = fig08Job(Preset::CarveHwc);
        plain.options.telemetry.enabled = telemetry;

        SimJob traced = plain;
        traced.options.trace.enabled = true;
        traced.options.trace.categories = trace::all_categories;
        traced.options.trace.buffer_capacity = std::size_t{1} << 21;
        traced.options.trace.sample_interval = 1000;

        EXPECT_EQ(statBytes(plain), statBytes(traced))
            << "telemetry=" << telemetry;
    }
}

// ---- SimJob API ---------------------------------------------------

TEST(SimJob, MakePresetJobFillsEveryField)
{
    SuiteOptions suite;
    suite.memory_scale = 32;
    suite.duration = 0.05;
    const SystemConfig base =
        SystemConfig{}.scaled(suite.memory_scale);
    const WorkloadParams wl = suiteWorkload("Lulesh", suite);

    const SimJob job =
        makePresetJob(Preset::CarveHwc, base, wl, fastOpts());
    EXPECT_EQ(job.preset_label, presetName(Preset::CarveHwc));
    EXPECT_EQ(job.workload.name, wl.name);
    EXPECT_TRUE(job.config.rdc.enabled);  // CARVE preset applied
    EXPECT_EQ(job.options.max_cycles, fastOpts().max_cycles);
}

TEST(SimJob, EngineOverridesResolveIntoTheRun)
{
    // The options override wins over the config field; serial and
    // parallel agree (the deep grid lives in test_engine.cc).
    SimJob job = fig08Job(Preset::NumaGpu);
    job.config.engine = SimEngine::Parallel;
    job.config.sim_threads = 1;
    job.options.engine = SimEngine::Serial;
    const SimResult serial = run(job);

    job.options.engine = SimEngine::Parallel;
    job.options.sim_threads = 1;
    const SimResult parallel = run(job);
    EXPECT_EQ(serial.cycles, parallel.cycles);
    EXPECT_EQ(serial.warp_insts, parallel.warp_insts);
}

TEST(SimJob, EditedJobChangesTheMachine)
{
    SimJob job = fig08Job(Preset::NumaGpu);
    job.preset_label = "numa-slow-link";
    job.config.link.gpu_gpu_bw = 8.0;
    const SimResult slow = run(job);
    const SimResult base = run(fig08Job(Preset::NumaGpu));
    EXPECT_EQ(slow.preset, "numa-slow-link");
    EXPECT_GT(slow.cycles, base.cycles);
}

TEST(SimJob, ResultCarriesEventCount)
{
    const SimResult r = run(fig08Job(Preset::NumaGpu));
    // Every warp instruction takes at least one event, so the engine
    // event counter must dominate the instruction counter.
    EXPECT_GT(r.events, r.warp_insts);
}

} // namespace
} // namespace carve
