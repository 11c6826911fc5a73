/** @file Cycle-level tracer tests.
 *
 * Unit coverage for the ring-buffer sink (wraparound drops oldest
 * first and is accounted), the category machinery (parse + runtime
 * masking), probes (both sinks, mask resolved when wired), the
 * log-observer bridge, and the Chrome trace-event exporter (output
 * parses and carries the registered rows). Plus
 * end-to-end runs through the SimJob API proving a traced simulation
 * emits SM/DRAM/link spans, kernel markers and at least three counter
 * tracks for every GPU, and that telemetry leaves the trace unchanged.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/simulator.hh"
#include "harness/json.hh"
#include "trace/chrome_export.hh"
#include "trace/probe.hh"
#include "trace/trace.hh"
#include "workloads/suite.hh"

namespace carve {
namespace {

trace::Options
smallOpts(std::size_t capacity)
{
    trace::Options opt;
    opt.enabled = true;
    opt.buffer_capacity = capacity;
    return opt;
}

// ---- ring buffer ---------------------------------------------------

TEST(TraceRing, WraparoundDropsOldestFirst)
{
    trace::Session s(smallOpts(4));
    for (int i = 0; i < 6; ++i) {
        s.instant(trace::Category::Sm, trace::makeTrack(1, 1),
                  s.intern("e" + std::to_string(i)),
                  static_cast<Cycle>(10 * i));
    }

    EXPECT_EQ(s.recordedEvents(), 6u);
    EXPECT_EQ(s.droppedEvents(), 2u);
    EXPECT_EQ(s.size(), 4u);

    // e0 and e1 were overwritten; the survivors come back in order.
    std::vector<std::string> names;
    s.forEach([&](const trace::Event &e) {
        names.emplace_back(e.name);
    });
    EXPECT_EQ(names,
              (std::vector<std::string>{"e2", "e3", "e4", "e5"}));
}

TEST(TraceRing, NoDropsBelowCapacity)
{
    trace::Session s(smallOpts(8));
    for (int i = 0; i < 8; ++i)
        s.instant(trace::Category::Sm, 0, "e", i);
    EXPECT_EQ(s.droppedEvents(), 0u);
    EXPECT_EQ(s.size(), 8u);
}

TEST(TraceRing, SpanClampsReversedEndpoints)
{
    trace::Session s(smallOpts(4));
    s.span(trace::Category::Sm, 0, "x", 100, 40);
    s.forEach([](const trace::Event &e) { EXPECT_EQ(e.dur, 0u); });
}

// ---- categories ----------------------------------------------------

TEST(TraceCategories, ParseListBuildsMask)
{
    EXPECT_EQ(trace::parseCategoryList("all"),
              trace::all_categories);
    EXPECT_EQ(trace::parseCategoryList("sm"),
              static_cast<std::uint32_t>(trace::Category::Sm));
    EXPECT_EQ(
        trace::parseCategoryList("sm,dram,link"),
        static_cast<std::uint32_t>(trace::Category::Sm) |
            static_cast<std::uint32_t>(trace::Category::Dram) |
            static_cast<std::uint32_t>(trace::Category::Link));
}

TEST(TraceCategories, ParseListRejectsUnknownNames)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(trace::parseCategoryList("sm,bogus"),
                 SimAbortError);
}

TEST(TraceCategories, ActiveHonoursMaskAndNullSession)
{
    trace::Options opt = smallOpts(4);
    opt.categories =
        static_cast<std::uint32_t>(trace::Category::Dram);
    trace::Session s(opt);

    EXPECT_TRUE(trace::active(&s, trace::Category::Dram));
    EXPECT_FALSE(trace::active(&s, trace::Category::Sm));
    EXPECT_FALSE(trace::active(nullptr, trace::Category::Dram));
}

// ---- probes --------------------------------------------------------

TEST(TraceProbe, FeedsBothSinksAndResolvesTheMaskWhenWired)
{
    using trace::Probe;
    trace::Options opt = smallOpts(16);
    opt.categories = trace::parseCategoryList("cache");
    trace::Session s(opt);
    telemetry::Histogram h;

    const Probe none;
    EXPECT_FALSE(none.on());
    none.span(0, 10);
    none.instant(5);

    const std::uint32_t track = trace::makeTrack(1, 100);
    const Probe both(&s, trace::Category::Cache, track, "l2 miss", &h);
    EXPECT_TRUE(both.on());
    EXPECT_EQ(both.histogram(), &h);
    both.span(10, 25, 0x40);
    both.instant(30, 7);  // instants reach the trace row only
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 15u);

    // A masked category leaves the histogram as the only sink; with
    // no histogram either, nothing listens.
    const Probe masked(&s, trace::Category::Sm, track, "read mem", &h);
    EXPECT_TRUE(masked.on());
    masked.span(40, 44);
    masked.instant(44);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_FALSE(Probe(&s, trace::Category::Sm, track, "x").on());
    EXPECT_FALSE(Probe(nullptr, trace::Category::Cache, track, "x").on());
    EXPECT_TRUE(Probe(&h).on());
    EXPECT_FALSE(Probe(nullptr).on());
    EXPECT_TRUE(Probe(trace::histogramIf(true, h)).on());
    EXPECT_FALSE(Probe(trace::histogramIf(false, h)).on());

    std::vector<trace::Event> evs;
    s.forEach([&](const trace::Event &e) { evs.push_back(e); });
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].kind, trace::EventKind::Span);
    EXPECT_EQ(evs[0].cat, trace::Category::Cache);
    EXPECT_EQ(evs[0].track, track);
    EXPECT_STREQ(evs[0].name, "l2 miss");
    EXPECT_EQ(evs[0].ts, 10u);
    EXPECT_EQ(evs[0].dur, 15u);
    EXPECT_EQ(evs[0].arg, 0x40u);
    EXPECT_EQ(evs[1].kind, trace::EventKind::Instant);
    EXPECT_EQ(evs[1].ts, 30u);
    EXPECT_EQ(evs[1].arg, 7u);
}

// ---- counters and the log bridge -----------------------------------

TEST(TraceCounters, SampleEmitsOneEventPerProbe)
{
    trace::Session s(smallOpts(16));
    double v = 1.5;
    s.defineProcess(2, "gpu1");
    s.addCounter(2, "util", [&v] { return v; });
    s.addCounter(2, "occ", [] { return 7.0; });

    s.sampleCounters(100);
    v = 2.5;
    s.sampleCounters(200);

    std::vector<double> values;
    s.forEach([&](const trace::Event &e) {
        EXPECT_EQ(e.kind, trace::EventKind::Counter);
        values.push_back(e.value);
    });
    EXPECT_EQ(values, (std::vector<double>{1.5, 7.0, 2.5, 7.0}));
}

TEST(TraceLogBridge, ObserverTextMatchesCaptureText)
{
    trace::Session s(smallOpts(8));
    std::string observed;
    std::string captured;
    {
        ScopedLogObserver obs(
            [&](LogLevel, const std::string &msg) { observed = msg; });
        try {
            ScopedErrorCapture capture;
            fatal("boom %d", 42);
        } catch (const SimAbortError &e) {
            captured = e.what();
        }
    }
    EXPECT_EQ(observed, "boom 42");
    EXPECT_EQ(observed, captured);
}

// ---- exporter ------------------------------------------------------

TEST(TraceExport, ChromeJsonParsesAndCarriesRows)
{
    trace::Session s(smallOpts(64));
    s.defineProcess(0, "system");
    s.defineThread(0, 0, "kernels");
    s.defineProcess(1, "gpu0");
    s.defineThread(1, 1, "sm0");
    s.addCounter(1, "util", [] { return 0.5; });

    s.span(trace::Category::Kernel, trace::makeTrack(0, 0),
           "kernel 0", 0, 1000, 0);
    s.span(trace::Category::Sm, trace::makeTrack(1, 1), "read mem",
           10, 60, 4);
    s.instant(trace::Category::Sm, trace::makeTrack(1, 1),
              "mshr_stall", 42, 0xdeadbeef);
    s.sampleCounters(500);

    const std::string text =
        trace::chromeTraceJson(s, {"Lulesh", "CARVE-HWC"});
    const json::Value doc = json::parse(text, "trace");

    EXPECT_EQ(doc.at("otherData").at("workload").asString(),
              "Lulesh");
    EXPECT_EQ(doc.at("otherData").at("recorded_events").asInt(), 4);

    int complete = 0, instants = 0, counters = 0, meta = 0;
    for (const json::Value &ev : doc.at("traceEvents").asArray()) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "X")
            ++complete;
        else if (ph == "i")
            ++instants;
        else if (ph == "C")
            ++counters;
        else if (ph == "M")
            ++meta;
    }
    EXPECT_EQ(complete, 2);
    EXPECT_EQ(instants, 1);
    EXPECT_EQ(counters, 1);
    // 2 process rows + 2 thread rows + the trailing terminator.
    EXPECT_EQ(meta, 5);
}

TEST(TraceExport, EscapesControlCharactersInLabels)
{
    trace::Session s(smallOpts(4));
    s.instantText(trace::Category::Audit, 0,
                  "line1\nline2\t\"quoted\"", 5);
    const std::string text = trace::chromeTraceJson(s);
    const json::Value doc = json::parse(text, "trace");
    bool found = false;
    for (const json::Value &ev : doc.at("traceEvents").asArray()) {
        if (ev.at("ph").asString() == "i") {
            EXPECT_EQ(ev.at("name").asString(),
                      "line1\nline2\t\"quoted\"");
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

// ---- end to end ----------------------------------------------------

/** Read the exported trace at @p path and delete the file. */
std::string
takeTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[65536];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    std::remove(path.c_str());
    return text;
}

SimJob
tracedJob(const std::string &out_path)
{
    SuiteOptions suite;
    suite.memory_scale = 32;
    suite.duration = 0.02;
    const SystemConfig base =
        SystemConfig{}.scaled(suite.memory_scale);
    SimJob job = makePresetJob(Preset::CarveHwc, base,
                               suiteWorkload("Lulesh", suite));
    job.options.max_cycles = 200'000'000;
    job.options.trace.enabled = true;
    job.options.trace.buffer_capacity = 1u << 20;
    job.options.trace.sample_interval = 1000;
    job.options.trace.out_path = out_path;
    return job;
}

TEST(TraceEndToEnd, TracedRunExportsFullTimeline)
{
    const std::string path =
        testing::TempDir() + "carve_e2e.trace.json";
    const SimResult res = run(tracedJob(path));
    EXPECT_GT(res.cycles, 0u);

    const std::string text = takeTraceFile(path);
    ASSERT_FALSE(text.empty());
    const json::Value doc = json::parse(text, "trace");
    EXPECT_EQ(doc.at("otherData").at("preset").asString(),
              "CARVE-HWC");

    std::set<std::string> processes;
    std::set<std::string> span_cats;
    std::set<std::string> counter_names;
    bool kernel_span = false;
    for (const json::Value &ev : doc.at("traceEvents").asArray()) {
        const std::string &ph = ev.at("ph").asString();
        if (ph == "M" &&
            ev.at("name").asString() == "process_name") {
            processes.insert(ev.at("args").at("name").asString());
        } else if (ph == "X") {
            span_cats.insert(ev.at("cat").asString());
            if (ev.at("cat").asString() == "kernel")
                kernel_span = true;
        } else if (ph == "C") {
            counter_names.insert(ev.at("name").asString());
        }
    }

    // One row per GPU plus the system and interconnect processes.
    EXPECT_TRUE(processes.count("system"));
    EXPECT_TRUE(processes.count("gpu0"));
    EXPECT_TRUE(processes.count("gpu3"));
    EXPECT_TRUE(processes.count("interconnect"));

    EXPECT_TRUE(span_cats.count("sm"));
    EXPECT_TRUE(span_cats.count("dram"));
    EXPECT_TRUE(span_cats.count("link"));
    EXPECT_TRUE(span_cats.count("cache"));
    EXPECT_TRUE(kernel_span);

    // At least the three headline counter tracks.
    EXPECT_TRUE(counter_names.count("l2_mshr_occupancy"));
    EXPECT_TRUE(counter_names.count("dram_queue_occupancy"));
    EXPECT_TRUE(counter_names.count("rdc_hit_rate"));
    EXPECT_GE(counter_names.size(), 3u);
}

TEST(TraceEndToEnd, CategoryMaskFiltersComponents)
{
    SimJob job = tracedJob("");
    job.options.trace.out_path.clear();
    job.options.trace.categories =
        trace::parseCategoryList("kernel");
    job.options.trace.sample_interval = 0;

    // Export by hand through a second traced run of the same job to
    // keep this test self-contained: with only the kernel category
    // enabled, no sm/dram/link spans may appear.
    const std::string path =
        testing::TempDir() + "carve_mask.trace.json";
    job.options.trace.out_path = path;
    (void)run(job);

    const std::string text = takeTraceFile(path);
    ASSERT_FALSE(text.empty());
    const json::Value doc = json::parse(text, "trace");
    bool saw_kernel = false;
    for (const json::Value &ev : doc.at("traceEvents").asArray()) {
        if (ev.at("ph").asString() != "X")
            continue;
        const std::string &cat = ev.at("cat").asString();
        EXPECT_EQ(cat, "kernel");
        saw_kernel = true;
    }
    EXPECT_TRUE(saw_kernel);
}

TEST(TraceEndToEnd, TelemetryLeavesTheTraceByteIdentical)
{
    // Trace and telemetry are independent observers that one
    // instrumentation pass wires: turning telemetry on must not add,
    // drop or move a single exported trace event.
    std::string text[2];
    for (const bool telemetry : {false, true}) {
        const std::string path = testing::TempDir() + "carve_telem" +
            std::to_string(telemetry) + ".trace.json";
        SimJob job = tracedJob(path);
        job.options.telemetry.enabled = telemetry;
        (void)run(job);
        text[telemetry] = takeTraceFile(path);
    }
    ASSERT_FALSE(text[0].empty());
    EXPECT_TRUE(text[0] == text[1])
        << "telemetry changed the trace (" << text[0].size() << " vs "
        << text[1].size() << " bytes)";
}

} // namespace
} // namespace carve
