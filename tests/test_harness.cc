/** @file Tests for the experiment harness: JSON model, parallel
 * sweep determinism, per-run failure isolation, watchdog surfacing,
 * the baseline regression gate, results-file provenance and clean
 * exits on malformed results files. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "harness/json.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "sim_test_util.hh"

namespace carve {
namespace harness {
namespace {

using test::miniConfig;
using test::miniWorkload;

class HarnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogQuiet(true); }
    void TearDown() override { setLogQuiet(false); }
};

RunSpec
miniSpec(Preset preset, const std::string &name,
         std::uint64_t seed = 1)
{
    RunSpec s;
    s.preset = preset;
    s.workload = miniWorkload(RegionKind::SharedStream, 0.1);
    s.workload.name = name;
    s.base = miniConfig();
    s.opts.seed = seed;
    s.opts.max_cycles = 50'000'000;
    // Byte-compare tests below need results that are a pure function
    // of the specs; host wall/RSS stats would differ per execution.
    s.host_stats = false;
    return s;
}

std::vector<RunSpec>
miniGrid()
{
    std::vector<RunSpec> specs;
    for (const Preset p :
         {Preset::SingleGpu, Preset::NumaGpu, Preset::CarveHwc}) {
        for (const std::uint64_t seed : {1ull, 7ull})
            specs.push_back(miniSpec(p, "wl", seed));
    }
    return specs;
}

// ---- json ----------------------------------------------------------

TEST_F(HarnessTest, JsonRoundTrip)
{
    json::Value o{json::Members{}};
    o.set("str", "a \"quoted\"\nline");
    o.set("int", std::int64_t{-42});
    o.set("big", std::uint64_t{1} << 53);
    o.set("dbl", 0.1);
    o.set("flag", true);
    o.set("nothing", nullptr);
    json::Value arr{json::Array{}};
    arr.push(1);
    arr.push(2.5);
    o.set("arr", std::move(arr));

    const std::string text = o.dump();
    const json::Value back = json::parse(text, "test");
    EXPECT_EQ(back.at("str").asString(), "a \"quoted\"\nline");
    EXPECT_EQ(back.at("int").asInt(), -42);
    EXPECT_EQ(back.at("big").asInt(), std::int64_t{1} << 53);
    EXPECT_DOUBLE_EQ(back.at("dbl").asDouble(), 0.1);
    EXPECT_TRUE(back.at("flag").asBool());
    EXPECT_TRUE(back.at("nothing").isNull());
    EXPECT_EQ(back.at("arr").asArray().size(), 2u);
    // Deterministic serialisation: dump(parse(dump(x))) == dump(x).
    EXPECT_EQ(back.dump(), text);
}

TEST_F(HarnessTest, JsonParseErrorsAreCatchable)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(json::parse("{\"a\": }", "bad"), SimAbortError);
    EXPECT_THROW(json::parse("[1, 2", "bad"), SimAbortError);
    EXPECT_THROW(json::parse("true false", "bad"), SimAbortError);
}

TEST_F(HarnessTest, DeeplyNestedInputFailsCleanly)
{
    ScopedErrorCapture capture;
    // Unbounded recursion used to overflow the stack on this line.
    EXPECT_THROW(json::parse(std::string(100'000, '['), "deep"),
                 SimAbortError);

    const auto nested = [](unsigned depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_TRUE(json::parse(nested(json::kMaxDepth), "deep").isArray());
    try {
        json::parse(nested(json::kMaxDepth + 1), "deep");
        ADD_FAILURE() << "nesting past kMaxDepth parsed";
    } catch (const SimAbortError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "offset 256: nesting too deep"),
                  std::string::npos)
            << e.what();
    }
    // Objects count toward the same limit.
    std::string objects;
    for (unsigned i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"k\":";
    objects += "1" + std::string(json::kMaxDepth + 1, '}');
    EXPECT_THROW(json::parse(objects, "deep"), SimAbortError);
}

TEST_F(HarnessTest, StringEscapesRoundTrip)
{
    // Escapes at either end, back to back and between long runs, and
    // every character class dump() escapes or passes through.
    const std::vector<std::string> strings = {
        "",
        "plain",
        "\"",
        "\\",
        "\"quoted\"",
        "a\\b\\\\c",
        "line\nfeed\r\ttab\n",
        std::string("nul\0byte", 8),
        "\x01\x1f",
        "caf\xc3\xa9 \xe4\xb8\xad",
        std::string(100, 'x') + "\n" + std::string(100, 'y'),
    };
    json::Value arr{json::Array{}};
    for (const auto &str : strings)
        arr.push(str);
    const std::string text = arr.dump(0);
    const json::Value back = json::parse(text, "esc");
    ASSERT_EQ(back.asArray().size(), strings.size());
    for (std::size_t i = 0; i < strings.size(); ++i)
        EXPECT_EQ(back.asArray()[i].asString(), strings[i]) << i;
    EXPECT_EQ(back.dump(0), text);

    // \u escapes decode to UTF-8; '/' and the short escapes decode too.
    const json::Value u = json::parse(
        R"(["\u0041\u00e9\u4e2d", "a\/b", "\b\f", "x\u001Fy"])", "u");
    EXPECT_EQ(u.asArray()[0].asString(), "A\xc3\xa9\xe4\xb8\xad");
    EXPECT_EQ(u.asArray()[1].asString(), "a/b");
    EXPECT_EQ(u.asArray()[2].asString(), "\b\f");
    EXPECT_EQ(u.asArray()[3].asString(), "x\x1fy");
    EXPECT_EQ(json::parse(u.dump(0), "u").dump(0), u.dump(0));

    // Malformed strings name the offset and the reason.
    ScopedErrorCapture capture;
    const std::pair<const char *, const char *> bad[] = {
        {"\"abc", "offset 4: unterminated string"},
        {"\"ab\\", "offset 4: unterminated escape"},
        {"\"\\q\"", "offset 3: bad escape character"},
        {"\"\\u12G4\"", "offset 6: bad \\u escape"},
        {"\"\\u12", "offset 3: bad \\u escape"},
    };
    for (const auto &[input, message] : bad) {
        try {
            json::parse(input, "bad");
            ADD_FAILURE() << input << " parsed";
        } catch (const SimAbortError &e) {
            EXPECT_NE(std::string(e.what()).find(message),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST_F(HarnessTest, PresetNameParsing)
{
    EXPECT_EQ(parsePresetName("CARVE-HWC"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("carvehwc"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("carve"), Preset::CarveHwc);
    EXPECT_EQ(parsePresetName("1-GPU"), Preset::SingleGpu);
    EXPECT_EQ(parsePresetName("Ideal-NUMA-GPU"), Preset::Ideal);
    ScopedErrorCapture capture;
    EXPECT_THROW(parsePresetName("nonsense"), SimAbortError);
}

// ---- sweep determinism (satellite a) -------------------------------

TEST_F(HarnessTest, SerialAndParallelSweepsProduceIdenticalJson)
{
    const std::vector<RunSpec> specs = miniGrid();

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;

    const auto r1 = runSweep(specs, serial);
    const auto r4 = runSweep(specs, parallel);
    ASSERT_EQ(r1.size(), specs.size());
    ASSERT_EQ(r4.size(), specs.size());

    SweepMeta meta;
    meta.git_version = "test";  // pin so the docs are comparable
    const std::string j1 = sweepToJson(meta, r1).dump();
    const std::string j4 = sweepToJson(meta, r4).dump();
    EXPECT_EQ(j1, j4) << "parallel sweep must serialise "
                         "byte-identically to serial";

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(r1[i].key(), specs[i].key())
            << "results must keep spec order";
        EXPECT_EQ(r1[i].status, RunStatus::Ok);
        EXPECT_GT(r1[i].sim.cycles, 0u);
    }
}

// ---- failure isolation (satellite b) -------------------------------

TEST_F(HarnessTest, PanickingRunIsIsolatedAndSiblingsComplete)
{
    std::vector<RunSpec> specs = miniGrid();
    // Inject a run whose configuration fails validation deep inside
    // MultiGpuSystem construction: fatal() must become a Failed
    // result, not process death.
    RunSpec bad = miniSpec(Preset::CarveHwc, "bad");
    bad.base.line_size = 100;  // not a power of two -> validate() fatals
    specs.insert(specs.begin() + 2, bad);

    SweepOptions opt;
    opt.threads = 4;
    const auto results = runSweep(specs, opt);
    ASSERT_EQ(results.size(), specs.size());

    EXPECT_EQ(results[2].status, RunStatus::Failed);
    EXPECT_FALSE(results[2].error.empty());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_EQ(results[i].status, RunStatus::Ok)
            << "sibling run " << i << " must be unaffected";
        EXPECT_GT(results[i].sim.cycles, 0u);
    }
}

TEST_F(HarnessTest, WatchdogTripIsSurfacedNotFatal)
{
    RunSpec spec = miniSpec(Preset::NumaGpu, "slow");
    spec.opts.max_cycles = 200;  // far too few to finish
    const RunResult r = executeRun(spec);
    EXPECT_EQ(r.status, RunStatus::Watchdog);
    EXPECT_TRUE(r.sim.watchdog_tripped);
    EXPECT_FALSE(r.error.empty());
}

// ---- baseline compare (satellite c) --------------------------------

std::vector<RunResult>
syntheticResults()
{
    std::vector<RunResult> out;
    for (int i = 0; i < 3; ++i) {
        RunResult r;
        r.preset = "CARVE-HWC";
        r.workload = "wl" + std::to_string(i);
        r.seed = 1;
        r.status = RunStatus::Ok;
        r.sim.cycles = 100'000 + 10'000 * i;
        r.sim.warp_insts = 1'000'000;
        out.push_back(std::move(r));
    }
    return out;
}

TEST_F(HarnessTest, BaselineCompareFlagsRegressionBeyondTolerance)
{
    const auto base = syntheticResults();
    auto cand = base;
    // 10% slowdown on one run: must gate at 5% tolerance.
    cand[1].sim.cycles =
        static_cast<Cycle>(cand[1].sim.cycles * 1.10);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_TRUE(rep.hasRegression());
    ASSERT_FALSE(rep.deltas.empty());
    EXPECT_TRUE(rep.deltas.front().regression);
    EXPECT_EQ(rep.deltas.front().key, "CARVE-HWC/wl1/s1");
    EXPECT_EQ(rep.compared_runs, 3u);
}

TEST_F(HarnessTest, BaselineComparePassesWithinTolerance)
{
    const auto base = syntheticResults();
    auto cand = base;
    // 3% movement stays under a 5% gate.
    cand[0].sim.cycles =
        static_cast<Cycle>(cand[0].sim.cycles * 1.03);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_FALSE(rep.hasRegression());
    EXPECT_EQ(rep.compared_runs, 3u);
}

TEST_F(HarnessTest, BaselineCompareFlagsImprovementWithoutGating)
{
    const auto base = syntheticResults();
    auto cand = base;
    cand[0].sim.cycles =
        static_cast<Cycle>(cand[0].sim.cycles * 0.80);

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_FALSE(rep.hasRegression());
    bool saw_improvement = false;
    for (const auto &d : rep.deltas)
        saw_improvement |= !d.regression;
    EXPECT_TRUE(saw_improvement);
}

TEST_F(HarnessTest, BaselineCompareNamesRegressedStats)
{
    auto base = syntheticResults();
    // Give every run a small stat tree so the comparison has
    // something to diff.
    for (auto &r : base) {
        r.sim.stat_tree = {
            {"gpu0.l2.hits", true, 1000, 0.0},
            {"gpu0.l2.misses", true, 100, 0.0},
            {"numa.migrations", true, 50, 0.0},
        };
    }
    auto cand = base;
    // Slow one run down 10% and double its L2 misses: the report
    // must gate on cycles AND name the miss counter with baseline vs
    // observed values.
    cand[1].sim.cycles =
        static_cast<Cycle>(cand[1].sim.cycles * 1.10);
    cand[1].sim.stat_tree[1].u64 = 200;

    const CompareReport rep = compareResults(base, cand, 0.05);
    EXPECT_TRUE(rep.hasRegression());

    const MetricDelta *stat = nullptr;
    for (const auto &d : rep.deltas)
        if (d.metric == "stat:gpu0.l2.misses")
            stat = &d;
    ASSERT_NE(stat, nullptr)
        << "compare must name the regressed stat";
    EXPECT_TRUE(stat->informational);
    EXPECT_FALSE(stat->regression) << "stat deltas never gate";
    EXPECT_DOUBLE_EQ(stat->baseline, 100.0);
    EXPECT_DOUBLE_EQ(stat->candidate, 200.0);

    // Unchanged stats stay silent.
    for (const auto &d : rep.deltas)
        EXPECT_NE(d.metric, "stat:numa.migrations");

    // The text report shows the stat with both values.
    const std::string text = formatCompareReport(rep, 0.05);
    EXPECT_NE(text.find("gpu0.l2.misses"), std::string::npos);
    EXPECT_NE(text.find("100"), std::string::npos);
    EXPECT_NE(text.find("200"), std::string::npos);
}

TEST_F(HarnessTest, BaselineCompareCapsStatSpam)
{
    auto base = syntheticResults();
    base.resize(1);
    for (int i = 0; i < 20; ++i) {
        base[0].sim.stat_tree.push_back(
            {"s" + std::to_string(i / 10) +
                 ".c" + std::to_string(i % 10),
             true, 100, 0.0});
    }
    std::sort(base[0].sim.stat_tree.begin(),
              base[0].sim.stat_tree.end(),
              [](const stats::FlatStat &a, const stats::FlatStat &b) {
                  return a.name < b.name;
              });
    auto cand = base;
    for (auto &f : cand[0].sim.stat_tree)
        f.u64 = 300;  // every stat triples

    const CompareReport rep = compareResults(base, cand, 0.05);
    unsigned stat_lines = 0;
    for (const auto &d : rep.deltas)
        stat_lines += d.informational;
    EXPECT_LE(stat_lines, 8u) << "per-run stat deltas are capped";
    EXPECT_EQ(stat_lines + rep.suppressed_stats, 20u);
    const std::string text = formatCompareReport(rep, 0.05);
    EXPECT_NE(text.find("not shown"), std::string::npos);
}

TEST_F(HarnessTest, BaselineCompareFlagsMissingAndFailedRuns)
{
    const auto base = syntheticResults();

    auto missing = base;
    missing.pop_back();
    EXPECT_TRUE(compareResults(base, missing, 0.05).hasRegression());

    auto failed = base;
    failed[0].status = RunStatus::Failed;
    EXPECT_TRUE(compareResults(base, failed, 0.05).hasRegression());
}

// ---- results file round trip ---------------------------------------

TEST_F(HarnessTest, ResultsSurviveJsonRoundTrip)
{
    RunSpec spec = miniSpec(Preset::CarveHwc, "round");
    const RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);

    SweepMeta meta;
    meta.memory_scale = 4;
    meta.duration = 0.5;
    meta.git_version = "test";
    const json::Value doc = sweepToJson(meta, {r});
    const auto back =
        resultsFromJson(json::parse(doc.dump(), "roundtrip"));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].key(), r.key());
    EXPECT_EQ(back[0].sim.cycles, r.sim.cycles);
    EXPECT_EQ(back[0].sim.events, r.sim.events);
    EXPECT_EQ(back[0].sim.rdc_hits, r.sim.rdc_hits);
    EXPECT_DOUBLE_EQ(back[0].sim.frac_remote, r.sim.frac_remote);
    EXPECT_EQ(back[0].sim.traffic.remote_reads,
              r.sim.traffic.remote_reads);

    // Round-tripped results must compare clean against themselves.
    const CompareReport rep =
        compareResults({r}, back, 0.0);
    EXPECT_FALSE(rep.hasRegression());
}

TEST_F(HarnessTest, SchemaV2StatTreeSurvivesRoundTrip)
{
    RunSpec spec = miniSpec(Preset::CarveHwc, "v2");
    const RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);
    ASSERT_FALSE(r.sim.stat_tree.empty());

    SweepMeta meta;
    meta.git_version = "test";
    const json::Value doc = sweepToJson(meta, {r});
    EXPECT_EQ(doc.at("schema").asString(), kResultsSchema);

    const auto back =
        resultsFromJson(json::parse(doc.dump(), "v2"));
    ASSERT_EQ(back.size(), 1u);
    const auto &bt = back[0].sim.stat_tree;
    ASSERT_EQ(bt.size(), r.sim.stat_tree.size());
    for (std::size_t i = 0; i < bt.size(); ++i) {
        const auto &orig = r.sim.stat_tree[i];
        EXPECT_EQ(bt[i].name, orig.name);
        EXPECT_EQ(bt[i].integral, orig.integral);
        if (orig.integral)
            EXPECT_EQ(bt[i].u64, orig.u64) << orig.name;
        else
            EXPECT_DOUBLE_EQ(bt[i].dbl, orig.dbl) << orig.name;
    }
}

TEST_F(HarnessTest, MalformedResultsDocumentsFailGracefully)
{
    ScopedErrorCapture capture;
    // Truncated document: the parser must throw, not crash.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [{\"preset\"", "t")),
                 SimAbortError);
    // No runs member at all.
    EXPECT_THROW(resultsFromJson(json::parse("{}", "t")),
                 SimAbortError);
    // runs is not an array.
    EXPECT_THROW(resultsFromJson(json::parse("{\"runs\": 3}", "t")),
                 SimAbortError);
    // A run record that is not an object.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [42]}", "t")),
                 SimAbortError);
    // A run record missing every identity member.
    EXPECT_THROW(resultsFromJson(
                     json::parse("{\"runs\": [{}]}", "t")),
                 SimAbortError);
    // Ill-typed stat members.
    EXPECT_THROW(
        resultsFromJson(json::parse(
            "{\"runs\": [{\"preset\":\"CARVE-HWC\","
            "\"workload\":\"w\",\"seed\":1,\"status\":\"ok\","
            "\"stats\":{\"cycles\":\"nope\"}}]}",
            "t")),
        SimAbortError);
    // stats present but not an object.
    EXPECT_THROW(
        resultsFromJson(json::parse(
            "{\"runs\": [{\"preset\":\"CARVE-HWC\","
            "\"workload\":\"w\",\"seed\":1,\"status\":\"ok\","
            "\"stats\":[]}]}",
            "t")),
        SimAbortError);
}

TEST_F(HarnessTest, MissingAndTruncatedResultsFilesFailGracefully)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(
        readResultsFile(::testing::TempDir() +
                        "no-such-results-file.json"),
        SimAbortError);

    // A results file cut off mid-write must error, not crash or
    // silently gate nothing.
    SweepMeta meta;
    meta.git_version = "test";
    const std::string text =
        sweepToJson(meta, syntheticResults()).dump();
    const std::string path =
        ::testing::TempDir() + "truncated-results.json";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text.substr(0, text.size() * 2 / 3);
    }
    EXPECT_THROW(resultsFromJson(readResultsFile(path)),
                 SimAbortError);
}

TEST_F(HarnessTest, V1FilesWithoutStatTreesStillParse)
{
    RunSpec spec = miniSpec(Preset::NumaGpu, "v1");
    RunResult r = executeRun(spec);
    ASSERT_EQ(r.status, RunStatus::Ok);
    r.sim.stat_tree.clear();  // what a v1 writer would have produced

    SweepMeta meta;
    meta.git_version = "test";
    std::string text = sweepToJson(meta, {r}).dump();
    const std::size_t at = text.find(kResultsSchema);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, std::string(kResultsSchema).size(),
                 kResultsSchemaV1);

    const std::string path = ::testing::TempDir() + "v1-results.json";
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << text;
    }
    const auto back = resultsFromJson(readResultsFile(path));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].sim.cycles, r.sim.cycles);
    EXPECT_TRUE(back[0].sim.stat_tree.empty());
}

// ---- record codec on real records ----------------------------------

/** Every member resultFromJson() restores, compared exactly. */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(resultToJson(a).dump(0), resultToJson(b).dump(0));
    EXPECT_EQ(a.sim.preset, b.sim.preset);
    EXPECT_EQ(a.sim.workload, b.sim.workload);
    EXPECT_EQ(a.sim.watchdog_tripped, b.sim.watchdog_tripped);
    const auto &at = a.sim.stat_tree;
    const auto &bt = b.sim.stat_tree;
    ASSERT_EQ(at.size(), bt.size());
    for (std::size_t i = 0; i < at.size(); ++i) {
        EXPECT_EQ(at[i].name, bt[i].name);
        EXPECT_EQ(at[i].integral, bt[i].integral) << at[i].name;
        EXPECT_EQ(at[i].u64, bt[i].u64) << at[i].name;
        EXPECT_EQ(std::memcmp(&at[i].dbl, &bt[i].dbl, sizeof(double)),
                  0)
            << at[i].name;
    }
}

TEST_F(HarnessTest, RecordCodecIsExactOnRealRecords)
{
    // A small 4-GPU job, and a second run for a two-run document.
    const RunResult r1 = executeRun(miniSpec(Preset::CarveHwc, "codec"));
    const RunResult r2 =
        executeRun(miniSpec(Preset::NumaGpu, "codec", 7));
    ASSERT_EQ(r1.status, RunStatus::Ok);
    ASSERT_EQ(r2.status, RunStatus::Ok);
    ASSERT_EQ(miniConfig().num_gpus, 4u);
    ASSERT_FALSE(r1.sim.stat_tree.empty());

    // One record, in the form the service and its cache store.
    const std::string record = resultToJson(r1).dump(0);
    EXPECT_EQ(json::parse(record, "record").dump(0), record);
    const json::Value kept = json::parse(record, "record");
    const RunResult copied = resultFromJson(kept);
    const RunResult moved = resultFromJson(json::parse(record, "record"));
    expectSameRun(copied, moved);
    EXPECT_EQ(resultToJson(moved).dump(0), record);
    EXPECT_EQ(kept.dump(0), record) << "loading a copy moved from it";

    // A two-run results document, pretty and compact.
    SweepMeta meta;
    meta.git_version = "test";
    const std::string doc_text = sweepToJson(meta, {r1, r2}).dump();
    const json::Value doc = json::parse(doc_text, "doc");
    EXPECT_EQ(doc.dump(), doc_text);
    const std::string compact = doc.dump(0);
    EXPECT_EQ(json::parse(compact, "doc").dump(0), compact);
    const auto runs = resultsFromJson(json::parse(doc_text, "doc"));
    ASSERT_EQ(runs.size(), 2u);
    for (std::size_t i = 0; i < runs.size(); ++i)
        expectSameRun(resultFromJson(doc.at("runs").asArray()[i]),
                      runs[i]);
    expectSameRun(runs[0], moved);

    // A stored record or results file cut short at any 1 KiB
    // boundary must fail to parse, never load a partial tree.
    ScopedErrorCapture capture;
    for (const std::string *text : {&record, &doc_text}) {
        const std::size_t last = text->rfind('}');
        for (std::size_t cut = 1024; cut <= last; cut += 1024) {
            EXPECT_THROW(json::parse(text->substr(0, cut), "cut"),
                         SimAbortError)
                << cut;
        }
    }
}

// ---- provenance ------------------------------------------------------

TEST_F(HarnessTest, GitDescribeIgnoresTheWorkingDirectory)
{
    const std::string here = gitDescribe();

    // A fresh directory outside any repository.
    std::string tmpl = ::testing::TempDir() + "carve-git-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    char cwd[4096];
    ASSERT_NE(getcwd(cwd, sizeof cwd), nullptr);
    ASSERT_EQ(chdir(tmpl.c_str()), 0);
    const std::string elsewhere = gitDescribe();
    ASSERT_EQ(chdir(cwd), 0);
    rmdir(tmpl.c_str());

    EXPECT_FALSE(here.empty());
    EXPECT_EQ(here, elsewhere)
        << "the git field must name the build, not the caller's "
           "directory";
}

// ---- malformed files ---------------------------------------------------

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

TEST_F(HarnessTest, ResultsFileWithNumericSchemaExitsCleanly)
{
    const std::string path =
        ::testing::TempDir() + "numeric-schema-results.json";
    writeFile(path, "{\"schema\": 2, \"runs\": []}");
    EXPECT_EXIT(readResultsFile(path), ::testing::ExitedWithCode(1),
                "member 'schema'");
}

} // namespace
} // namespace harness
} // namespace carve
