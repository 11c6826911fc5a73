/** @file Tests for the unified metrics registry: the flattened view
 * and its lookup pair, deterministic ordering, sample guards and
 * wildcard matching, on hand-built trees and a live system. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "core/multi_gpu_system.hh"
#include "core/report.hh"
#include "core/system_preset.hh"
#include "sim_test_util.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace {

using test::miniConfig;
using test::miniWorkload;

// ---- lookup --------------------------------------------------------

TEST(StatsRegistry, DottedNameLookupFindsNestedStats)
{
    stats::Scalar hits, misses;
    stats::Average delay;

    stats::StatGroup root("");
    stats::StatGroup gpu0("gpu0", &root);
    stats::StatGroup l2("l2", &gpu0);
    l2.addScalar("hits", &hits);
    l2.addScalar("misses", &misses);
    l2.addAverage("delay", &delay);
    EXPECT_EQ(l2.fullName(), "gpu0.l2");

    hits += 7;
    misses += 3;

    const auto flat = stats::flattenStats(root);
    ASSERT_NE(stats::lookup(flat, "gpu0.l2.hits"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "gpu0.l2.hits")->u64, 7u);
    EXPECT_EQ(stats::lookup(flat, "gpu0.l2.misses")->u64, 3u);
    EXPECT_NE(stats::lookup(flat, "gpu0.l2.delay.count"), nullptr);

    // Flattening a subtree keeps the full dotted names.
    const auto sub = stats::flattenStats(gpu0);
    ASSERT_NE(stats::lookup(sub, "gpu0.l2.hits"), nullptr);
    EXPECT_EQ(stats::lookup(sub, "gpu0.l2.hits")->u64, 7u);
    EXPECT_EQ(stats::lookup(sub, "l2.hits"), nullptr);

    // Groups and partial names are not entries.
    EXPECT_EQ(stats::lookup(flat, "gpu0.l2"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "gpu0.l2.delay"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "gpu0.l2.nothing"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "gpu1.l2.hits"), nullptr);
}

TEST(StatsRegistry, LookupCoversScalarsAndDerived)
{
    stats::Scalar n;
    stats::StatGroup root("");
    root.addScalar("n", &n);
    root.addDerived("ratio", [&] { return 0.25; });
    root.addDerivedInt("twice", [&] { return n.value() * 2; });

    n += 10;
    const auto flat = stats::flattenStats(root);
    ASSERT_NE(stats::lookup(flat, "n"), nullptr);
    EXPECT_TRUE(stats::lookup(flat, "n")->integral);
    EXPECT_EQ(stats::lookup(flat, "n")->u64, 10u);
    ASSERT_NE(stats::lookup(flat, "ratio"), nullptr);
    EXPECT_FALSE(stats::lookup(flat, "ratio")->integral);
    EXPECT_DOUBLE_EQ(stats::lookup(flat, "ratio")->asDouble(), 0.25);
    ASSERT_NE(stats::lookup(flat, "twice"), nullptr);
    EXPECT_TRUE(stats::lookup(flat, "twice")->integral);
    EXPECT_EQ(stats::lookup(flat, "twice")->u64, 20u);
    EXPECT_EQ(stats::lookup(flat, "absent"), nullptr);
}

TEST(StatsRegistry, LookupFindsFirstLastAndNothingBetween)
{
    const std::vector<stats::FlatStat> flat = {
        {"a.x", true, 1, 0.0},
        {"b.y", true, 2, 0.0},
        {"b.z", false, 0, 2.5},
        {"c", true, 4, 0.0},
    };
    ASSERT_NE(stats::lookup(flat, "a.x"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "a.x"), &flat.front());
    EXPECT_EQ(stats::lookup(flat, "c"), &flat.back());
    EXPECT_EQ(stats::lookup(flat, "b.z"), &flat[2]);

    // Absent names: before the first, after the last, between two
    // entries, and a prefix of an entry.
    EXPECT_EQ(stats::lookup(flat, "a"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "d"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "b.yy"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "b"), nullptr);
    EXPECT_EQ(stats::lookup({}, "a.x"), nullptr);
}

TEST(StatsRegistry, SumMatchingAddsEveryMatchingEntry)
{
    stats::Scalar h0, h1, h12, deep, other;
    stats::StatGroup root("");
    stats::StatGroup g0("gpu0", &root);
    stats::StatGroup g1("gpu1", &root);
    stats::StatGroup g12("gpu12", &root);
    stats::StatGroup cpu("cpu0", &root);
    stats::StatGroup mshrs("mshrs", &g0);
    g0.addScalar("hits", &h0);
    g1.addScalar("hits", &h1);
    g12.addScalar("hits", &h12);
    mshrs.addScalar("hits", &deep);
    cpu.addScalar("hits", &other);
    h0 += 1;
    h1 += 10;
    h12 += 100;
    deep += 1000;
    other += 10000;

    const auto flat = stats::flattenStats(root);
    EXPECT_EQ(stats::sumMatching(flat, "gpu*.hits"), 111u);
    EXPECT_EQ(stats::sumMatching(flat, "*.hits"), 10111u);
    EXPECT_EQ(stats::sumMatching(flat, "gpu0.mshrs.hits"), 1000u);
    EXPECT_EQ(stats::sumMatching(flat, "gpu*.*.hits"), 1000u);
    EXPECT_EQ(stats::sumMatching(flat, "gpu*.misses"), 0u);
    EXPECT_EQ(stats::sumMatching({}, "*"), 0u);
}

// ---- deterministic ordering ----------------------------------------

TEST(StatsRegistry, FlattenIsIndependentOfRegistrationOrder)
{
    stats::Scalar a, b, c;
    stats::Average d;
    a += 1;
    b += 2;
    c += 3;
    d.sample(4.0);

    // Same names, opposite registration orders.
    stats::StatGroup r1("");
    stats::StatGroup g1z("zeta", &r1);
    stats::StatGroup g1a("alpha", &r1);
    g1z.addScalar("beta", &b);
    g1z.addScalar("alpha", &a);
    g1z.addAverage("delay", &d);
    g1a.addScalar("gamma", &c);

    stats::StatGroup r2("");
    stats::StatGroup g2a("alpha", &r2);
    stats::StatGroup g2z("zeta", &r2);
    g2a.addScalar("gamma", &c);
    g2z.addAverage("delay", &d);
    g2z.addScalar("alpha", &a);
    g2z.addScalar("beta", &b);

    const auto f1 = stats::flattenStats(r1);
    const auto f2 = stats::flattenStats(r2);
    ASSERT_EQ(f1.size(), f2.size());
    for (std::size_t i = 0; i < f1.size(); ++i) {
        EXPECT_EQ(f1[i].name, f2[i].name);
        EXPECT_EQ(f1[i].integral, f2[i].integral);
        EXPECT_EQ(f1[i].u64, f2[i].u64);
        EXPECT_EQ(f1[i].dbl, f2[i].dbl);
    }

    // Sorted by full name, across groups and stat kinds.
    std::vector<std::string> names;
    for (const auto &f : f1)
        names.push_back(f.name);
    const std::vector<std::string> expect = {
        "alpha.gamma",       "zeta.alpha",     "zeta.beta",
        "zeta.delay.count",  "zeta.delay.sum",
    };
    EXPECT_EQ(names, expect);
}

TEST(StatsRegistry, FlattenExpandsAverages)
{
    stats::Scalar s;
    stats::Average avg;

    stats::StatGroup root("");
    stats::StatGroup g("g", &root);
    g.addScalar("events", &s);
    g.addAverage("delay", &avg);

    s += 5;
    avg.sample(2.0);
    avg.sample(4.0);

    const auto flat = stats::flattenStats(root);
    ASSERT_FALSE(flat.empty());
    for (std::size_t i = 1; i < flat.size(); ++i)
        EXPECT_LT(flat[i - 1].name, flat[i].name) << "sorted by name";

    const auto find = [&](std::string_view n) {
        return stats::lookup(flat, n);
    };
    ASSERT_NE(find("g.events"), nullptr);
    EXPECT_TRUE(find("g.events")->integral);
    EXPECT_EQ(find("g.events")->u64, 5u);
    ASSERT_NE(find("g.delay.count"), nullptr);
    EXPECT_EQ(find("g.delay.count")->u64, 2u);
    ASSERT_NE(find("g.delay.sum"), nullptr);
    EXPECT_FALSE(find("g.delay.sum")->integral);
    EXPECT_DOUBLE_EQ(find("g.delay.sum")->asDouble(), 6.0);
}

// ---- sample guards -------------------------------------------------

TEST(StatsRegistry, AverageDropsNanAndNegativeSamples)
{
    stats::Average a;
    a.sample(3.0);
    a.sample(std::nan(""));
    a.sample(-1.0);
    a.sample(std::numeric_limits<double>::infinity());
    a.sample(5.0);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 8.0);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(StatsRegistry, ScalarActsLikeCounter)
{
    stats::Scalar s;
    ++s;
    s += 9;
    EXPECT_EQ(s.value(), 10u);
    const std::uint64_t doubled = s + s;  // implicit conversion
    EXPECT_EQ(doubled, 20u);
    s = 3;
    EXPECT_EQ(s.value(), 3u);
}

// ---- wildcard matching ---------------------------------------------

TEST(StatsRegistry, NameMatchingSegmentsAndPrefixes)
{
    using stats::nameMatches;
    EXPECT_TRUE(nameMatches("gpu0.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("*.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("gpu*.l2.hits", "gpu0.l2.hits"));
    EXPECT_TRUE(nameMatches("gpu*.l2.hits", "gpu12.l2.hits"));
    EXPECT_TRUE(nameMatches("link.*.*.bytes", "link.0.3.bytes"));
    EXPECT_TRUE(nameMatches("link.*.*.bytes", "link.cpu.2.bytes"));

    // '*' never spans dots, and segment counts must agree.
    EXPECT_FALSE(nameMatches("gpu*.l2.hits", "gpu0.l2.mshrs.hits"));
    EXPECT_FALSE(nameMatches("*.hits", "gpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu*.l2.hits", "cpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu0.l2", "gpu0.l2.hits"));
    EXPECT_FALSE(nameMatches("gpu0.l2.hits", "gpu0.l2"));
}

// ---- live system ---------------------------------------------------

TEST(StatsRegistry, SystemRegistryMatchesSummaryFields)
{
    const WorkloadParams p =
        miniWorkload(RegionKind::InterleavedStream, 0.2);
    SyntheticWorkload wl(p, 128, 1);
    const SystemConfig cfg =
        makePreset(Preset::CarveHwc, miniConfig());
    MultiGpuSystem sys(cfg, wl);
    sys.run();
    ASSERT_TRUE(sys.finished());

    const SimResult r = collectResult(sys, "mini", "CARVE-HWC");
    const auto flat = stats::flattenStats(sys.stats());

    // The summary fields are derived from the registry; spot-check
    // that direct lookups agree (the registry really is the single
    // source of truth, not a parallel bookkeeping path).
    ASSERT_NE(stats::lookup(flat, "sim.cycles"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "sim.cycles")->u64, r.cycles);
    EXPECT_EQ(stats::sumMatching(flat, "gpu*.traffic.remote_reads"),
              r.traffic.remote_reads.value());
    ASSERT_NE(stats::lookup(flat, "numa.migrations"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "numa.migrations")->u64,
              r.migrations);
    // The result carries the same flattened tree.
    ASSERT_EQ(r.stat_tree.size(), flat.size());
    for (std::size_t i = 0; i < flat.size(); ++i)
        EXPECT_EQ(r.stat_tree[i].name, flat[i].name);
    EXPECT_GT(r.stat_tree.size(), 100u)
        << "every component must contribute stats";
}

} // namespace
} // namespace carve
