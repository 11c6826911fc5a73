/** @file Tests for the telemetry subsystem: log2 histogram bucket
 * layout, deterministic percentiles, merge-order independence, the
 * domain-sharded histogram's fold discipline, registry integration
 * (flatten naming, lookup), and the Prometheus text renderer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "telemetry/telemetry.hh"

namespace carve {
namespace {

using telemetry::Histogram;

// ---- bucket layout -------------------------------------------------

TEST(TelemetryHistogram, BucketIndexFollowsBitWidth)
{
    // Bucket 0 holds exactly 0; bucket b >= 1 covers
    // [2^(b-1), 2^b - 1].
    EXPECT_EQ(Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Histogram::bucketIndex(1023), 10u);
    EXPECT_EQ(Histogram::bucketIndex(1024), 11u);
    // Everything above 2^62 collapses into the last bucket.
    EXPECT_EQ(Histogram::bucketIndex(std::uint64_t{1} << 62),
              Histogram::num_buckets - 1);
    EXPECT_EQ(Histogram::bucketIndex(~std::uint64_t{0}),
              Histogram::num_buckets - 1);
}

TEST(TelemetryHistogram, BucketBoundsAreInclusivePowersOfTwo)
{
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 1023u);
    // The last bound is clamped below 2^63 so every rendered value
    // fits a JSON (and int64) integer.
    EXPECT_EQ(Histogram::bucketUpperBound(Histogram::num_buckets - 1),
              (std::uint64_t{1} << 63) - 1);
    // Every sample's value is <= the bound of its own bucket.
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
          std::uint64_t{4096}, (std::uint64_t{1} << 62) - 1}) {
        EXPECT_LE(v, Histogram::bucketUpperBound(
                         Histogram::bucketIndex(v)))
            << v;
    }
}

TEST(TelemetryHistogram, SampleTracksCountSumMax)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);

    h.sample(0);
    h.sample(5);
    h.sample(100);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 105u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.buckets()[0], 1u);                       // the 0
    EXPECT_EQ(h.buckets()[Histogram::bucketIndex(5)], 1u);
    EXPECT_EQ(h.buckets()[Histogram::bucketIndex(100)], 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

// ---- percentiles ---------------------------------------------------

TEST(TelemetryHistogram, PercentileIsBucketUpperBoundOfTargetRank)
{
    // 100 samples of 1 and one sample of 1000: p50 must sit in the
    // value-1 bucket, p99+ must reach the outlier's bucket bound.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.sample(1);
    h.sample(1000);
    EXPECT_EQ(h.percentile(50), 1u);
    EXPECT_EQ(h.percentile(95), 1u);
    EXPECT_EQ(h.percentile(100),
              Histogram::bucketUpperBound(
                  Histogram::bucketIndex(1000)));
}

TEST(TelemetryHistogram, PercentileUsesCeilOfRank)
{
    // Two samples: p50 targets ceil(2*50/100) == 1, the first
    // sample's bucket; p51 targets ceil(2*51/100) == 2, the second's.
    Histogram h;
    h.sample(1);
    h.sample(64);
    EXPECT_EQ(h.percentile(50), 1u);
    EXPECT_EQ(h.percentile(51),
              Histogram::bucketUpperBound(Histogram::bucketIndex(64)));
    // p0 clamps its target to rank 1 (the smallest bucket), not 0.
    EXPECT_EQ(h.percentile(0), 1u);
}

// ---- merge ---------------------------------------------------------

TEST(TelemetryHistogram, MergeIsOrderIndependent)
{
    // Three shards with disjoint-ish sample streams, merged in every
    // permutation: identical buckets, count, sum, max, percentiles.
    std::mt19937_64 rng(42);
    std::vector<Histogram> shards(3);
    for (Histogram &s : shards) {
        for (int i = 0; i < 1000; ++i)
            s.sample(rng() % 100000);
    }

    std::vector<unsigned> order = {0, 1, 2};
    Histogram first;
    bool have_first = false;
    do {
        Histogram merged;
        for (const unsigned i : order)
            merged.merge(shards[i]);
        if (!have_first) {
            first = merged;
            have_first = true;
            continue;
        }
        EXPECT_EQ(merged.buckets(), first.buckets());
        EXPECT_EQ(merged.count(), first.count());
        EXPECT_EQ(merged.sum(), first.sum());
        EXPECT_EQ(merged.max(), first.max());
        for (const unsigned pct : {50u, 95u, 99u})
            EXPECT_EQ(merged.percentile(pct), first.percentile(pct));
    } while (std::next_permutation(order.begin(), order.end()));
}

TEST(TelemetryHistogram, MergeEqualsDirectSampling)
{
    // Splitting one stream across shards and merging must be
    // indistinguishable from sampling it all into one histogram.
    Histogram direct, a, b;
    for (std::uint64_t v = 0; v < 500; ++v) {
        direct.sample(v * 37 % 1000);
        ((v & 1) ? a : b).sample(v * 37 % 1000);
    }
    a.merge(b);
    EXPECT_EQ(a.buckets(), direct.buckets());
    EXPECT_EQ(a.sum(), direct.sum());
    EXPECT_EQ(a.max(), direct.max());
}

// ---- sharded histogram ---------------------------------------------

TEST(TelemetrySharded, FoldMergesShardsAndResetsThem)
{
    telemetry::ShardedHistogram sh;

    // Samples from the barrier shard context go straight to the
    // total (single-threaded paths never touch a shard).
    ASSERT_EQ(engine_ctx::current_shard, engine_ctx::barrier_shard);
    sh.sample(7);
    EXPECT_EQ(sh.histogram().count(), 1u);

    // Samples from domain contexts sit in shards until fold().
    engine_ctx::current_shard = 0;
    sh.sample(100);
    engine_ctx::current_shard = 3;
    sh.sample(200);
    engine_ctx::current_shard = engine_ctx::barrier_shard;
    EXPECT_EQ(sh.histogram().count(), 1u);

    sh.fold();
    EXPECT_EQ(sh.histogram().count(), 3u);
    EXPECT_EQ(sh.histogram().sum(), 307u);

    // Folding again must not double-count (shards were reset).
    sh.fold();
    EXPECT_EQ(sh.histogram().count(), 3u);
}

// ---- registry integration ------------------------------------------

TEST(TelemetryStats, HistogramFlattensToSixIntegralEntries)
{
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.sample(16);

    stats::StatGroup root("");
    stats::StatGroup g("gpu0", &root);
    g.addHistogram("park_duration", &h);

    const auto flat = stats::flattenStats(root);
    std::vector<std::string> names;
    for (const auto &st : flat) {
        names.push_back(st.name);
        EXPECT_TRUE(st.integral) << st.name;
    }
    const std::vector<std::string> expect = {
        "gpu0.park_duration.count", "gpu0.park_duration.max",
        "gpu0.park_duration.p50",   "gpu0.park_duration.p95",
        "gpu0.park_duration.p99",   "gpu0.park_duration.sum",
    };
    EXPECT_EQ(names, expect);

    // Values carry the histogram's deterministic rendering.
    EXPECT_EQ(flat[0].u64, 10u);   // count
    EXPECT_EQ(flat[1].u64, 16u);   // max
    EXPECT_EQ(flat[2].u64, 31u);   // p50: bound of bucket for 16
    EXPECT_EQ(flat[5].u64, 160u);  // sum
}

TEST(TelemetryStats, LookupFindsHistogramEntries)
{
    Histogram h;
    h.sample(9);
    stats::StatGroup root("");
    root.addHistogram("lat", &h);
    const auto flat = stats::flattenStats(root);
    ASSERT_NE(stats::lookup(flat, "lat.count"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "lat.count")->u64, 1u);
    EXPECT_EQ(stats::lookup(flat, "lat.max")->u64, 9u);
    EXPECT_EQ(stats::lookup(flat, "lat"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "nope.count"), nullptr);
}

// ---- Prometheus rendering ------------------------------------------

TEST(TelemetryPrometheus, ValueFamilyCarriesHelpTypeSample)
{
    std::string out;
    telemetry::appendPrometheusValue(out, "carve_jobs_queued",
                                     "Jobs waiting.", "gauge", 3.0);
    EXPECT_NE(out.find("# HELP carve_jobs_queued Jobs waiting.\n"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE carve_jobs_queued gauge\n"),
              std::string::npos);
    EXPECT_NE(out.find("carve_jobs_queued 3\n"), std::string::npos);
}

TEST(TelemetryPrometheus, HistogramFamilyIsCumulativeWithInf)
{
    Histogram h;
    h.sample(1);
    h.sample(1);
    h.sample(1000000);

    std::string out;
    telemetry::appendPrometheusHistogram(
        out, "carve_job_latency_seconds", "Run wall time.", h, 1e-6);
    EXPECT_NE(out.find("# TYPE carve_job_latency_seconds histogram"),
              std::string::npos);
    // The +Inf bucket always equals the total count.
    EXPECT_NE(out.find(
                  "carve_job_latency_seconds_bucket{le=\"+Inf\"} 3"),
              std::string::npos);
    EXPECT_NE(out.find("carve_job_latency_seconds_count 3"),
              std::string::npos);
    // Bucket counts are cumulative and nondecreasing in le order.
    std::vector<double> counts;
    std::size_t pos = 0;
    while ((pos = out.find("_bucket{le=", pos)) !=
           std::string::npos) {
        const std::size_t sp = out.find("} ", pos);
        counts.push_back(
            std::strtod(out.c_str() + sp + 2, nullptr));
        pos = sp;
    }
    ASSERT_GE(counts.size(), 2u);
    EXPECT_TRUE(std::is_sorted(counts.begin(), counts.end()));
}

} // namespace
} // namespace carve
