/** @file Unit and system tests for the carve-audit subsystem:
 * in-flight token accounting, cross-stat invariant checks over
 * doctored stat trees reproducing each reverted write-back bugfix,
 * and an end-to-end run proving a leaked MSHR entry is reported. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/audit.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "core/multi_gpu_system.hh"
#include "core/system_preset.hh"
#include "sim_test_util.hh"

namespace carve {
namespace {

using audit::Boundary;

bool
anyContains(const std::vector<std::string> &fails,
            const std::string &needle)
{
    for (const std::string &f : fails)
        if (f.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---- in-flight tokens -----------------------------------------------

TEST(InflightTracker, BalancedTokensPass)
{
    audit::InflightTracker t;
    t.issue(Boundary::DramAccess);
    t.issue(Boundary::DramAccess);
    t.retire(Boundary::DramAccess);
    t.retire(Boundary::DramAccess);
    EXPECT_EQ(t.inflight(Boundary::DramAccess), 0u);
    std::vector<std::string> fails;
    t.check(fails);
    EXPECT_TRUE(fails.empty());
}

TEST(InflightTracker, ImbalanceNamesTheBoundary)
{
    audit::InflightTracker t;
    t.issue(Boundary::RdcFetch);
    t.issue(Boundary::RdcFetch);
    t.retire(Boundary::RdcFetch);
    EXPECT_EQ(t.inflight(Boundary::RdcFetch), 1u);
    std::vector<std::string> fails;
    t.check(fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "rdc_fetch_issued"));
    EXPECT_TRUE(anyContains(fails, "(2)"));
    EXPECT_TRUE(anyContains(fails, "(1)"));
}

TEST(InflightTracker, StatsRegisterUnderBoundaryNames)
{
    audit::InflightTracker t;
    stats::StatGroup root("");
    t.registerStats(root);
    t.issue(Boundary::LinkDelivery);
    const auto flat = stats::flattenStats(root);
    ASSERT_NE(stats::lookup(flat, "link_delivery_issued"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "link_delivery_issued")->u64, 1u);
    ASSERT_NE(stats::lookup(flat, "link_delivery_retired"), nullptr);
    EXPECT_EQ(stats::lookup(flat, "link_delivery_retired")->u64, 0u);
}

// ---- probe conservation ---------------------------------------------

struct CacheStats
{
    stats::Scalar probes, hits, misses, stale;
};

TEST(CheckCacheProbes, ConsistentTreePasses)
{
    stats::StatGroup root("");
    stats::StatGroup l2("l2", &root);
    CacheStats c;
    l2.addScalar("probes", &c.probes);
    l2.addScalar("hits", &c.hits);
    l2.addScalar("misses", &c.misses);
    c.hits = 5;
    c.misses = 3;
    c.probes = 8;
    std::vector<std::string> fails;
    audit::checkCacheProbes(stats::flattenStats(root), fails);
    EXPECT_TRUE(fails.empty());
}

TEST(CheckCacheProbes, LeakedProbeIsFlagged)
{
    stats::StatGroup root("");
    stats::StatGroup gpu("gpu0", &root);
    stats::StatGroup l2("l2", &gpu);
    CacheStats c;
    l2.addScalar("probes", &c.probes);
    l2.addScalar("hits", &c.hits);
    l2.addScalar("misses", &c.misses);
    c.hits = 5;
    c.misses = 3;
    c.probes = 9;  // one probe unaccounted for
    std::vector<std::string> fails;
    audit::checkCacheProbes(stats::flattenStats(root), fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "gpu0.l2.probes"));
    EXPECT_TRUE(anyContains(fails, "(9)"));
}

TEST(CheckCacheProbes, StaleHitsCountWhenRegistered)
{
    stats::StatGroup root("");
    stats::StatGroup alloy("alloy", &root);
    CacheStats c;
    alloy.addScalar("probes", &c.probes);
    alloy.addScalar("hits", &c.hits);
    alloy.addScalar("misses", &c.misses);
    alloy.addScalar("stale_hits", &c.stale);
    c.hits = 2;
    c.misses = 1;
    c.stale = 1;
    c.probes = 4;
    std::vector<std::string> fails;
    audit::checkCacheProbes(stats::flattenStats(root), fails);
    EXPECT_TRUE(fails.empty());
}

// ---- conservation: each reverted bugfix has a signature -------------

/** Doctored per-GPU subtree with just the stats the write-back
 * conservation equations consume. */
struct DoctoredGpu
{
    explicit DoctoredGpu(stats::StatGroup &root)
        : gpu("gpu0", &root), traffic("traffic", &gpu),
          rdc("rdc", &gpu), alloy("alloy", &rdc)
    {
        traffic.addScalar("remote_reads", &remote_reads);
        traffic.addScalar("rdc_hit_reads", &rdc_hit_reads);
        rdc.addScalar("read_misses", &read_misses);
        rdc.addScalar("read_hits", &read_hits);
        rdc.addScalar("writeback_victims", &writeback_victims);
        rdc.addScalar("flush_bytes", &flush_bytes);
        alloy.addScalar("dirty_evictions", &dirty_evictions);
    }

    stats::StatGroup gpu, traffic, rdc, alloy;
    stats::Scalar remote_reads, rdc_hit_reads;
    stats::Scalar read_misses, read_hits;
    stats::Scalar writeback_victims, flush_bytes, dirty_evictions;
};

TEST(CheckConservation, ConsistentPartialTreePasses)
{
    stats::StatGroup root("");
    DoctoredGpu g(root);
    g.remote_reads = 4;
    g.read_misses = 4;
    g.rdc_hit_reads = 7;
    g.read_hits = 7;
    g.dirty_evictions = 2;
    g.writeback_victims = 2;
    std::vector<std::string> fails;
    audit::checkConservation(stats::flattenStats(root), {}, fails);
    EXPECT_TRUE(fails.empty());
}

TEST(CheckConservation, DroppedDirtyVictimIsFlagged)
{
    // Signature of reverting the handleVictim fix: the alloy counts
    // dirty displacements but no write-back ever happens.
    stats::StatGroup root("");
    DoctoredGpu g(root);
    g.dirty_evictions = 3;
    g.writeback_victims = 0;
    std::vector<std::string> fails;
    audit::checkConservation(stats::flattenStats(root), {}, fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "gpu0.rdc.alloy.dirty_evictions"));
    EXPECT_TRUE(anyContains(fails, "gpu0.rdc.writeback_victims"));
}

TEST(CheckConservation, MisclassifiedReadIsFlagged)
{
    stats::StatGroup root("");
    DoctoredGpu g(root);
    g.remote_reads = 4;
    g.read_misses = 3;  // one read classified remote without a miss
    std::vector<std::string> fails;
    audit::checkConservation(stats::flattenStats(root), {}, fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "gpu0.traffic.remote_reads"));
}

TEST(CheckConservation, PhantomFlushIsFlagged)
{
    // Signature of reverting the boundary-flush fix: the controller
    // charges flush bytes that never cross the fabric.
    stats::StatGroup root("");
    DoctoredGpu g(root);
    g.flush_bytes = 4096;
    stats::StatGroup fabric("fabric", &root);
    stats::Scalar fabric_flush;
    fabric.addScalar("flush_bytes", &fabric_flush);  // stays 0
    std::vector<std::string> fails;
    audit::checkConservation(stats::flattenStats(root), {}, fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "fabric.flush_bytes"));
    EXPECT_TRUE(anyContains(fails, "(4096)"));
}

TEST(CheckConservation, OverchargedWriteMessageIsFlagged)
{
    // Signature of reverting the write-classification fix: writes
    // absorbed by a write-back RDC still counted as remote_writes,
    // so the classified writes exceed the fabric's posted messages.
    stats::StatGroup root("");
    DoctoredGpu g(root);
    stats::StatGroup fabric("fabric", &root);
    stats::Scalar read_msgs, write_msgs, cpu_reads, cpu_writes;
    stats::Scalar fflush, coh, bulk_gpu, bulk_cpu;
    fabric.addScalar("remote_read_msgs", &read_msgs);
    fabric.addScalar("remote_write_msgs", &write_msgs);
    fabric.addScalar("cpu_read_msgs", &cpu_reads);
    fabric.addScalar("cpu_write_msgs", &cpu_writes);
    fabric.addScalar("flush_bytes", &fflush);
    fabric.addScalar("coh_ctrl_bytes", &coh);
    fabric.addScalar("bulk_gpu_bytes", &bulk_gpu);
    fabric.addScalar("bulk_cpu_bytes", &bulk_cpu);
    stats::Scalar remote_writes;
    g.traffic.addScalar("remote_writes", &remote_writes);
    remote_writes = 5;  // but fabric.remote_write_msgs stays 0
    std::vector<std::string> fails;
    audit::checkConservation(stats::flattenStats(root), {}, fails);
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(anyContains(fails, "fabric.remote_write_msgs"));
    EXPECT_TRUE(anyContains(fails, "(5)"));
}

// ---- end to end -----------------------------------------------------

TEST(AuditSystem, CleanAuditedRunPasses)
{
    const SystemConfig cfg =
        makePreset(Preset::CarveHwc, test::miniConfig());
    const WorkloadParams p =
        test::miniWorkload(RegionKind::InterleavedStream, 0.2);
    SyntheticWorkload wl(p, cfg.line_size, 1);
    MultiGpuSystem sys(cfg, wl, /* profile */ false, /* audit */ true);
    EXPECT_TRUE(sys.auditEnabled());
    ScopedErrorCapture capture;
    EXPECT_NO_THROW(sys.run());
    EXPECT_TRUE(sys.finished());
    // Token counters are exposed in the tree and balanced.
    const auto flat = stats::flattenStats(sys.stats());
    const stats::FlatStat *issued =
        stats::lookup(flat, "audit.inflight.dram_access_issued");
    const stats::FlatStat *retired =
        stats::lookup(flat, "audit.inflight.dram_access_retired");
    ASSERT_NE(issued, nullptr);
    ASSERT_NE(retired, nullptr);
    EXPECT_GT(issued->u64, 0u);
    EXPECT_EQ(issued->u64, retired->u64);
}

TEST(AuditSystem, WritebackSwcAuditedRunPasses)
{
    SystemConfig cfg = makePreset(Preset::CarveSwc, test::miniConfig());
    cfg.rdc.write_policy = RdcWritePolicy::WriteBack;
    const WorkloadParams p =
        test::miniWorkload(RegionKind::InterleavedStream, 0.3);
    SyntheticWorkload wl(p, cfg.line_size, 1);
    MultiGpuSystem sys(cfg, wl, false, true);
    ScopedErrorCapture capture;
    EXPECT_NO_THROW(sys.run());
    EXPECT_TRUE(sys.finished());
}

TEST(AuditSystem, NonAuditRunRegistersNoAuditStats)
{
    const SystemConfig cfg =
        makePreset(Preset::CarveHwc, test::miniConfig());
    const WorkloadParams p =
        test::miniWorkload(RegionKind::InterleavedStream, 0.2);
    SyntheticWorkload wl(p, cfg.line_size, 1);
    MultiGpuSystem sys(cfg, wl, false);
    EXPECT_FALSE(sys.auditEnabled());
    const auto flat = stats::flattenStats(sys.stats());
    EXPECT_EQ(stats::lookup(flat, "audit.inflight.dram_access_issued"),
              nullptr);
    // The fabric ledger is cheap and always present.
    EXPECT_NE(stats::lookup(flat, "fabric.remote_read_msgs"), nullptr);
}

TEST(AuditSystem, LeakedMshrEntryIsReported)
{
    const SystemConfig cfg =
        makePreset(Preset::CarveHwc, test::miniConfig());
    const WorkloadParams p =
        test::miniWorkload(RegionKind::InterleavedStream, 0.2);
    SyntheticWorkload wl(p, cfg.line_size, 1);
    MultiGpuSystem sys(cfg, wl, false, true);
    // Deliberately strand an L2 MSHR entry on a line far outside the
    // workload footprint: no fill will ever complete it.
    sys.gpu(0).l2Mshrs().allocate(Addr{1} << 40, {});
    ScopedErrorCapture capture;
    try {
        sys.run();
        FAIL() << "audit did not trip on the leaked MSHR entry";
    } catch (const SimAbortError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("carve-audit"), std::string::npos) << msg;
        EXPECT_NE(msg.find("L2 MSHR"), std::string::npos) << msg;
        EXPECT_NE(msg.find("gpu0"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace carve
