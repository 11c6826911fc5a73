/** @file Unit tests for the NUMA runtime: page table, placement,
 * migration, replication, unified memory and the PageManager facade. */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "numa/page_manager.hh"
#include "sim_test_util.hh"

namespace carve {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.num_gpus = 4;
    cfg.dram.capacity = 64 * MiB;  // 32 pages per GPU
    cfg.rdc.enabled = false;
    return cfg;
}

// ---- page table -----------------------------------------------------

TEST(PageTable, EntriesLazilyCreatedUnmapped)
{
    const SystemConfig cfg = smallConfig();
    PageTable t(cfg);
    EXPECT_EQ(t.find(0x1000), nullptr);
    PageEntry &e = t.entry(0x1000);
    EXPECT_EQ(e.home, invalid_node);
    EXPECT_NE(t.find(0x1000), nullptr);
    EXPECT_EQ(t.mappedPages(), 1u);
}

TEST(PageTable, PageOfMasksOffset)
{
    const SystemConfig cfg = smallConfig();
    PageTable t(cfg);
    EXPECT_EQ(t.pageOf(2 * MiB + 12345), 2 * MiB);
    // Same page => same entry.
    t.entry(2 * MiB + 1).home = 3;
    EXPECT_EQ(t.entry(2 * MiB + 2 * MiB - 1).home, 3u);
}

TEST(PageTable, CapacityAccountsRdcCarveOut)
{
    SystemConfig cfg = smallConfig();
    PageTable without(cfg);
    cfg.rdc.enabled = true;
    cfg.rdc.size = 32 * MiB;
    PageTable with(cfg);
    EXPECT_EQ(without.capacityPages(0), 32u);
    EXPECT_EQ(with.capacityPages(0), 16u);
}

TEST(PageTable, CapacityPressureCountsReplicas)
{
    const SystemConfig cfg = smallConfig();
    PageTable t(cfg);
    t.addHomedPage(0);
    t.addHomedPage(1);
    EXPECT_DOUBLE_EQ(t.capacityPressure(), 1.0);
    t.addReplica(2);
    t.addReplica(3);
    EXPECT_DOUBLE_EQ(t.capacityPressure(), 2.0);
    t.removeReplica(2);
    EXPECT_DOUBLE_EQ(t.capacityPressure(), 1.5);
}

TEST(PageTable, LocalAtChecksHomeAndReplicas)
{
    PageEntry e;
    e.home = 1;
    EXPECT_TRUE(e.localAt(1));
    EXPECT_FALSE(e.localAt(2));
    e.replica_mask = 1u << 2;
    EXPECT_TRUE(e.localAt(2));
}

// ---- placement ------------------------------------------------------

TEST(Placement, FirstTouchReturnsToucher)
{
    NumaConfig cfg;
    cfg.placement = PlacementPolicy::FirstTouch;
    Placement p(cfg, 4, 1);
    EXPECT_EQ(p.firstTouch(0, 2), 2u);
    EXPECT_EQ(p.firstTouch(2 * MiB, 0), 0u);
}

TEST(Placement, RoundRobinCycles)
{
    NumaConfig cfg;
    cfg.placement = PlacementPolicy::RoundRobin;
    Placement p(cfg, 4, 1);
    EXPECT_EQ(p.firstTouch(0, 3), 0u);
    EXPECT_EQ(p.firstTouch(0, 3), 1u);
    EXPECT_EQ(p.firstTouch(0, 3), 2u);
    EXPECT_EQ(p.firstTouch(0, 3), 3u);
    EXPECT_EQ(p.firstTouch(0, 3), 0u);
}

TEST(Placement, SpillFractionRoughlyHonored)
{
    NumaConfig cfg;
    cfg.spill_fraction = 0.25;
    Placement p(cfg, 4, 7);
    unsigned spilled = 0;
    const unsigned n = 4000;
    for (unsigned i = 0; i < n; ++i) {
        if (p.firstTouch(static_cast<Addr>(i) * 2 * MiB, 0) ==
                cpu_node)
            ++spilled;
    }
    EXPECT_NEAR(static_cast<double>(spilled) / n, 0.25, 0.03);
}

TEST(Placement, SpillIsDeterministicPerPage)
{
    NumaConfig cfg;
    cfg.spill_fraction = 0.5;
    Placement a(cfg, 4, 7), b(cfg, 4, 7);
    for (unsigned i = 0; i < 100; ++i) {
        const Addr page = static_cast<Addr>(i) * 2 * MiB;
        EXPECT_EQ(a.firstTouch(page, 0) == cpu_node,
                  b.firstTouch(page, 1) == cpu_node);
    }
}

// ---- migration ------------------------------------------------------

struct MigrationFixture : public ::testing::Test
{
    MigrationFixture() : cfg(smallConfig()), table(cfg)
    {
        cfg.numa.migration = true;
        cfg.numa.migration_threshold = 8;
    }

    PageEntry &
    mappedPage(NodeId home)
    {
        PageEntry &e = table.entry(0);
        e.home = home;
        table.addHomedPage(home);
        return e;
    }

    SystemConfig cfg;
    PageTable table;
};

TEST_F(MigrationFixture, DominantRemoteAccessorTriggersMigration)
{
    MigrationEngine m(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    bool migrated = false;
    for (int i = 0; i < 16 && !migrated; ++i) {
        ++e.access_counts[1];
        migrated = m.maybeMigrate(e, 1);
    }
    EXPECT_TRUE(migrated);
    EXPECT_EQ(e.home, 1u);
    EXPECT_EQ(m.migrations(), 1u);
    EXPECT_EQ(table.homedPages(1), 1u);
    EXPECT_EQ(table.homedPages(0), 0u);
    // Counters reset after the move.
    EXPECT_EQ(e.access_counts[1], 0u);
}

TEST_F(MigrationFixture, SharedPageNeverMigrates)
{
    MigrationEngine m(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    // Node 1 and node 2 both hammer the page: neither dominates 4:1.
    for (int i = 0; i < 64; ++i) {
        ++e.access_counts[1];
        ++e.access_counts[2];
        EXPECT_FALSE(m.maybeMigrate(e, 1));
        EXPECT_FALSE(m.maybeMigrate(e, 2));
    }
    EXPECT_EQ(e.home, 0u);
}

TEST_F(MigrationFixture, DisabledPolicyNeverMigrates)
{
    cfg.numa.migration = false;
    MigrationEngine m(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    e.access_counts[1] = 1000;
    EXPECT_FALSE(m.maybeMigrate(e, 1));
}

TEST_F(MigrationFixture, CpuResidentPagesAreUmsProblem)
{
    MigrationEngine m(cfg.numa, table);
    PageEntry &e = table.entry(0);
    e.home = cpu_node;
    e.access_counts[1] = 1000;
    EXPECT_FALSE(m.maybeMigrate(e, 1));
}

// ---- replication ----------------------------------------------------

struct ReplicationFixture : public ::testing::Test
{
    ReplicationFixture() : cfg(smallConfig()), table(cfg)
    {
        cfg.numa.replication = ReplicationPolicy::ReadOnly;
    }

    PageEntry &
    mappedPage(NodeId home)
    {
        PageEntry &e = table.entry(0);
        e.home = home;
        table.addHomedPage(home);
        return e;
    }

    SystemConfig cfg;
    PageTable table;
};

TEST_F(ReplicationFixture, ReadOnlyPageReplicates)
{
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    EXPECT_TRUE(r.maybeReplicate(e, 2));
    EXPECT_TRUE(e.localAt(2));
    EXPECT_EQ(table.replicaPages(2), 1u);
    // Idempotent for an existing replica holder.
    EXPECT_FALSE(r.maybeReplicate(e, 2));
    EXPECT_EQ(r.replications(), 1u);
}

TEST_F(ReplicationFixture, WrittenPageNeverReplicates)
{
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    e.written = true;
    EXPECT_FALSE(r.maybeReplicate(e, 2));
}

TEST_F(ReplicationFixture, WriteCollapsesAllReplicasForever)
{
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    r.maybeReplicate(e, 1);
    r.maybeReplicate(e, 2);
    EXPECT_TRUE(r.onWrite(e, 3));
    EXPECT_EQ(e.replica_mask, 0u);
    EXPECT_TRUE(e.collapsed);
    EXPECT_EQ(table.replicaPages(1), 0u);
    EXPECT_EQ(r.collapses(), 1u);
    // Never replicated again.
    EXPECT_FALSE(r.maybeReplicate(e, 1));
}

TEST_F(ReplicationFixture, CapacityExhaustionSkipsReplication)
{
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    // Fill node 2's memory.
    for (std::uint64_t i = 0; i < table.capacityPages(2); ++i)
        table.addHomedPage(2);
    EXPECT_FALSE(r.maybeReplicate(e, 2));
    EXPECT_EQ(r.capacitySkips(), 1u);
}

TEST_F(ReplicationFixture, AllPolicyReplicatesWrittenPagesToo)
{
    cfg.numa.replication = ReplicationPolicy::All;
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    e.written = true;
    EXPECT_TRUE(r.maybeReplicate(e, 3));
    EXPECT_FALSE(r.onWrite(e, 1));  // ideal never collapses
    EXPECT_TRUE(e.localAt(3));
}

TEST_F(ReplicationFixture, NonePolicyDoesNothing)
{
    cfg.numa.replication = ReplicationPolicy::None;
    ReplicationManager r(cfg.numa, table);
    PageEntry &e = mappedPage(0);
    EXPECT_FALSE(r.maybeReplicate(e, 1));
}

// ---- unified memory -------------------------------------------------

TEST(UnifiedMemory, HotSpilledPageMigratesIn)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.um_migration_threshold = 4;
    PageTable table(cfg);
    UnifiedMemory um(cfg.numa, table);
    PageEntry &e = table.entry(0);
    e.home = cpu_node;
    EXPECT_FALSE(um.onAccess(e, 1));
    EXPECT_FALSE(um.onAccess(e, 1));
    EXPECT_FALSE(um.onAccess(e, 1));
    EXPECT_TRUE(um.onAccess(e, 1));
    EXPECT_EQ(e.home, 1u);
    EXPECT_EQ(um.migrationsIn(), 1u);
    EXPECT_EQ(table.homedPages(1), 1u);
}

TEST(UnifiedMemory, FullGpuMemoryKeepsPageSpilled)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.um_migration_threshold = 1;
    PageTable table(cfg);
    UnifiedMemory um(cfg.numa, table);
    for (std::uint64_t i = 0; i < table.capacityPages(1); ++i)
        table.addHomedPage(1);
    PageEntry &e = table.entry(0);
    e.home = cpu_node;
    EXPECT_FALSE(um.onAccess(e, 1));
    EXPECT_EQ(e.home, cpu_node);
}

// ---- page manager facade --------------------------------------------
//
// The facade is windowed: recordAccess()/route() run mid-window and
// are pure w.r.t. shared state; policy actions (first touch,
// migration, replication, UM pull-in) land at commitWindow().

TEST(PageManager, FirstTouchCommitsAtTheBarrier)
{
    SystemConfig cfg = smallConfig();
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 2, AccessType::Read, 0);
    // Routable immediately via the tentative home...
    EXPECT_EQ(pm.route(0x1000, 2, AccessType::Read, 0), 2u);
    // ...but committed (visible to homeOf/isLocal) only at the barrier.
    EXPECT_EQ(pm.homeOf(0x1000), invalid_node);
    pm.commitWindow(1);
    EXPECT_EQ(pm.homeOf(0x1000), 2u);
    EXPECT_TRUE(pm.isLocal(0x1000, 2));
    EXPECT_EQ(pm.firstTouches(), 1u);
}

TEST(PageManager, RemoteAccessRoutesToHome)
{
    SystemConfig cfg = smallConfig();
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 0, AccessType::Read, 0);
    pm.commitWindow(1);
    pm.recordAccess(0x1000, 3, AccessType::Read, 1);
    EXPECT_EQ(pm.route(0x1000, 3, AccessType::Read, 1), 0u);
}

TEST(PageManager, IdealPolicyMakesEverythingLocal)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.replication = ReplicationPolicy::All;
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 0, AccessType::Write, 0);
    pm.recordAccess(0x1000, 3, AccessType::Write, 0);
    EXPECT_EQ(pm.route(0x1000, 3, AccessType::Write, 0), 3u);
    pm.commitWindow(1);
    EXPECT_EQ(pm.route(0x1000, 3, AccessType::Write, 1), 3u);
}

TEST(PageManager, ReadOnlyReplicationChargesCopyThenGoesLocal)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.replication = ReplicationPolicy::ReadOnly;
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 0, AccessType::Read, 0);
    pm.commitWindow(1);

    // Remote read: serviced at the home this window; the barrier
    // replays it, replicates the page and charges the copy.
    pm.recordAccess(0x1000, 1, AccessType::Read, 1);
    EXPECT_EQ(pm.route(0x1000, 1, AccessType::Read, 1), 0u);
    EventQueue eq;
    test::RecordingFabric fabric(eq);
    pm.commitWindow(2, &fabric);
    ASSERT_EQ(fabric.bulk.size(), 1u);
    EXPECT_EQ(fabric.bulk[0].src, 0u);
    EXPECT_EQ(fabric.bulk[0].dst, 1u);
    EXPECT_EQ(fabric.bulk[0].bytes, cfg.page_size);
    // Replica hit from the next window on.
    EXPECT_EQ(pm.route(0x1000, 1, AccessType::Read, 2), 1u);
}

TEST(PageManager, WriteCollapsesReplicasAndOpensAStallWindow)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.replication = ReplicationPolicy::ReadOnly;
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 0, AccessType::Read, 0);
    pm.commitWindow(1);
    pm.recordAccess(0x1000, 1, AccessType::Read, 1);
    pm.route(0x1000, 1, AccessType::Read, 1);
    pm.commitWindow(2);  // replicate to node 1

    pm.recordAccess(0x1000, 0, AccessType::Write, 2);
    pm.route(0x1000, 0, AccessType::Write, 2);
    pm.commitWindow(3);
    EXPECT_EQ(pm.replication().collapses(), 1u);
    // The shootdown stall is modelled as a ready_at fence.
    const PageEntry *e = pm.table().find(0x1000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ready_at, 3u + cfg.numa.migration_stall);
    // The collapsed replica holder is remote again.
    EXPECT_EQ(pm.route(0x1000, 1, AccessType::Read, 4), 0u);
}

TEST(PageManager, SpilledPageRoutesToCpuThenMigrates)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.spill_fraction = 0.999;  // force the spill path
    cfg.numa.um_migration_threshold = 3;
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 1, AccessType::Read, 0);
    EXPECT_EQ(pm.route(0x1000, 1, AccessType::Read, 0), cpu_node);
    pm.commitWindow(1);
    ASSERT_EQ(pm.homeOf(0x1000), cpu_node);

    // Two more accesses reach the UM threshold at the next barrier:
    // the page is pulled in and the copy charged to the CPU link.
    pm.route(0x1000, 1, AccessType::Read, 1);
    pm.route(0x1000, 1, AccessType::Read, 1);
    EventQueue eq;
    test::RecordingFabric fabric(eq);
    pm.commitWindow(2, &fabric);
    ASSERT_EQ(fabric.bulk.size(), 1u);
    EXPECT_EQ(fabric.bulk[0].src, cpu_node);
    EXPECT_EQ(pm.homeOf(0x1000), 1u);
    EXPECT_EQ(pm.route(0x1000, 1, AccessType::Read, 2), 1u);
}

TEST(PageManager, MigrationMovesHotPrivatePage)
{
    SystemConfig cfg = smallConfig();
    cfg.numa.migration = true;
    cfg.numa.migration_threshold = 4;
    PageManager pm(cfg);
    pm.recordAccess(0x1000, 0, AccessType::Read, 0);
    pm.commitWindow(1);
    for (int i = 0; i < 10; ++i)
        pm.route(0x1000, 2, AccessType::Read, 1);
    EventQueue eq;
    test::RecordingFabric fabric(eq);
    pm.commitWindow(2, &fabric);
    EXPECT_EQ(pm.homeOf(0x1000), 2u);
    EXPECT_EQ(pm.migration().migrations(), 1u);
    EXPECT_EQ(fabric.bulk.size(), 1u);

    // Until the stall fence passes, accesses are serviced at the old
    // home; afterwards at the new one.
    EXPECT_EQ(pm.route(0x1000, 0, AccessType::Read, 10), 0u);
    EXPECT_EQ(pm.route(0x1000, 0, AccessType::Read,
                       2 + cfg.numa.migration_stall),
              2u);
}

} // namespace
} // namespace carve
