/** @file Unit tests for SystemConfig: Table III defaults, scaling,
 * overrides and validation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "common/units.hh"

namespace carve {
namespace {

TEST(Config, TableIIIDefaults)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.num_gpus, 4u);
    EXPECT_EQ(cfg.core.sms_per_gpu, 64u);          // 256 total
    EXPECT_EQ(cfg.core.max_warps_per_sm, 64u);
    EXPECT_EQ(cfg.page_size, 2 * MiB);
    EXPECT_EQ(cfg.line_size, 128u);
    EXPECT_EQ(cfg.l1.size, 128 * KiB);
    EXPECT_EQ(cfg.l1.ways, 4u);
    EXPECT_EQ(cfg.l2.size, 8 * MiB);               // 32 MB total
    EXPECT_EQ(cfg.l2.ways, 16u);
    EXPECT_EQ(cfg.dram.capacity, 32 * GiB);        // 128 GB total
    EXPECT_DOUBLE_EQ(cfg.localDramBw(), 1024.0);   // 1 TB/s
    EXPECT_DOUBLE_EQ(cfg.link.gpu_gpu_bw, 64.0);   // 64 GB/s
    EXPECT_DOUBLE_EQ(cfg.link.cpu_gpu_bw, 32.0);   // 32 GB/s
    EXPECT_EQ(cfg.rdc.size, 2 * GiB);
    EXPECT_FALSE(cfg.rdc.enabled);
}

TEST(Config, DefaultsValidate)
{
    SystemConfig cfg;
    cfg.validate();  // must not exit
}

TEST(Config, ScaledDividesCapacitiesOnly)
{
    SystemConfig cfg;
    SystemConfig s = cfg.scaled(8);
    EXPECT_EQ(s.l1.size, cfg.l1.size / 8);
    EXPECT_EQ(s.l2.size, cfg.l2.size / 8);
    EXPECT_EQ(s.rdc.size, cfg.rdc.size / 8);
    EXPECT_EQ(s.dram.capacity, cfg.dram.capacity / 8);
    // Bandwidths, counts and latencies untouched.
    EXPECT_DOUBLE_EQ(s.link.gpu_gpu_bw, cfg.link.gpu_gpu_bw);
    EXPECT_EQ(s.core.sms_per_gpu, cfg.core.sms_per_gpu);
    EXPECT_EQ(s.page_size, cfg.page_size);
    EXPECT_EQ(s.line_size, cfg.line_size);
    s.validate();
}

TEST(Config, LinesPerPage)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.linesPerPage(), 2 * MiB / 128);
}

TEST(Config, ApplyOverrideNumeric)
{
    SystemConfig cfg;
    cfg.applyOverride("num_gpus", "8");
    cfg.applyOverride("rdc.size", "1073741824");
    cfg.applyOverride("link.gpu_gpu_bw", "32.0");
    EXPECT_EQ(cfg.num_gpus, 8u);
    EXPECT_EQ(cfg.rdc.size, 1 * GiB);
    EXPECT_DOUBLE_EQ(cfg.link.gpu_gpu_bw, 32.0);
}

TEST(Config, ApplyOverrideEnumsAndBools)
{
    SystemConfig cfg;
    cfg.applyOverride("rdc.enabled", "true");
    cfg.applyOverride("rdc.coherence", "software");
    cfg.applyOverride("numa.replication", "readonly");
    cfg.applyOverride("numa.placement", "roundrobin");
    cfg.applyOverride("numa.migration", "on");
    EXPECT_TRUE(cfg.rdc.enabled);
    EXPECT_EQ(cfg.rdc.coherence, RdcCoherence::Software);
    EXPECT_EQ(cfg.numa.replication, ReplicationPolicy::ReadOnly);
    EXPECT_EQ(cfg.numa.placement, PlacementPolicy::RoundRobin);
    EXPECT_TRUE(cfg.numa.migration);
}

TEST(ConfigDeathTest, UnknownOverrideKeyIsFatal)
{
    SystemConfig cfg;
    EXPECT_EXIT(cfg.applyOverride("bogus.key", "1"),
                ::testing::ExitedWithCode(1), "unknown override");
}

TEST(Config, EveryListedOverrideKeyIsAccepted)
{
    // The registry contract: the enumerated key set IS the accepted
    // key set. Feed each key its own serialized value back;
    // applyOverride on an unknown key would exit fatally.
    SystemConfig cfg;
    const std::vector<std::string> keys =
        SystemConfig::listOverrideKeys();
    const std::vector<ConfigOverride> ovs = cfg.toOverrides();
    ASSERT_EQ(keys.size(), ovs.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i], ovs[i].key);
        cfg.applyOverride(ovs[i].key, ovs[i].value);
    }
    // A serialize-apply loop of defaults must change nothing.
    EXPECT_EQ(cfg.num_gpus, SystemConfig{}.num_gpus);
    EXPECT_DOUBLE_EQ(cfg.dram.channel_bw,
                     SystemConfig{}.dram.channel_bw);
}

TEST(Config, ListedKeysCoverEveryLegacyKey)
{
    // Keys the pre-registry applyOverride() accepted must survive
    // the table migration.
    const std::vector<std::string> keys =
        SystemConfig::listOverrideKeys();
    const auto has = [&](const char *k) {
        return std::find(keys.begin(), keys.end(), k) != keys.end();
    };
    for (const char *k :
         {"num_gpus", "seed", "page_size", "line_size",
          "core.sms_per_gpu", "core.max_warps_per_sm", "l1.size",
          "l2.size", "l2.ways", "dram.capacity", "dram.channels",
          "dram.channel_bw", "link.gpu_gpu_bw", "link.cpu_gpu_bw",
          "link.latency", "rdc.enabled", "rdc.size",
          "rdc.coherence", "rdc.write_policy", "rdc.hit_predictor",
          "numa.placement", "numa.replication", "numa.migration",
          "numa.migration_threshold", "numa.spill_fraction",
          "numa.llc_caches_remote", "numa.charge_bulk_transfers"}) {
        EXPECT_TRUE(has(k)) << k;
    }
}

TEST(Config, OverridesRoundTripExactly)
{
    // Mutate one field of every kind (integer, double, bool, all
    // four enums), serialize, apply onto a default config, and
    // compare the re-serialization: byte-identical or the registry
    // getters/setters disagree.
    SystemConfig a;
    a.num_gpus = 8;
    a.dram.channel_bw = 47.62515;  // not exactly representable
    a.numa.spill_fraction = 0.1;
    a.rdc.enabled = true;
    a.rdc.size = 96 * MiB;
    a.rdc.write_policy = RdcWritePolicy::WriteBack;
    a.rdc.coherence = RdcCoherence::Software;
    a.numa.placement = PlacementPolicy::RoundRobin;
    a.numa.replication = ReplicationPolicy::ReadOnly;
    a.numa.charge_bulk_transfers = true;

    SystemConfig b;
    for (const ConfigOverride &ov : a.toOverrides())
        b.applyOverride(ov.key, ov.value);

    const auto sa = a.toOverrides();
    const auto sb = b.toOverrides();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].key, sb[i].key);
        EXPECT_EQ(sa[i].value, sb[i].value) << sa[i].key;
    }
    EXPECT_EQ(b.num_gpus, 8u);
    EXPECT_DOUBLE_EQ(b.dram.channel_bw, 47.62515);
    EXPECT_EQ(b.rdc.write_policy, RdcWritePolicy::WriteBack);
}

TEST(Config, EnumNamesParseBack)
{
    for (const auto p :
         {PlacementPolicy::FirstTouch, PlacementPolicy::RoundRobin,
          PlacementPolicy::LocalOnly})
        EXPECT_EQ(parsePlacementPolicy(placementPolicyName(p)), p);
    for (const auto p :
         {ReplicationPolicy::None, ReplicationPolicy::ReadOnly,
          ReplicationPolicy::All})
        EXPECT_EQ(parseReplicationPolicy(replicationPolicyName(p)),
                  p);
    for (const auto c :
         {RdcCoherence::None, RdcCoherence::Software,
          RdcCoherence::HardwareVI})
        EXPECT_EQ(parseRdcCoherence(rdcCoherenceName(c)), c);
    for (const auto p :
         {RdcWritePolicy::WriteThrough, RdcWritePolicy::WriteBack})
        EXPECT_EQ(parseRdcWritePolicy(rdcWritePolicyName(p)), p);
}

TEST(ConfigDeathTest, GarbageValueIsFatal)
{
    SystemConfig cfg;
    EXPECT_EXIT(cfg.applyOverride("num_gpus", "four"),
                ::testing::ExitedWithCode(1), "cannot parse");
}

TEST(ConfigDeathTest, ValidationCatchesBadGeometry)
{
    SystemConfig cfg;
    cfg.line_size = 100;  // not a power of two
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "line_size");
}

TEST(ConfigDeathTest, ValidationCatchesOversizedRdc)
{
    SystemConfig cfg;
    cfg.rdc.enabled = true;
    cfg.rdc.size = cfg.dram.capacity;  // no room for OS memory
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "carve-out");
}

TEST(ConfigDeathTest, ValidationCatchesZeroRdcMshrEntries)
{
    SystemConfig cfg;
    cfg.rdc.enabled = true;
    cfg.applyOverride("rdc.mshr_entries", "0");
    // The error must name the override key the user has to fix.
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "rdc.mshr_entries");
}

TEST(ConfigDeathTest, ValidationCatchesZeroCacheMshrs)
{
    SystemConfig cfg;
    cfg.applyOverride("l1.mshrs", "0");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "l1.mshrs");
}

TEST(ConfigDeathTest, ValidationCatchesBadSpill)
{
    SystemConfig cfg;
    cfg.numa.spill_fraction = 1.5;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "spill_fraction");
}

TEST(ConfigDeathTest, ScaledRequiresPowerOfTwo)
{
    SystemConfig cfg;
    EXPECT_EXIT((void)cfg.scaled(3), ::testing::ExitedWithCode(1),
                "power of two");
}

// The alias is a std::string, not a const char *: gtest prints a pointer
// parameter with its address, which ctest then bakes into the test name,
// so the name would change with every build.
using PolicyAlias = std::pair<std::string, ReplicationPolicy>;

class PolicyParseTest : public ::testing::TestWithParam<PolicyAlias>
{
};

TEST_P(PolicyParseTest, ParsesAliases)
{
    EXPECT_EQ(parseReplicationPolicy(GetParam().first),
              GetParam().second);
}

INSTANTIATE_TEST_SUITE_P(
    Aliases, PolicyParseTest,
    ::testing::Values(PolicyAlias("none", ReplicationPolicy::None),
                      PolicyAlias("readonly", ReplicationPolicy::ReadOnly),
                      PolicyAlias("read-only", ReplicationPolicy::ReadOnly),
                      PolicyAlias("RO", ReplicationPolicy::ReadOnly),
                      PolicyAlias("all", ReplicationPolicy::All),
                      PolicyAlias("IDEAL", ReplicationPolicy::All)));

TEST(Config, ParsePlacementAliases)
{
    EXPECT_EQ(parsePlacementPolicy("ft"), PlacementPolicy::FirstTouch);
    EXPECT_EQ(parsePlacementPolicy("first-touch"),
              PlacementPolicy::FirstTouch);
    EXPECT_EQ(parsePlacementPolicy("rr"), PlacementPolicy::RoundRobin);
    EXPECT_EQ(parsePlacementPolicy("local"),
              PlacementPolicy::LocalOnly);
}

TEST(Config, ParseCoherenceAliases)
{
    EXPECT_EQ(parseRdcCoherence("none"), RdcCoherence::None);
    EXPECT_EQ(parseRdcCoherence("swc"), RdcCoherence::Software);
    EXPECT_EQ(parseRdcCoherence("hwvi"), RdcCoherence::HardwareVI);
    EXPECT_EQ(parseRdcCoherence("hardware"), RdcCoherence::HardwareVI);
}

} // namespace
} // namespace carve
