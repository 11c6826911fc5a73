#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>

#include "common/logging.hh"

namespace carve {

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    try {
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(value, &pos, 0);
        if (pos != value.size())
            fatal("config: trailing garbage in %s=%s",
                  key.c_str(), value.c_str());
        return v;
    } catch (...) {
        fatal("config: cannot parse %s=%s as integer",
              key.c_str(), value.c_str());
    }
}

double
parseDouble(const std::string &key, const std::string &value)
{
    try {
        std::size_t pos = 0;
        double v = std::stod(value, &pos);
        if (pos != value.size())
            fatal("config: trailing garbage in %s=%s",
                  key.c_str(), value.c_str());
        return v;
    } catch (...) {
        fatal("config: cannot parse %s=%s as double",
              key.c_str(), value.c_str());
    }
}

bool
parseBool(const std::string &key, const std::string &value)
{
    const std::string v = lower(value);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("config: cannot parse %s=%s as bool",
          key.c_str(), value.c_str());
}

} // namespace

SimEngine
parseSimEngine(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "serial")
        return SimEngine::Serial;
    if (v == "parallel" || v == "par")
        return SimEngine::Parallel;
    fatal("unknown sim engine '%s' (valid: serial, parallel)",
          s.c_str());
}

PlacementPolicy
parsePlacementPolicy(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "firsttouch" || v == "first-touch" || v == "ft")
        return PlacementPolicy::FirstTouch;
    if (v == "roundrobin" || v == "round-robin" || v == "rr")
        return PlacementPolicy::RoundRobin;
    if (v == "local" || v == "localonly")
        return PlacementPolicy::LocalOnly;
    fatal("unknown placement policy '%s'", s.c_str());
}

ReplicationPolicy
parseReplicationPolicy(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "none")
        return ReplicationPolicy::None;
    if (v == "readonly" || v == "read-only" || v == "ro")
        return ReplicationPolicy::ReadOnly;
    if (v == "all" || v == "ideal")
        return ReplicationPolicy::All;
    fatal("unknown replication policy '%s'", s.c_str());
}

RdcCoherence
parseRdcCoherence(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "none")
        return RdcCoherence::None;
    if (v == "software" || v == "swc" || v == "sw")
        return RdcCoherence::Software;
    if (v == "hwvi" || v == "hardware" || v == "hwc" || v == "vi")
        return RdcCoherence::HardwareVI;
    fatal("unknown RDC coherence mode '%s'", s.c_str());
}

RdcWritePolicy
parseRdcWritePolicy(const std::string &s)
{
    const std::string v = lower(s);
    if (v == "writethrough" || v == "write-through" || v == "wt")
        return RdcWritePolicy::WriteThrough;
    if (v == "writeback" || v == "write-back" || v == "wb")
        return RdcWritePolicy::WriteBack;
    fatal("unknown RDC write policy '%s'", s.c_str());
}

const char *
simEngineName(SimEngine e)
{
    switch (e) {
    case SimEngine::Serial: return "serial";
    case SimEngine::Parallel: return "parallel";
    }
    fatal("simEngineName: bad enum value %d", static_cast<int>(e));
}

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
    case PlacementPolicy::FirstTouch: return "firsttouch";
    case PlacementPolicy::RoundRobin: return "roundrobin";
    case PlacementPolicy::LocalOnly: return "local";
    }
    fatal("placementPolicyName: bad enum value %d",
          static_cast<int>(p));
}

const char *
replicationPolicyName(ReplicationPolicy p)
{
    switch (p) {
    case ReplicationPolicy::None: return "none";
    case ReplicationPolicy::ReadOnly: return "readonly";
    case ReplicationPolicy::All: return "all";
    }
    fatal("replicationPolicyName: bad enum value %d",
          static_cast<int>(p));
}

const char *
rdcCoherenceName(RdcCoherence c)
{
    switch (c) {
    case RdcCoherence::None: return "none";
    case RdcCoherence::Software: return "software";
    case RdcCoherence::HardwareVI: return "hwvi";
    }
    fatal("rdcCoherenceName: bad enum value %d",
          static_cast<int>(c));
}

const char *
rdcWritePolicyName(RdcWritePolicy p)
{
    switch (p) {
    case RdcWritePolicy::WriteThrough: return "writethrough";
    case RdcWritePolicy::WriteBack: return "writeback";
    }
    fatal("rdcWritePolicyName: bad enum value %d",
          static_cast<int>(p));
}

SystemConfig
SystemConfig::scaled(unsigned k) const
{
    if (!isPowerOf2(k))
        fatal("SystemConfig::scaled: factor %u is not a power of two", k);
    SystemConfig c = *this;
    c.l1.size /= k;
    c.l2.size /= k;
    c.rdc.size /= k;
    c.dram.capacity /= k;
    return c;
}

namespace {

std::string
formatU64(std::uint64_t v)
{
    return std::to_string(v);
}

/** Enough digits to parse back bit-identical (IEEE double). */
std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
formatBool(bool v)
{
    return v ? "true" : "false";
}

/**
 * One overridable field: its dotted key plus a setter that parses a
 * textual value into the field and a getter that serializes the field
 * back out. applyOverride(), listOverrideKeys() and toOverrides()
 * all walk this one table.
 */
struct KeyEntry
{
    const char *key;
    void (*set)(SystemConfig &, const std::string &);
    std::string (*get)(const SystemConfig &);
};

// The decltype cast lets one macro serve unsigned, Cycle and
// std::uint64_t fields alike.
#define KEY_U64(name, field)                                          \
    {name,                                                            \
     [](SystemConfig &c, const std::string &v) {                      \
         c.field =                                                    \
             static_cast<decltype(c.field)>(parseU64(name, v));       \
     },                                                               \
     [](const SystemConfig &c) {                                      \
         return formatU64(static_cast<std::uint64_t>(c.field));       \
     }}
#define KEY_DBL(name, field)                                          \
    {name,                                                            \
     [](SystemConfig &c, const std::string &v) {                      \
         c.field = parseDouble(name, v);                              \
     },                                                               \
     [](const SystemConfig &c) { return formatDouble(c.field); }}
#define KEY_BOOL(name, field)                                         \
    {name,                                                            \
     [](SystemConfig &c, const std::string &v) {                      \
         c.field = parseBool(name, v);                                \
     },                                                               \
     [](const SystemConfig &c) { return formatBool(c.field); }}
#define KEY_ENUM(name, field, parse_fn, name_fn)                      \
    {name,                                                            \
     [](SystemConfig &c, const std::string &v) {                      \
         c.field = parse_fn(v);                                       \
     },                                                               \
     [](const SystemConfig &c) {                                      \
         return std::string(name_fn(c.field));                        \
     }}

const KeyEntry key_table[] = {
    KEY_U64("num_gpus", num_gpus),
    KEY_U64("page_size", page_size),
    KEY_U64("line_size", line_size),
    KEY_U64("seed", seed),
    KEY_ENUM("engine", engine, parseSimEngine, simEngineName),
    KEY_U64("sim_threads", sim_threads),

    KEY_U64("core.sms_per_gpu", core.sms_per_gpu),
    KEY_U64("core.max_warps_per_sm", core.max_warps_per_sm),
    KEY_U64("core.l1_to_l2_latency", core.l1_to_l2_latency),
    KEY_U64("core.kernel_launch_latency",
            core.kernel_launch_latency),

    KEY_U64("l1.size", l1.size),
    KEY_U64("l1.ways", l1.ways),
    KEY_U64("l1.hit_latency", l1.hit_latency),
    KEY_U64("l1.mshrs", l1.mshrs),

    KEY_U64("l2.size", l2.size),
    KEY_U64("l2.ways", l2.ways),
    KEY_U64("l2.hit_latency", l2.hit_latency),
    KEY_U64("l2.mshrs", l2.mshrs),

    KEY_U64("tlb.l1_entries", tlb.l1_entries),
    KEY_U64("tlb.l2_entries", tlb.l2_entries),
    KEY_U64("tlb.l1_latency", tlb.l1_latency),
    KEY_U64("tlb.l2_latency", tlb.l2_latency),
    KEY_U64("tlb.walk_latency", tlb.walk_latency),

    KEY_U64("dram.capacity", dram.capacity),
    KEY_U64("dram.channels", dram.channels),
    KEY_DBL("dram.channel_bw", dram.channel_bw),
    KEY_U64("dram.banks_per_channel", dram.banks_per_channel),
    KEY_U64("dram.row_size", dram.row_size),
    KEY_U64("dram.row_hit_latency", dram.row_hit_latency),
    KEY_U64("dram.row_miss_latency", dram.row_miss_latency),
    KEY_U64("dram.read_queue", dram.read_queue),
    KEY_U64("dram.write_queue", dram.write_queue),
    KEY_DBL("dram.write_drain_high", dram.write_drain_high),
    KEY_DBL("dram.write_drain_low", dram.write_drain_low),

    KEY_DBL("link.gpu_gpu_bw", link.gpu_gpu_bw),
    KEY_DBL("link.cpu_gpu_bw", link.cpu_gpu_bw),
    KEY_U64("link.latency", link.latency),
    KEY_U64("link.ctrl_packet_size", link.ctrl_packet_size),
    KEY_U64("link.cpu_mem_latency", link.cpu_mem_latency),

    KEY_BOOL("rdc.enabled", rdc.enabled),
    KEY_U64("rdc.size", rdc.size),
    KEY_ENUM("rdc.write_policy", rdc.write_policy,
             parseRdcWritePolicy, rdcWritePolicyName),
    KEY_ENUM("rdc.coherence", rdc.coherence, parseRdcCoherence,
             rdcCoherenceName),
    KEY_BOOL("rdc.hit_predictor", rdc.hit_predictor),
    KEY_U64("rdc.epoch_bits", rdc.epoch_bits),
    KEY_U64("rdc.controller_latency", rdc.controller_latency),
    KEY_U64("rdc.mshr_entries", rdc.mshr_entries),

    KEY_ENUM("numa.placement", numa.placement,
             parsePlacementPolicy, placementPolicyName),
    KEY_ENUM("numa.replication", numa.replication,
             parseReplicationPolicy, replicationPolicyName),
    KEY_BOOL("numa.migration", numa.migration),
    KEY_U64("numa.migration_threshold", numa.migration_threshold),
    KEY_U64("numa.migration_stall", numa.migration_stall),
    KEY_DBL("numa.spill_fraction", numa.spill_fraction),
    KEY_U64("numa.um_migration_threshold",
            numa.um_migration_threshold),
    KEY_BOOL("numa.llc_caches_remote", numa.llc_caches_remote),
    KEY_BOOL("numa.charge_bulk_transfers",
             numa.charge_bulk_transfers),
};

#undef KEY_U64
#undef KEY_DBL
#undef KEY_BOOL
#undef KEY_ENUM

} // namespace

void
SystemConfig::applyOverride(const std::string &key,
                            const std::string &value)
{
    const std::string k = lower(key);
    for (const KeyEntry &e : key_table) {
        if (k == e.key) {
            e.set(*this, value);
            return;
        }
    }
    fatal("config: unknown override key '%s'", key.c_str());
}

std::vector<std::string>
SystemConfig::listOverrideKeys()
{
    std::vector<std::string> keys;
    keys.reserve(std::size(key_table));
    for (const KeyEntry &e : key_table)
        keys.emplace_back(e.key);
    return keys;
}

std::vector<ConfigOverride>
SystemConfig::toOverrides() const
{
    std::vector<ConfigOverride> out;
    out.reserve(std::size(key_table));
    for (const KeyEntry &e : key_table)
        out.push_back(ConfigOverride{e.key, e.get(*this)});
    return out;
}

std::vector<ConfigOverride>
SystemConfig::canonicalOverrides() const
{
    std::vector<ConfigOverride> out = toOverrides();
    std::sort(out.begin(), out.end(),
              [](const ConfigOverride &a, const ConfigOverride &b) {
                  return a.key < b.key;
              });
    return out;
}

void
SystemConfig::validate() const
{
    if (num_gpus == 0)
        fatal("config: num_gpus must be >= 1");
    if (sim_threads == 0)
        fatal("config: sim_threads must be >= 1");
    if (!isPowerOf2(line_size))
        fatal("config: line_size must be a power of two");
    if (!isPowerOf2(page_size) || page_size < line_size)
        fatal("config: page_size must be a power of two >= line_size");
    if (l1.size == 0 || l2.size == 0)
        fatal("config: cache sizes must be nonzero");
    if (l1.mshrs == 0)
        fatal("config: l1.mshrs must be >= 1 "
              "(override key \"l1.mshrs\")");
    if (l2.mshrs == 0)
        fatal("config: l2.mshrs must be >= 1 "
              "(override key \"l2.mshrs\")");
    if (l1.size % (line_size * l1.ways) != 0)
        fatal("config: L1 geometry (size/ways/line) is not integral");
    if (l2.size % (line_size * l2.ways) != 0)
        fatal("config: L2 geometry (size/ways/line) is not integral");
    if (dram.channels == 0 || dram.channel_bw <= 0.0)
        fatal("config: DRAM channel configuration invalid");
    if (rdc.enabled) {
        if (rdc.size == 0 || rdc.size % line_size != 0)
            fatal("config: RDC size must be a nonzero line multiple");
        if (rdc.size >= dram.capacity)
            fatal("config: RDC carve-out exceeds GPU memory capacity");
        if (rdc.mshr_entries == 0)
            fatal("config: rdc.mshr_entries must be >= 1 "
                  "(override key \"rdc.mshr_entries\")");
    }
    if (numa.spill_fraction < 0.0 || numa.spill_fraction >= 1.0)
        fatal("config: spill_fraction must lie in [0, 1)");
    if (num_gpus == 1 && numa.placement != PlacementPolicy::LocalOnly &&
        numa.placement != PlacementPolicy::FirstTouch) {
        warn("config: single-GPU run with non-local placement");
    }
}

} // namespace carve
