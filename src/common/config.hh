/**
 * @file
 * System configuration: Table III of the paper plus every policy knob
 * this reproduction exposes.
 *
 * All capacities are in bytes, all bandwidths in bytes/cycle (1 GHz
 * clock: 64 GB/s == 64 B/cyc), all latencies in cycles.
 *
 * SystemConfig::scaled(k) divides every capacity (caches, RDC, DRAM)
 * by k while leaving bandwidths, latencies and counts untouched; the
 * workload suite applies the same factor to footprints so that every
 * size *ratio* matches the paper at a fraction of the simulation cost.
 */

#ifndef CARVE_COMMON_CONFIG_HH
#define CARVE_COMMON_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"

namespace carve {

/** One textual "key=value" configuration override. */
struct ConfigOverride
{
    std::string key;
    std::string value;
};

/** Simulation engine driving a run's event domains. */
enum class SimEngine : std::uint8_t {
    Serial,        ///< windowed algorithm on the calling thread
    Parallel,      ///< domains fanned out over sim_threads workers
};

/** Page placement policy for first mapping of a virtual page. */
enum class PlacementPolicy : std::uint8_t {
    FirstTouch,    ///< map to the first-accessing GPU (NUMA-GPU default)
    RoundRobin,    ///< stripe pages across GPUs
    LocalOnly,     ///< single-GPU runs: everything local
};

/** Software page replication policy. */
enum class ReplicationPolicy : std::uint8_t {
    None,          ///< no replication
    ReadOnly,      ///< replicate read-only shared pages; collapse on write
    All,           ///< ideal: replicate every shared page at zero cost
};

/** Coherence regime applied to the Remote Data Cache. */
enum class RdcCoherence : std::uint8_t {
    None,          ///< upper bound: RDC kept coherent at zero cost
    Software,      ///< epoch-invalidate whole RDC at kernel boundaries
    HardwareVI,    ///< GPU-VI write-invalidate + IMST filtering
};

/** Write policy of the Remote Data Cache. */
enum class RdcWritePolicy : std::uint8_t {
    WriteThrough,  ///< paper default: dirty data propagates immediately
    WriteBack,     ///< dirty-map tracked writeback
};

/** Per-GPU cache parameters. */
struct CacheConfig
{
    std::uint64_t size = 0;        ///< total bytes
    unsigned ways = 1;             ///< associativity
    Cycle hit_latency = 1;         ///< lookup-to-data latency
    unsigned mshrs = 64;           ///< outstanding distinct-line misses
};

/** TLB hierarchy parameters. */
struct TlbConfig
{
    unsigned l1_entries = 32;      ///< per-SM TLB entries
    unsigned l2_entries = 1024;    ///< GPU-shared TLB entries
    Cycle l1_latency = 1;
    Cycle l2_latency = 20;
    Cycle walk_latency = 200;      ///< page-table walk penalty
};

/** Per-GPU DRAM (HBM) parameters. */
struct DramConfig
{
    std::uint64_t capacity = 32 * GiB;  ///< per-GPU capacity
    unsigned channels = 16;             ///< channels per GPU
    double channel_bw = 64.0;           ///< bytes/cycle per channel
    unsigned banks_per_channel = 16;
    std::uint64_t row_size = 2 * KiB;   ///< open-page row buffer
    Cycle row_hit_latency = 18;         ///< CAS-only access
    Cycle row_miss_latency = 40;        ///< precharge + activate + CAS
    unsigned read_queue = 128;          ///< entries per channel
    unsigned write_queue = 128;         ///< entries per channel
    /** Start draining writes at this occupancy fraction... */
    double write_drain_high = 0.75;
    /** ...and stop once occupancy falls back to this fraction. */
    double write_drain_low = 0.25;
};

/** Inter-GPU / CPU-GPU interconnect parameters. */
struct LinkConfig
{
    double gpu_gpu_bw = 64.0;      ///< bytes/cycle, per direction, per pair
    double cpu_gpu_bw = 32.0;      ///< bytes/cycle, per direction
    Cycle latency = 120;           ///< one-way hop latency
    unsigned ctrl_packet_size = 16;///< bytes for invalidate/ack packets
    Cycle cpu_mem_latency = 200;   ///< CPU-side DRAM access latency
};

/** CARVE Remote Data Cache parameters. */
struct RdcConfig
{
    bool enabled = false;
    std::uint64_t size = 2 * GiB;  ///< carve-out per GPU
    RdcWritePolicy write_policy = RdcWritePolicy::WriteThrough;
    RdcCoherence coherence = RdcCoherence::HardwareVI;
    bool hit_predictor = false;    ///< MAP-I style miss bypass
    unsigned epoch_bits = 20;      ///< EPCTR width
    /** Extra local-DRAM accesses per lookup are implicit; this adds a
     * fixed controller pipeline latency on top of the DRAM access. */
    Cycle controller_latency = 10;
    /** Max distinct remote lines with an in-flight fetch; further
     * misses park on the MSHR wake-list until a fetch completes. */
    unsigned mshr_entries = 1024;
};

/** NUMA software-runtime parameters. */
struct NumaConfig
{
    PlacementPolicy placement = PlacementPolicy::FirstTouch;
    ReplicationPolicy replication = ReplicationPolicy::None;
    bool migration = false;        ///< migrate hot remote private pages
    unsigned migration_threshold = 64;  ///< remote accesses before move
    Cycle migration_stall = 2000;  ///< TLB shootdown + remap stall
    /** Fraction of the workload footprint forced into CPU system
     * memory (models CARVE capacity loss under Unified Memory). */
    double spill_fraction = 0.0;
    /** Remote accesses to a CPU-resident page before UM migrates it
     * into GPU memory. */
    unsigned um_migration_threshold = 8;
    /** True when the GPU LLC may cache remote-home lines
     * (the NUMA-GPU baseline behaviour). */
    bool llc_caches_remote = true;
    /** Charge page-copy bulk transfers (migration / replication / UM
     * moves) to the physical links. Off by default: at the scaled
     * trace lengths this reproduction simulates, a 2 MB copy would be
     * weighted ~1000x heavier relative to demand traffic than in the
     * paper's 4-billion-instruction runs. The copies are always
     * *counted* (see SimResult) either way. */
    bool charge_bulk_transfers = false;
};

/** GPU core (SM) parameters. */
struct CoreConfig
{
    unsigned sms_per_gpu = 64;
    unsigned max_warps_per_sm = 64;
    Cycle l1_to_l2_latency = 30;       ///< on-chip crossbar hop
    Cycle kernel_launch_latency = 1000;///< fixed per-kernel launch cost
};

/**
 * Complete multi-GPU system configuration. Defaults reproduce
 * Table III of the paper.
 */
struct SystemConfig
{
    unsigned num_gpus = 4;
    std::uint64_t page_size = 2 * MiB;
    std::uint64_t line_size = 128;
    std::uint64_t seed = 1;

    /** Event-domain execution mode. Serial and Parallel run the same
     * windowed algorithm and produce byte-identical stat trees. */
    SimEngine engine = SimEngine::Serial;
    /** Worker threads for SimEngine::Parallel (clamped to the domain
     * count: num_gpus + 1). Ignored under Serial. */
    unsigned sim_threads = 1;

    CoreConfig core;
    CacheConfig l1{128 * KiB, 4, 28, 64};       ///< per SM
    CacheConfig l2{8 * MiB, 16, 120, 512};      ///< per GPU (32MB total)
    TlbConfig tlb;
    DramConfig dram;
    LinkConfig link;
    RdcConfig rdc;
    NumaConfig numa;

    /**
     * Return a copy with all capacities divided by @p k (cache sizes,
     * RDC size, DRAM capacity, page size held fixed). @p k must be a
     * power of two so set counts stay integral.
     */
    SystemConfig scaled(unsigned k) const;

    /**
     * Apply a textual "key=value" override (e.g. "rdc.size=1073741824",
     * "numa.replication=readonly"). Unknown keys are fatal(). The
     * accepted keys come from one registry shared with
     * listOverrideKeys() and toOverrides(), so the three can never
     * drift apart.
     */
    void applyOverride(const std::string &key, const std::string &value);

    /** Every key applyOverride() accepts, in registry order. */
    static std::vector<std::string> listOverrideKeys();

    /**
     * Serialize this configuration as one override per registry key.
     * Round-trips: applying the result to any SystemConfig
     * reproduces *this exactly (doubles included — values print with
     * enough digits to parse back bit-identical).
     */
    std::vector<ConfigOverride> toOverrides() const;

    /**
     * toOverrides() sorted by key: the canonical serialization order.
     * Two SystemConfigs describing the same machine — no matter how
     * or in what order their overrides were applied — produce
     * identical canonical sequences, which is what content-addressed
     * consumers (the carve-served job key) hash.
     */
    std::vector<ConfigOverride> canonicalOverrides() const;

    /** fatal() on any inconsistent combination of parameters. */
    void validate() const;

    /** Lines per page with current geometry. */
    std::uint64_t
    linesPerPage() const
    {
        return page_size / line_size;
    }

    /** Aggregate local DRAM bandwidth of one GPU in bytes/cycle. */
    double
    localDramBw() const
    {
        return dram.channels * dram.channel_bw;
    }
};

/** Parse a SimEngine name ("serial", "parallel"). */
SimEngine parseSimEngine(const std::string &s);
/** Parse a PlacementPolicy name ("firsttouch", "roundrobin", "local"). */
PlacementPolicy parsePlacementPolicy(const std::string &s);
/** Parse a ReplicationPolicy name ("none", "readonly", "all"). */
ReplicationPolicy parseReplicationPolicy(const std::string &s);
/** Parse an RdcCoherence name ("none", "software", "hwvi"). */
RdcCoherence parseRdcCoherence(const std::string &s);
/** Parse an RdcWritePolicy name ("writethrough", "writeback"). */
RdcWritePolicy parseRdcWritePolicy(const std::string &s);

/** Canonical names; each parses back via the matching parse*(). */
const char *simEngineName(SimEngine e);
const char *placementPolicyName(PlacementPolicy p);
const char *replicationPolicyName(ReplicationPolicy p);
const char *rdcCoherenceName(RdcCoherence c);
const char *rdcWritePolicyName(RdcWritePolicy p);

} // namespace carve

#endif // CARVE_COMMON_CONFIG_HH
