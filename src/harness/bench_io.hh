/**
 * @file
 * carve-bench report model and serialisation ("carve-bench/v1").
 *
 * A bench file records engine-throughput microbenchmarks (events/sec
 * per event-queue engine) and end-to-end preset x workload cells
 * (host seconds, events/sec, warp-insts/sec). It uses the same JSON
 * document model as the sweep results files, so any consumer of the
 * harness reader can parse it; unlike sweep results it deliberately
 * contains wall-clock measurements, so two bench files from different
 * hosts are comparable only by ratio — which is exactly how
 * compareBench() gates (relative slowdown factor, not absolute
 * seconds).
 */

#ifndef CARVE_HARNESS_BENCH_IO_HH
#define CARVE_HARNESS_BENCH_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/json.hh"

namespace carve {
namespace harness {

/** Schema identifier written into every bench file. */
inline constexpr const char *kBenchSchema = "carve-bench/v1";

/** One event-queue microbenchmark measurement. */
struct MicroResult
{
    std::string name;          ///< "eventq/calendar", "eventq/heap"
    std::uint64_t events = 0;  ///< events fired
    double seconds = 0.0;      ///< host wall time
    double events_per_sec = 0.0;
};

/** One end-to-end preset x workload bench cell. */
struct CellResult
{
    std::string preset;
    std::string workload;
    std::uint64_t cycles = 0;      ///< simulated cycles
    std::uint64_t events = 0;      ///< engine events executed
    std::uint64_t warp_insts = 0;  ///< warp instructions issued
    /** Heap allocations during the cell (carve-bench counts them via
     * a replacement global operator new in its own TU; 0 elsewhere). */
    std::uint64_t allocations = 0;
    std::uint64_t peak_rss_bytes = 0;  ///< process peak RSS after run
    double host_seconds = 0.0;
    double events_per_sec = 0.0;
    double warp_insts_per_sec = 0.0;

    std::string
    key() const
    {
        return preset + "/" + workload;
    }
};

/** Whole carve-bench report. */
struct BenchReport
{
    std::string date;         ///< ISO "YYYY-MM-DD" of the run
    std::string git_version;  ///< `git describe` of the tree
    std::string engine;       ///< engine the e2e cells ran under
    unsigned memory_scale = 8;
    double duration = 0.2;
    std::vector<MicroResult> micro;
    std::vector<CellResult> cells;
};

/** Serialise a report (deterministic member order). */
json::Value benchToJson(const BenchReport &r);

/** Inverse of benchToJson(); fatal on missing or ill-typed members. */
BenchReport benchFromJson(const json::Value &doc);

/** Read + parse + schema-check a bench file (fatal on mismatch). */
BenchReport readBenchFile(const std::string &path);

/** One entry compared by compareBench(). */
struct BenchDelta
{
    std::string key;     ///< "eventq/calendar" or "preset/workload"
    std::string metric;  ///< "events_per_sec", "host_seconds", ...
    double baseline = 0.0;
    double candidate = 0.0;
    /** Cost factor candidate/baseline (baseline/candidate for
     * rates), >1 == candidate is worse; 0 for a missing entry. */
    double factor = 1.0;
    bool regression = false;  ///< factor exceeded the gate
};

/**
 * Diff @p candidate against @p baseline: a micro entry is gated on
 * its events/sec ratio, a cell on its host-seconds, events and
 * allocations ratios. Only growth beyond @p fail_factor (e.g. 2.0 ==
 * half the speed, or twice the events) is a regression — the gate is
 * deliberately loose because absolute host speed varies by machine
 * and load. A zero baseline value (allocations in files that predate
 * the column) never gates. Entries present on only one side are
 * reported with factor 0 and never gate.
 */
std::vector<BenchDelta> compareBench(const BenchReport &baseline,
                                     const BenchReport &candidate,
                                     double fail_factor);

/** True when any delta gates. */
bool benchHasRegression(const std::vector<BenchDelta> &deltas);

/** Render a human-readable comparison summary. */
std::string formatBenchCompare(const std::vector<BenchDelta> &deltas,
                               double fail_factor);

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_BENCH_IO_HH
