/**
 * @file
 * Results-file serialisation and the regression gate.
 *
 * A results file ("carve-sweep-results/v2") holds sweep metadata plus
 * one record per run with the v1 summary statistics top-level and the
 * full flattened stat tree ("stat_tree") alongside. v1 files (no stat
 * tree) still parse. The file is a pure function of (specs, simulator
 * version): no timestamps, wall times, or thread counts — so the same
 * sweep produces byte-identical bytes at any parallelism, and two
 * files diff meaningfully.
 *
 * compareResults() is the regression gate: it matches runs of two
 * files by preset/workload/seed key and flags metric movements beyond
 * a relative tolerance (cycles up == regression, ipc down ==
 * regression), status downgrades, and runs missing from the
 * candidate. When a stat tree is present on both sides it also
 * reports *which* individual stats moved — informational, never
 * gating — so a cycles regression comes annotated with the underlying
 * counters that shifted.
 */

#ifndef CARVE_HARNESS_RESULTS_IO_HH
#define CARVE_HARNESS_RESULTS_IO_HH

#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/run_spec.hh"

namespace carve {
namespace harness {

/** Schema identifier written into every results file. */
inline constexpr const char *kResultsSchema =
    "carve-sweep-results/v2";

/** Previous schema, still accepted on read (no stat trees). */
inline constexpr const char *kResultsSchemaV1 =
    "carve-sweep-results/v1";

/** Sweep-wide metadata recorded alongside the runs. */
struct SweepMeta
{
    /** Capacity divisor applied to hardware + workloads. */
    unsigned memory_scale = 8;
    /** Trace-length multiplier. */
    double duration = 1.0;
    /** `git describe --always --dirty` of the producing tree. */
    std::string git_version;
    /** Free-form "key=value" config overrides applied to the base. */
    std::vector<std::string> overrides;
    /** Harness telemetry (per-worker load, job wall-time histogram)
     * rendered as a flat object of dotted keys; written as a
     * top-level "harness" member when non-null. Host facts — leave
     * null for byte-reproducible results (see RunSpec::host_stats). */
    json::Value harness;
};

/** Best-effort `git describe --always --dirty`; "unknown" offline. */
std::string gitDescribe();

/** Serialise one run (no wall time — see file comment). */
json::Value resultToJson(const RunResult &r);
/** Inverse of resultToJson (stats subset needed for comparison).
 * Takes @p v by value: a caller that moves its record in has the stat
 * names moved out of it instead of copied. */
RunResult resultFromJson(json::Value v);

/** Whole-file document for a finished sweep. */
json::Value sweepToJson(const SweepMeta &meta,
                        const std::vector<RunResult> &results);

/** Write @p doc to @p path (fatal on I/O failure). */
void writeResultsFile(const std::string &path,
                      const json::Value &doc);

/** Parse a results file; fatal on I/O, parse or schema mismatch. */
json::Value readResultsFile(const std::string &path);

/** Extract the run records of a parsed results file, moving them
 * out of @p doc. */
std::vector<RunResult> resultsFromJson(json::Value doc);

/** One metric movement found by compareResults(). */
struct MetricDelta
{
    std::string key;      ///< run key ("preset/workload/seed")
    /** "cycles", "ipc", "status", "missing", or "stat:<dotted name>"
     * for an informational stat-tree movement. */
    std::string metric;
    double baseline = 0.0;
    double candidate = 0.0;
    /** Relative change. For gating metrics, signed so that positive
     * == worse; for "stat:" deltas, signed so that positive ==
     * increased (no direction judgement). */
    double relative = 0.0;
    bool regression = false;  ///< beyond tolerance in the bad direction
    /** True for stat-tree movements: reported for diagnosis, never
     * gating. */
    bool informational = false;
};

/** Outcome of a baseline comparison. */
struct CompareReport
{
    std::vector<MetricDelta> deltas;  ///< regressions first
    unsigned compared_runs = 0;
    /** Stat-tree movements beyond tolerance that were dropped by the
     * per-run cap (largest movements are kept). */
    unsigned suppressed_stats = 0;

    bool
    hasRegression() const
    {
        for (const auto &d : deltas) {
            if (d.regression)
                return true;
        }
        return false;
    }
};

/**
 * Diff @p candidate against @p baseline with relative @p tolerance
 * (0.05 == 5%). Improvements beyond tolerance are reported with
 * regression=false so they are visible but do not gate.
 */
CompareReport compareResults(const std::vector<RunResult> &baseline,
                             const std::vector<RunResult> &candidate,
                             double tolerance);

/** Render a human-readable comparison summary. */
std::string formatCompareReport(const CompareReport &report,
                                double tolerance);

} // namespace harness
} // namespace carve

#endif // CARVE_HARNESS_RESULTS_IO_HH
