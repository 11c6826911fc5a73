/**
 * @file
 * Named-statistics package and the unified metrics registry.
 *
 * Components own Scalar / Average / telemetry::Histogram objects and
 * register them into a StatGroup tree rooted at the owning system;
 * groups nest to form dotted names ("gpu0.l2.hits", "link.0.3.bytes"),
 * and derived stats compute their values on demand. The tree is
 * the single source of truth for every statistic in the simulator:
 * reporting (collectResult), the sweep JSON writer and the text dump
 * all derive their values from a registry walk instead of poking
 * component getters. This is a deliberately small subset of the gem5
 * stats package: enough to expose every counter the paper's figures
 * need and to make adding a metric a one-line registration.
 */

#ifndef CARVE_COMMON_STATS_HH
#define CARVE_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/histogram.hh"

namespace carve {
namespace stats {

/** Monotonic 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    /** Overwrite the count (result snapshots, JSON parsing). */
    Scalar &operator=(std::uint64_t v) { value_ = v; return *this; }

    /** Current count. */
    std::uint64_t value() const { return value_; }
    /** Scalars read as plain counters in arithmetic and comparisons. */
    operator std::uint64_t() const { return value_; }

    /** Reset to zero (used between measurement phases). */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean of observed samples. */
class Average
{
  public:
    /** Record one sample. Non-finite or negative samples are dropped:
     * every Average in the simulator measures a nonnegative quantity
     * (delays, sizes), so such a sample is always an upstream bug and
     * must not poison the mean. */
    void
    sample(double v)
    {
        if (!std::isfinite(v) || v < 0.0)
            return;
        sum_ += v;
        ++count_;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of samples. */
    double sum() const { return sum_; }

    /** Mean of samples; 0 when empty. */
    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    void reset() { sum_ = 0.0; count_ = 0; }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * One value of the registry rendered flat: the fully qualified dotted
 * name plus either an exact integer or a double. Averages flatten to
 * two entries ("<name>.count", "<name>.sum"); telemetry histograms
 * to six ("<name>.count", ".max", ".p50", ".p95", ".p99", ".sum"),
 * all exact integers.
 */
struct FlatStat
{
    std::string name;
    /** True when the value is exact and lives in @ref u64. */
    bool integral = true;
    std::uint64_t u64 = 0;
    double dbl = 0.0;

    double
    asDouble() const
    {
        return integral ? static_cast<double>(u64) : dbl;
    }
};

/** Scalar values by full name, sorted by name. */
using ScalarSnapshot =
    std::vector<std::pair<std::string, std::uint64_t>>;

/**
 * Per-kernel measurement phase: the increase of every scalar counter
 * between two kernel boundaries, so benches can separate warmup
 * kernels from steady state without resetting live counters.
 */
struct EpochPhase
{
    std::uint32_t index = 0;        ///< kernel id of this phase
    std::uint64_t start_cycle = 0;
    std::uint64_t end_cycle = 0;
    /** Counter increase during the phase, sorted by name. */
    ScalarSnapshot deltas;
};

/**
 * Named collection of statistics. Groups nest to form dotted names
 * (e.g., "gpu0.l2.hits"). Registered names must not contain '.'
 * (that is the hierarchy separator) and must be unique within their
 * group; violations are fatal at registration time.
 */
class StatGroup
{
  public:
    /**
     * @param name leaf name of this group
     * @param parent enclosing group, or nullptr for a root
     */
    explicit StatGroup(std::string name, StatGroup *parent = nullptr);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a scalar under @p name. Pointers must outlive dump(). */
    void addScalar(const std::string &name, Scalar *s,
                   const std::string &desc = "");
    /** Register an average under @p name. */
    void addAverage(const std::string &name, Average *a,
                    const std::string &desc = "");
    /** Register a telemetry log2 histogram under @p name. Rendered
     * with deterministic p50/p95/p99 (see telemetry::Histogram). */
    void addHistogram(const std::string &name,
                      telemetry::Histogram *h,
                      const std::string &desc = "");
    /** Register a derived statistic computed on demand from @p fn
     * (ratios, gauges over component state). Never reset. */
    void addDerived(const std::string &name,
                    std::function<double()> fn,
                    const std::string &desc = "");
    /** Derived statistic whose value is an exact integer. */
    void addDerivedInt(const std::string &name,
                       std::function<std::uint64_t()> fn,
                       const std::string &desc = "");

    /** Fully qualified dotted name of this group. */
    std::string fullName() const;

    /** Leaf name of this group. */
    const std::string &name() const { return name_; }

    /**
     * Registry walk callbacks. Any member may be empty. Within a
     * group the walk visits scalars, averages, histograms, then
     * derived stats — each kind sorted by name — and then recurses
     * into children sorted by name, so the visit order is a pure
     * function of the registered names, never of construction order.
     */
    struct Visitor
    {
        std::function<void(const std::string &full_name,
                           const Scalar &, const std::string &desc)>
            scalar;
        std::function<void(const std::string &full_name,
                           const Average &, const std::string &desc)>
            average;
        std::function<void(const std::string &full_name,
                           const telemetry::Histogram &,
                           const std::string &desc)>
            histogram;
        /** @p integral mirrors addDerivedInt vs addDerived. */
        std::function<void(const std::string &full_name, double value,
                           bool integral, const std::string &desc)>
            derived;
    };

    /** Walk this group and all children in deterministic order. */
    void visit(const Visitor &v) const;

    /** Look up a stat by dotted name relative to this group
     * ("gpu0.l2.hits" on the root). nullptr when absent. */
    const Scalar *findScalar(std::string_view dotted) const;
    const Average *findAverage(std::string_view dotted) const;
    const telemetry::Histogram *
    findHistogram(std::string_view dotted) const;
    /** Child group by dotted name; nullptr when absent. */
    const StatGroup *findGroup(std::string_view dotted) const;
    /** Value of a scalar or derived stat by dotted name. */
    std::optional<double> findValue(std::string_view dotted) const;

    /** Render this group and all children as name=value lines, every
     * level sorted by name (byte-stable regardless of construction
     * order). */
    void dump(std::ostream &os) const;

    /** Reset every registered stat in this group and children
     * (derived stats have no state and are unaffected). */
    void resetAll();

  private:
    template <typename T>
    struct Named
    {
        std::string name;
        std::string desc;
        T *stat;
    };
    struct NamedDerived
    {
        std::string name;
        std::string desc;
        std::function<double()> fn;
        bool integral;
    };

    void checkName(const std::string &name) const;
    /** Children sorted by name (children_ keeps insertion order). */
    std::vector<const StatGroup *> sortedChildren() const;

    std::string name_;
    StatGroup *parent_;
    std::vector<StatGroup *> children_;
    std::vector<Named<Scalar>> scalars_;
    std::vector<Named<Average>> averages_;
    std::vector<Named<telemetry::Histogram>> histograms_;
    std::vector<NamedDerived> derived_;
};

/**
 * Render the whole registry flat: every stat as (full name, value),
 * sorted by name. This is the representation embedded in sweep
 * results (schema v2) and consumed by collectResult().
 */
std::vector<FlatStat> flattenStats(const StatGroup &root);

/** Capture every scalar counter's current value, sorted by name. */
ScalarSnapshot snapshotScalars(const StatGroup &root);

/**
 * Per-name difference @p after - @p before (both sorted by name).
 * Names present only in @p after are reported at full value; names
 * that disappeared are dropped (stats never unregister mid-run).
 */
ScalarSnapshot snapshotDelta(const ScalarSnapshot &before,
                             const ScalarSnapshot &after);

/**
 * Match a dotted stat name against a pattern matched segment by
 * segment: a bare '*' segment matches any one name segment, and a
 * segment ending in '*' prefix-matches within that segment
 * ("gpu*.l2.hits" matches "gpu0.l2.hits" but not
 * "gpu0.l2.mshrs.hits"; patterns never span dots).
 */
bool nameMatches(std::string_view pattern, std::string_view name);

} // namespace stats
} // namespace carve

#endif // CARVE_COMMON_STATS_HH
