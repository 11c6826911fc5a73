/**
 * @file
 * Named-statistics package and the unified metrics registry.
 *
 * Components own Scalar / Average / telemetry::Histogram objects and
 * register them into a StatGroup tree rooted at the owning system;
 * groups nest to form dotted names ("gpu0.l2.hits", "link.0.3.bytes"),
 * and derived stats compute their values on demand. The tree is
 * the single source of truth for every statistic in the simulator,
 * and flattenStats() is its only read path: reporting
 * (collectResult), the audit and the sweep JSON writer all resolve
 * names against the flattened, sorted view with lookup() and
 * sumMatching() instead of poking component getters. This is a
 * deliberately small subset of the gem5 stats package: enough to
 * expose every counter the paper's figures need and to make adding a
 * metric a one-line registration.
 */

#ifndef CARVE_COMMON_STATS_HH
#define CARVE_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
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

    /** Register a scalar under @p name. The pointer must outlive
     * every flattenStats() of the tree. */
    void addScalar(const std::string &name, Scalar *s);
    /** Register an average under @p name. */
    void addAverage(const std::string &name, Average *a);
    /** Register a telemetry log2 histogram under @p name. Rendered
     * with deterministic p50/p95/p99 (see telemetry::Histogram). */
    void addHistogram(const std::string &name, telemetry::Histogram *h);
    /** Register a derived statistic computed on demand from @p fn
     * (ratios, gauges over component state). */
    void addDerived(const std::string &name, std::function<double()> fn);
    /** Derived statistic whose value is an exact integer. */
    void addDerivedInt(const std::string &name,
                       std::function<std::uint64_t()> fn);

    /** Fully qualified dotted name of this group. */
    std::string fullName() const;

    /** Leaf name of this group. */
    const std::string &name() const { return name_; }

  private:
    friend std::vector<FlatStat> flattenStats(const StatGroup &root);

    template <typename T>
    struct Named
    {
        std::string name;
        T *stat;
    };
    struct NamedDerived
    {
        std::string name;
        std::function<double()> fn;
        bool integral;
    };

    void checkName(const std::string &name) const;
    /** Append every stat of this group and its children, named under
     * @p full (this group's full name), in registration order. */
    void appendFlat(std::vector<FlatStat> &out,
                    const std::string &full) const;

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
 * sorted by name. Every read of the registry goes through this view:
 * sweep results (schema v2) embed it, and collectResult() and the
 * audit resolve names against it. The order is a pure function of
 * the registered names, never of registration order.
 */
std::vector<FlatStat> flattenStats(const StatGroup &root);

/** Exact-name binary search over a flattened tree (sorted by name,
 * as flattenStats() returns it). nullptr when absent. */
const FlatStat *lookup(const std::vector<FlatStat> &flat,
                       std::string_view name);

/** Sum of the integral values of every entry whose name matches
 * @p pattern (see nameMatches()). */
std::uint64_t sumMatching(const std::vector<FlatStat> &flat,
                          std::string_view pattern);

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
