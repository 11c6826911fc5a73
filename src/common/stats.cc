#include "common/stats.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace carve {
namespace stats {

namespace {

/** Split "a.b.c" into its leading segment and the rest. */
std::pair<std::string_view, std::string_view>
splitHead(std::string_view dotted)
{
    const std::size_t dot = dotted.find('.');
    if (dot == std::string_view::npos)
        return {dotted, std::string_view{}};
    return {dotted.substr(0, dot), dotted.substr(dot + 1)};
}

} // namespace

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->children_.push_back(this);
}

void
StatGroup::checkName(const std::string &name) const
{
    if (name.empty() || name.find('.') != std::string::npos)
        fatal("stat name '%s' in group '%s' must be a non-empty "
              "single segment (no '.')",
              name.c_str(), fullName().c_str());
    const auto clash = [&](const auto &v) {
        for (const auto &e : v)
            if (e.name == name)
                return true;
        return false;
    };
    if (clash(scalars_) || clash(averages_) || clash(histograms_) ||
        clash(derived_))
        fatal("duplicate stat name '%s' in group '%s'", name.c_str(),
              fullName().c_str());
}

void
StatGroup::addScalar(const std::string &name, Scalar *s)
{
    checkName(name);
    scalars_.push_back({name, s});
}

void
StatGroup::addAverage(const std::string &name, Average *a)
{
    checkName(name);
    averages_.push_back({name, a});
}

void
StatGroup::addHistogram(const std::string &name, telemetry::Histogram *h)
{
    checkName(name);
    histograms_.push_back({name, h});
}

void
StatGroup::addDerived(const std::string &name, std::function<double()> fn)
{
    checkName(name);
    derived_.push_back({name, std::move(fn), false});
}

void
StatGroup::addDerivedInt(const std::string &name,
                         std::function<std::uint64_t()> fn)
{
    checkName(name);
    derived_.push_back(
        {name,
         [f = std::move(fn)]() {
             return static_cast<double>(f());
         },
         true});
}

std::string
StatGroup::fullName() const
{
    if (!parent_)
        return name_;
    std::string prefix = parent_->fullName();
    if (prefix.empty())
        return name_;
    return prefix + "." + name_;
}

void
StatGroup::appendFlat(std::vector<FlatStat> &out,
                      const std::string &full) const
{
    const std::string prefix = full.empty() ? "" : full + ".";
    for (const auto &s : scalars_)
        out.push_back({prefix + s.name, true, s.stat->value(), 0.0});
    for (const auto &a : averages_) {
        out.push_back({prefix + a.name + ".count", true, a.stat->count(),
                       0.0});
        out.push_back({prefix + a.name + ".sum", false, 0, a.stat->sum()});
    }
    for (const auto &h : histograms_) {
        const telemetry::Histogram &hist = *h.stat;
        const std::string name = prefix + h.name;
        out.push_back({name + ".count", true, hist.count(), 0.0});
        out.push_back({name + ".max", true, hist.max(), 0.0});
        out.push_back({name + ".p50", true, hist.percentile(50), 0.0});
        out.push_back({name + ".p95", true, hist.percentile(95), 0.0});
        out.push_back({name + ".p99", true, hist.percentile(99), 0.0});
        out.push_back({name + ".sum", true, hist.sum(), 0.0});
    }
    for (const auto &d : derived_) {
        const double value = d.fn();
        if (d.integral)
            out.push_back({prefix + d.name, true,
                           static_cast<std::uint64_t>(value), 0.0});
        else
            out.push_back({prefix + d.name, false, 0, value});
    }
    for (const StatGroup *child : children_)
        child->appendFlat(out, prefix + child->name_);
}

std::vector<FlatStat>
flattenStats(const StatGroup &root)
{
    // No two entries share a name, so one sort of the whole list
    // fixes the order no matter how the tree was registered.
    std::vector<FlatStat> out;
    root.appendFlat(out, root.fullName());
    std::sort(out.begin(), out.end(),
              [](const FlatStat &a, const FlatStat &b) {
                  return a.name < b.name;
              });
    return out;
}

const FlatStat *
lookup(const std::vector<FlatStat> &flat, std::string_view name)
{
    const auto it = std::lower_bound(
        flat.begin(), flat.end(), name,
        [](const FlatStat &f, std::string_view n) { return f.name < n; });
    return it != flat.end() && it->name == name ? &*it : nullptr;
}

std::uint64_t
sumMatching(const std::vector<FlatStat> &flat, std::string_view pattern)
{
    std::uint64_t total = 0;
    for (const FlatStat &f : flat)
        if (nameMatches(pattern, f.name))
            total += f.u64;
    return total;
}

bool
nameMatches(std::string_view pattern, std::string_view name)
{
    const auto segMatches = [](std::string_view p,
                               std::string_view s) {
        if (!p.empty() && p.back() == '*') {
            // Trailing '*' prefix-matches within the segment
            // ("gpu*" matches "gpu0"; bare "*" matches anything).
            p.remove_suffix(1);
            return s.substr(0, p.size()) == p;
        }
        return p == s;
    };
    while (true) {
        const auto [phead, prest] = splitHead(pattern);
        const auto [nhead, nrest] = splitHead(name);
        if (!segMatches(phead, nhead))
            return false;
        if (prest.empty() || nrest.empty())
            return prest.empty() && nrest.empty();
        pattern = prest;
        name = nrest;
    }
}

} // namespace stats
} // namespace carve
