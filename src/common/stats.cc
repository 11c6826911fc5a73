#include "common/stats.hh"

#include <algorithm>
#include <iomanip>

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

template <typename T>
void
sortByName(std::vector<T> &v)
{
    std::sort(v.begin(), v.end(), [](const T &a, const T &b) {
        return a.name < b.name;
    });
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
StatGroup::addScalar(const std::string &name, Scalar *s,
                     const std::string &desc)
{
    checkName(name);
    scalars_.push_back({name, desc, s});
}

void
StatGroup::addAverage(const std::string &name, Average *a,
                      const std::string &desc)
{
    checkName(name);
    averages_.push_back({name, desc, a});
}

void
StatGroup::addHistogram(const std::string &name,
                        telemetry::Histogram *h,
                        const std::string &desc)
{
    checkName(name);
    histograms_.push_back({name, desc, h});
}

void
StatGroup::addDerived(const std::string &name,
                      std::function<double()> fn,
                      const std::string &desc)
{
    checkName(name);
    derived_.push_back({name, desc, std::move(fn), false});
}

void
StatGroup::addDerivedInt(const std::string &name,
                         std::function<std::uint64_t()> fn,
                         const std::string &desc)
{
    checkName(name);
    derived_.push_back(
        {name, desc,
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

std::vector<const StatGroup *>
StatGroup::sortedChildren() const
{
    std::vector<const StatGroup *> out(children_.begin(),
                                       children_.end());
    std::sort(out.begin(), out.end(),
              [](const StatGroup *a, const StatGroup *b) {
                  return a->name_ < b->name_;
              });
    return out;
}

void
StatGroup::visit(const Visitor &v) const
{
    const std::string prefix =
        fullName().empty() ? "" : fullName() + ".";

    auto sorted = [](const auto &src) {
        auto copy = src;
        sortByName(copy);
        return copy;
    };

    if (v.scalar)
        for (const auto &s : sorted(scalars_))
            v.scalar(prefix + s.name, *s.stat, s.desc);
    if (v.average)
        for (const auto &a : sorted(averages_))
            v.average(prefix + a.name, *a.stat, a.desc);
    if (v.histogram)
        for (const auto &h : sorted(histograms_))
            v.histogram(prefix + h.name, *h.stat, h.desc);
    if (v.derived)
        for (const auto &d : sorted(derived_))
            v.derived(prefix + d.name, d.fn(), d.integral, d.desc);

    for (const auto *child : sortedChildren())
        child->visit(v);
}

const Scalar *
StatGroup::findScalar(std::string_view dotted) const
{
    const auto [head, rest] = splitHead(dotted);
    if (rest.empty()) {
        for (const auto &s : scalars_)
            if (s.name == head)
                return s.stat;
        return nullptr;
    }
    for (const auto *child : children_)
        if (child->name_ == head)
            return child->findScalar(rest);
    return nullptr;
}

const Average *
StatGroup::findAverage(std::string_view dotted) const
{
    const auto [head, rest] = splitHead(dotted);
    if (rest.empty()) {
        for (const auto &a : averages_)
            if (a.name == head)
                return a.stat;
        return nullptr;
    }
    for (const auto *child : children_)
        if (child->name_ == head)
            return child->findAverage(rest);
    return nullptr;
}

const telemetry::Histogram *
StatGroup::findHistogram(std::string_view dotted) const
{
    const auto [head, rest] = splitHead(dotted);
    if (rest.empty()) {
        for (const auto &h : histograms_)
            if (h.name == head)
                return h.stat;
        return nullptr;
    }
    for (const auto *child : children_)
        if (child->name_ == head)
            return child->findHistogram(rest);
    return nullptr;
}

const StatGroup *
StatGroup::findGroup(std::string_view dotted) const
{
    const auto [head, rest] = splitHead(dotted);
    for (const auto *child : children_) {
        if (child->name_ != head)
            continue;
        return rest.empty() ? child : child->findGroup(rest);
    }
    return nullptr;
}

std::optional<double>
StatGroup::findValue(std::string_view dotted) const
{
    const auto [head, rest] = splitHead(dotted);
    if (rest.empty()) {
        for (const auto &s : scalars_)
            if (s.name == head)
                return static_cast<double>(s.stat->value());
        for (const auto &d : derived_)
            if (d.name == head)
                return d.fn();
        return std::nullopt;
    }
    for (const auto *child : children_)
        if (child->name_ == head)
            return child->findValue(rest);
    return std::nullopt;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix =
        fullName().empty() ? "" : fullName() + ".";

    auto sorted = [](const auto &src) {
        auto copy = src;
        sortByName(copy);
        return copy;
    };

    for (const auto &s : sorted(scalars_)) {
        os << prefix << s.name << " = " << s.stat->value();
        if (!s.desc.empty())
            os << "  # " << s.desc;
        os << "\n";
    }
    for (const auto &a : sorted(averages_)) {
        os << prefix << a.name << " = " << std::setprecision(6)
           << a.stat->mean() << " (n=" << a.stat->count() << ")";
        if (!a.desc.empty())
            os << "  # " << a.desc;
        os << "\n";
    }
    for (const auto &h : sorted(histograms_)) {
        os << prefix << h.name << " = p50 " << h.stat->percentile(50)
           << ", p99 " << h.stat->percentile(99) << ", max "
           << h.stat->max() << ", n " << h.stat->count();
        if (!h.desc.empty())
            os << "  # " << h.desc;
        os << "\n";
    }
    for (const auto &d : sorted(derived_)) {
        const double v = d.fn();
        os << prefix << d.name << " = ";
        if (d.integral)
            os << static_cast<std::uint64_t>(v);
        else
            os << std::setprecision(6) << v;
        if (!d.desc.empty())
            os << "  # " << d.desc;
        os << "\n";
    }
    for (const auto *child : sortedChildren())
        child->dump(os);
}

void
StatGroup::resetAll()
{
    for (auto &s : scalars_)
        s.stat->reset();
    for (auto &a : averages_)
        a.stat->reset();
    for (auto &h : histograms_)
        h.stat->reset();
    for (auto *child : children_)
        child->resetAll();
}

std::vector<FlatStat>
flattenStats(const StatGroup &root)
{
    std::vector<FlatStat> out;
    StatGroup::Visitor v;
    v.scalar = [&](const std::string &name, const Scalar &s,
                   const std::string &) {
        out.push_back({name, true, s.value(), 0.0});
    };
    v.average = [&](const std::string &name, const Average &a,
                    const std::string &) {
        out.push_back({name + ".count", true, a.count(), 0.0});
        out.push_back({name + ".sum", false, 0, a.sum()});
    };
    v.histogram = [&](const std::string &name,
                      const telemetry::Histogram &h,
                      const std::string &) {
        out.push_back({name + ".count", true, h.count(), 0.0});
        out.push_back({name + ".max", true, h.max(), 0.0});
        out.push_back({name + ".p50", true, h.percentile(50), 0.0});
        out.push_back({name + ".p95", true, h.percentile(95), 0.0});
        out.push_back({name + ".p99", true, h.percentile(99), 0.0});
        out.push_back({name + ".sum", true, h.sum(), 0.0});
    };
    v.derived = [&](const std::string &name, double value,
                    bool integral, const std::string &) {
        if (integral)
            out.push_back(
                {name, true, static_cast<std::uint64_t>(value), 0.0});
        else
            out.push_back({name, false, 0, value});
    };
    root.visit(v);
    std::sort(out.begin(), out.end(),
              [](const FlatStat &a, const FlatStat &b) {
                  return a.name < b.name;
              });
    return out;
}

ScalarSnapshot
snapshotScalars(const StatGroup &root)
{
    ScalarSnapshot out;
    StatGroup::Visitor v;
    v.scalar = [&](const std::string &name, const Scalar &s,
                   const std::string &) {
        out.emplace_back(name, s.value());
    };
    root.visit(v);
    std::sort(out.begin(), out.end());
    return out;
}

ScalarSnapshot
snapshotDelta(const ScalarSnapshot &before,
              const ScalarSnapshot &after)
{
    ScalarSnapshot out;
    out.reserve(after.size());
    std::size_t bi = 0;
    for (const auto &[name, value] : after) {
        while (bi < before.size() && before[bi].first < name)
            ++bi;
        std::uint64_t base = 0;
        if (bi < before.size() && before[bi].first == name)
            base = before[bi].second;
        out.emplace_back(name, value >= base ? value - base : 0);
    }
    return out;
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
