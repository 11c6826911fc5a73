#include "trace/trace.hh"

#include <array>

#include "common/logging.hh"

namespace carve {
namespace trace {

namespace {

struct CategoryEntry
{
    Category cat;
    const char *name;
};

constexpr std::array<CategoryEntry, 8> category_table{{
    {Category::Sm, "sm"},
    {Category::Cache, "cache"},
    {Category::Rdc, "rdc"},
    {Category::Dram, "dram"},
    {Category::Link, "link"},
    {Category::Coherence, "coherence"},
    {Category::Kernel, "kernel"},
    {Category::Audit, "audit"},
}};

} // namespace

const char *
categoryName(Category c)
{
    for (const CategoryEntry &e : category_table) {
        if (e.cat == c)
            return e.name;
    }
    return "?";
}

std::uint32_t
parseCategoryList(const std::string &list)
{
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string tok = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        start = comma == std::string::npos ? list.size() + 1
                                           : comma + 1;
        if (tok.empty())
            continue;
        if (tok == "all") {
            mask |= all_categories;
            continue;
        }
        bool found = false;
        for (const CategoryEntry &e : category_table) {
            if (tok == e.name) {
                mask |= static_cast<std::uint32_t>(e.cat);
                found = true;
                break;
            }
        }
        if (!found) {
            std::string valid = "all";
            for (const CategoryEntry &e : category_table)
                valid += std::string(", ") + e.name;
            fatal("trace: unknown category '%s' (valid: %s)",
                  tok.c_str(), valid.c_str());
        }
    }
    return mask;
}

Session::Session(const Options &opt)
    : opt_(opt)
{
    if (opt_.buffer_capacity == 0)
        fatal("trace: buffer_capacity must be positive");
    ring_.reserve(opt_.buffer_capacity);
}

void
Session::record(const Event &e)
{
    ++recorded_;
    if (ring_.size() < opt_.buffer_capacity) {
        ring_.push_back(e);
        return;
    }
    // Full: overwrite the oldest slot so the tail of the run survives
    // (the interesting part of a long trace is usually its end).
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
}

void
Session::span(Category c, std::uint32_t track, const char *name,
              Cycle start, Cycle end, std::uint64_t arg)
{
    Event e;
    e.ts = start;
    e.dur = end > start ? end - start : 0;
    e.arg = arg;
    e.name = name;
    e.track = track;
    e.cat = c;
    e.kind = EventKind::Span;
    record(e);
}

void
Session::instant(Category c, std::uint32_t track, const char *name,
                 Cycle ts, std::uint64_t arg)
{
    Event e;
    e.ts = ts;
    e.arg = arg;
    e.name = name;
    e.track = track;
    e.cat = c;
    e.kind = EventKind::Instant;
    record(e);
}

void
Session::instantText(Category c, std::uint32_t track,
                     const std::string &text, Cycle ts)
{
    instant(c, track, intern(text), ts);
}

void
Session::defineProcess(std::uint32_t pid, std::string name)
{
    processes_.push_back({pid, std::move(name)});
}

void
Session::defineThread(std::uint32_t pid, std::uint32_t tid,
                      std::string name)
{
    threads_.push_back({pid, tid, std::move(name)});
}

void
Session::addCounter(std::uint32_t pid, const std::string &name,
                    std::function<double()> sampler)
{
    counters_.push_back({pid, intern(name), std::move(sampler)});
}

void
Session::sampleCounters(Cycle now)
{
    for (const CounterDef &c : counters_) {
        Event e;
        e.ts = now;
        e.value = c.sampler();
        e.name = c.name;
        e.track = makeTrack(c.pid, 0);
        e.cat = Category::Kernel;  // counters bypass category masking
        e.kind = EventKind::Counter;
        record(e);
    }
}

void
Session::forEach(const std::function<void(const Event &)> &fn) const
{
    const std::size_t n = ring_.size();
    for (std::size_t i = 0; i < n; ++i)
        fn(ring_[(head_ + i) % n]);
}

const char *
Session::intern(const std::string &text)
{
    interned_.push_back(text);
    return interned_.back().c_str();
}

} // namespace trace
} // namespace carve
