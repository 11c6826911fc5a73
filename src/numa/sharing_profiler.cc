#include "numa/sharing_profiler.hh"

#include <bit>

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

double
SharingBreakdown::fracPrivate() const
{
    const std::uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(private_accesses) /
                        static_cast<double>(t);
}

double
SharingBreakdown::fracReadOnlyShared() const
{
    const std::uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(read_only_shared) /
                        static_cast<double>(t);
}

double
SharingBreakdown::fracReadWriteShared() const
{
    const std::uint64_t t = total();
    return t == 0 ? 0.0
                  : static_cast<double>(read_write_shared) /
                        static_cast<double>(t);
}

SharingProfiler::SharingProfiler(std::uint64_t page_size,
                                 std::uint64_t line_size,
                                 bool track_pages, bool track_lines)
    : page_size_(page_size), line_size_(line_size),
      track_pages_(track_pages), track_lines_(track_lines)
{
    if (!isPowerOf2(page_size) || !isPowerOf2(line_size))
        fatal("SharingProfiler: granularities must be powers of two");
}

void
SharingProfiler::record(Addr addr, NodeId node, AccessType type)
{
    carve_assert(node < 16);
    const auto bit = static_cast<std::uint16_t>(1u << node);
    if (track_pages_) {
        Entry &e = pages_[alignDown(addr, page_size_)];
        ++e.accesses;
        if (isWrite(type))
            e.writers |= bit;
        else
            e.readers |= bit;
    }
    if (track_lines_) {
        Entry &e = lines_[alignDown(addr, line_size_)];
        ++e.accesses;
        if (isWrite(type))
            e.writers |= bit;
        else
            e.readers |= bit;
    }
}

void
SharingProfiler::absorb(SharingProfiler &other)
{
    const auto merge = [](std::unordered_map<Addr, Entry> &into,
                          std::unordered_map<Addr, Entry> &from) {
        for (const auto &[addr, e] : from) {
            Entry &dst = into[addr];
            dst.accesses += e.accesses;
            dst.readers |= e.readers;
            dst.writers |= e.writers;
        }
        from.clear();
    };
    merge(pages_, other.pages_);
    merge(lines_, other.lines_);
}

SharingClass
SharingProfiler::classify(const Entry &e)
{
    const std::uint16_t touchers = e.readers | e.writers;
    if (std::popcount(touchers) <= 1)
        return SharingClass::Private;
    return e.writers == 0 ? SharingClass::ReadOnlyShared
                          : SharingClass::ReadWriteShared;
}

SharingBreakdown
SharingProfiler::breakdown(const std::unordered_map<Addr, Entry> &map)
{
    SharingBreakdown b;
    for (const auto &[addr, e] : map) {
        switch (classify(e)) {
          case SharingClass::Private:
            b.private_accesses += e.accesses;
            break;
          case SharingClass::ReadOnlyShared:
            b.read_only_shared += e.accesses;
            break;
          case SharingClass::ReadWriteShared:
            b.read_write_shared += e.accesses;
            break;
        }
    }
    return b;
}

std::uint64_t
SharingProfiler::sharedBytes(const std::unordered_map<Addr, Entry> &map,
                             std::uint64_t granule)
{
    std::uint64_t n = 0;
    for (const auto &[addr, e] : map) {
        if (std::popcount(
                static_cast<std::uint16_t>(e.readers | e.writers)) > 1)
            ++n;
    }
    return n * granule;
}

SharingBreakdown
SharingProfiler::pageBreakdown() const
{
    return breakdown(pages_);
}

SharingBreakdown
SharingProfiler::lineBreakdown() const
{
    return breakdown(lines_);
}

std::uint64_t
SharingProfiler::sharedPageFootprint() const
{
    return sharedBytes(pages_, page_size_);
}

std::uint64_t
SharingProfiler::sharedLineFootprint() const
{
    return sharedBytes(lines_, line_size_);
}

std::uint64_t
SharingProfiler::totalPageFootprint() const
{
    return pages_.size() * page_size_;
}

SharingClass
SharingProfiler::pageClass(Addr addr) const
{
    const auto it = pages_.find(alignDown(addr, page_size_));
    return it == pages_.end() ? SharingClass::Private
                              : classify(it->second);
}

SharingClass
SharingProfiler::lineClass(Addr addr) const
{
    const auto it = lines_.find(alignDown(addr, line_size_));
    return it == lines_.end() ? SharingClass::Private
                              : classify(it->second);
}

void
SharingProfiler::registerStats(stats::StatGroup &g)
{
    g.addDerivedInt("page_private",
                    [this] { return pageBreakdown().private_accesses; });
    g.addDerivedInt("page_read_only",
                    [this] { return pageBreakdown().read_only_shared; });
    g.addDerivedInt("page_read_write",
                    [this] { return pageBreakdown().read_write_shared; });
    g.addDerivedInt("line_private",
                    [this] { return lineBreakdown().private_accesses; });
    g.addDerivedInt("line_read_only",
                    [this] { return lineBreakdown().read_only_shared; });
    g.addDerivedInt("line_read_write",
                    [this] { return lineBreakdown().read_write_shared; });
    g.addDerivedInt("shared_page_bytes",
                    [this] { return sharedPageFootprint(); });
    g.addDerivedInt("shared_line_bytes",
                    [this] { return sharedLineFootprint(); });
    g.addDerivedInt("total_page_bytes",
                    [this] { return totalPageFootprint(); });
}

} // namespace carve
