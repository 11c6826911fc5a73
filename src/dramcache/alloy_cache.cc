#include "dramcache/alloy_cache.hh"

#include <limits>

#include "common/logging.hh"

namespace carve {

namespace {

/** Validated before the set store's geometry divides by it. */
std::uint64_t
checkedSets(std::uint64_t size, std::uint64_t line_size)
{
    if (line_size == 0 || size == 0 || size % line_size != 0)
        fatal("AlloyCache: size must be a nonzero multiple of the "
              "line size");
    return size / line_size;
}

} // namespace

AlloyCache::AlloyCache(std::uint64_t size, std::uint64_t line_size)
    : line_size_(line_size), sets_(checkedSets(size, line_size)),
      sets_map_(SetKey{Divisor(line_size), Divisor(sets_)})
{
}

const AlloyCache::SetEntry *
AlloyCache::resident(Addr line_addr) const
{
    const SetEntry *e = sets_map_.find(setIndex(line_addr));
    return e != nullptr && e->valid && e->tag == line_addr ? e : nullptr;
}

RdcLookup
AlloyCache::lookup(Addr line_addr, std::uint32_t epoch)
{
    ++probes_;
    const SetEntry *e = resident(line_addr);
    if (e == nullptr) {
        ++misses_;
        return RdcLookup::Miss;
    }
    if (e->epoch != epoch) {
        ++stale_;
        return RdcLookup::StaleEpoch;
    }
    ++hits_;
    return RdcLookup::Hit;
}

std::optional<RdcVictim>
AlloyCache::insert(Addr line_addr, std::uint32_t epoch, bool dirty,
                   NodeId home)
{
    carve_assert(home <= std::numeric_limits<std::uint16_t>::max());
    const SetEntry next{line_addr, epoch,
                        static_cast<std::uint16_t>(home), true, dirty};
    const auto [entry, inserted] = sets_map_.insert(next);
    std::optional<RdcVictim> victim;
    if (!inserted) {
        if (entry->valid && entry->tag != line_addr) {
            ++conflicts_;
            if (entry->dirty)
                ++dirty_evictions_;
            victim = RdcVictim{entry->tag, entry->home, entry->dirty};
        }
        *entry = next;
    }
    return victim;
}

bool
AlloyCache::markDirty(Addr line_addr, std::uint32_t epoch)
{
    SetEntry *e = sets_map_.find(setIndex(line_addr));
    if (e == nullptr || !e->valid || e->tag != line_addr ||
        e->epoch != epoch) {
        return false;
    }
    e->dirty = true;
    return true;
}

bool
AlloyCache::lineDirty(Addr line_addr) const
{
    const SetEntry *e = resident(line_addr);
    return e != nullptr && e->dirty;
}

void
AlloyCache::cleanAll()
{
    sets_map_.forEach([](SetEntry &e) { e.dirty = false; });
}

bool
AlloyCache::peek(Addr line_addr, std::uint32_t epoch) const
{
    const SetEntry *e = resident(line_addr);
    return e != nullptr && e->epoch == epoch;
}

bool
AlloyCache::invalidateLine(Addr line_addr)
{
    SetEntry *e = sets_map_.find(setIndex(line_addr));
    if (e == nullptr || !e->valid || e->tag != line_addr)
        return false;
    e->valid = false;
    return true;
}

void
AlloyCache::clear()
{
    sets_map_.clear();
}

} // namespace carve
