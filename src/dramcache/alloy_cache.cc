#include "dramcache/alloy_cache.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

AlloyCache::AlloyCache(std::uint64_t size, std::uint64_t line_size)
    : line_size_(line_size)
{
    if (line_size == 0 || size == 0 || size % line_size != 0)
        fatal("AlloyCache: size must be a nonzero multiple of the "
              "line size");
    sets_ = size / line_size;
}

RdcLookup
AlloyCache::lookup(Addr line_addr, std::uint32_t epoch)
{
    ++probes_;
    const auto it = sets_map_.find(setIndex(line_addr));
    if (it == sets_map_.end() || !it->second.valid ||
        it->second.tag != line_addr) {
        ++misses_;
        return RdcLookup::Miss;
    }
    if (it->second.epoch != epoch) {
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
    SetEntry &entry = sets_map_[setIndex(line_addr)];
    std::optional<RdcVictim> victim;
    if (entry.valid && entry.tag != line_addr) {
        ++conflicts_;
        if (entry.dirty)
            ++dirty_evictions_;
        victim = RdcVictim{entry.tag, entry.home, entry.dirty};
    }
    entry.tag = line_addr;
    entry.epoch = epoch;
    entry.home = home;
    entry.valid = true;
    entry.dirty = dirty;
    return victim;
}

bool
AlloyCache::markDirty(Addr line_addr, std::uint32_t epoch)
{
    const auto it = sets_map_.find(setIndex(line_addr));
    if (it == sets_map_.end() || !it->second.valid ||
        it->second.tag != line_addr || it->second.epoch != epoch) {
        return false;
    }
    it->second.dirty = true;
    return true;
}

bool
AlloyCache::lineDirty(Addr line_addr) const
{
    const auto it = sets_map_.find(setIndex(line_addr));
    return it != sets_map_.end() && it->second.valid &&
        it->second.tag == line_addr && it->second.dirty;
}

void
AlloyCache::cleanAll()
{
    for (auto &kv : sets_map_)
        kv.second.dirty = false;
}

bool
AlloyCache::peek(Addr line_addr, std::uint32_t epoch) const
{
    const auto it = sets_map_.find(setIndex(line_addr));
    return it != sets_map_.end() && it->second.valid &&
        it->second.tag == line_addr && it->second.epoch == epoch;
}

bool
AlloyCache::invalidateLine(Addr line_addr)
{
    const auto it = sets_map_.find(setIndex(line_addr));
    if (it == sets_map_.end() || !it->second.valid ||
        it->second.tag != line_addr) {
        return false;
    }
    it->second.valid = false;
    return true;
}

void
AlloyCache::clear()
{
    sets_map_.clear();
}

} // namespace carve
