#include "cache/tag_array.hh"

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

TagArray::TagArray(std::uint64_t size, unsigned ways,
                   std::uint64_t line_size, ReplPolicy policy,
                   std::uint64_t seed)
    : ways_(ways), line_size_(line_size), line_div_(line_size),
      replacer_(policy, seed)
{
    if (ways == 0 || line_size == 0 || size == 0)
        fatal("TagArray: degenerate geometry");
    if (size % (static_cast<std::uint64_t>(ways) * line_size) != 0)
        fatal("TagArray: size not divisible by ways*line_size");
    sets_ = size / (static_cast<std::uint64_t>(ways) * line_size);
    set_div_ = Divisor(sets_);
    tags_.assign(sets_ * ways_, kFreeTag);
    flags_.assign(sets_ * ways_, 0);
    last_use_.assign(sets_ * ways_, 0);
    valid_scratch_.resize(ways_);
    use_scratch_.resize(ways_);
}

TagArray::LineIdx
TagArray::lookup(Addr addr, bool touch)
{
    const Addr line_addr = alignDown(addr, line_size_);
    const std::size_t base = wayBase(setIndex(addr));
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags_[base + w] == line_addr) {
            if (touch)
                last_use_[base + w] = ++tick_;
            return static_cast<LineIdx>(base + w);
        }
    }
    return no_line;
}

TagArray::LineIdx
TagArray::peek(Addr addr) const
{
    const Addr line_addr = alignDown(addr, line_size_);
    const std::size_t base = wayBase(setIndex(addr));
    for (unsigned w = 0; w < ways_; ++w) {
        if (tags_[base + w] == line_addr)
            return static_cast<LineIdx>(base + w);
    }
    return no_line;
}

std::optional<Evicted>
TagArray::insert(Addr addr, bool remote)
{
    const Addr line_addr = alignDown(addr, line_size_);
    carve_assert(peek(addr) == no_line);

    const std::size_t base = wayBase(setIndex(addr));
    for (unsigned w = 0; w < ways_; ++w) {
        valid_scratch_[w] = flags_[base + w] & kValid;
        use_scratch_[w] = last_use_[base + w];
    }
    const unsigned way = replacer_.victim(valid_scratch_, use_scratch_);

    const std::size_t i = base + way;
    std::optional<Evicted> evicted;
    if (flags_[i] & kValid)
        evicted = Evicted{tags_[i], (flags_[i] & kDirty) != 0,
                          (flags_[i] & kRemote) != 0};

    tags_[i] = line_addr;
    flags_[i] = static_cast<std::uint8_t>(
        kValid | (remote ? kRemote : 0));
    last_use_[i] = ++tick_;
    return evicted;
}

void
TagArray::dropLine(std::uint64_t i)
{
    tags_[i] = kFreeTag;
    flags_[i] = 0;
}

bool
TagArray::invalidate(Addr addr)
{
    const LineIdx i = peek(addr);
    if (i == no_line)
        return false;
    dropLine(i);
    return true;
}

std::uint64_t
TagArray::invalidateAll()
{
    std::uint64_t dropped = 0;
    const std::uint64_t n = sets_ * ways_;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (flags_[i] & kValid) {
            dropLine(i);
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TagArray::invalidateRemote()
{
    std::uint64_t dropped = 0;
    const std::uint64_t n = sets_ * ways_;
    for (std::uint64_t i = 0; i < n; ++i) {
        if ((flags_[i] & (kValid | kRemote)) == (kValid | kRemote)) {
            dropLine(i);
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TagArray::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint8_t f : flags_) {
        if (f & kValid)
            ++n;
    }
    return n;
}

} // namespace carve
