/**
 * @file
 * Open-addressed hash table over flat slots, for the state the
 * simulator reads on every access: the MSHR entries, the RDC tag
 * store, the IMST line states and the page manager's per-window
 * overlay.
 *
 * Each slot is a trivially copyable record that carries its own key,
 * so a probe reads one contiguous array and chases no node pointer.
 * Probing is linear from a Fibonacci hash; the load stays at or below
 * 3/4; erase shifts the rest of the probe run back, so there are no
 * tombstones. Storage is allocated on the first insert, or by
 * reserve(), and doubles when an insert would pass 3/4 load. A table
 * that has reached its working size never allocates again: finds,
 * erases, clear() and inserts of resident keys never do.
 *
 * Growth and erase move slots: a pointer from find() or insert() is
 * valid until the next insert or erase. Iteration order follows the
 * hash, not insertion order; callers whose results could depend on
 * it sort, or combine commutatively.
 */

#ifndef CARVE_COMMON_FLAT_TABLE_HH
#define CARVE_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace carve {

/**
 * @tparam Slot trivially copyable record holding its own key
 * @tparam Traits describes a slot:
 *   - `static constexpr Slot free_slot`: the value of an unused slot;
 *   - `static bool isFree(const Slot &)`;
 *   - `std::uint64_t key(const Slot &) const` of a used slot (it may
 *     read state the traits object carries, such as a geometry).
 */
template <class Slot, class Traits>
class FlatTable
{
    static_assert(std::is_trivially_copyable_v<Slot>,
                  "slots are moved bytewise on growth and erase");

  public:
    explicit FlatTable(Traits traits = Traits{}) : traits_(traits) {}

    /** Used slots. */
    std::size_t size() const { return size_; }
    const Traits &traits() const { return traits_; }

    /** Allocate at least @p slots slots now (for a table whose bound
     * on entries is known, to keep its load low). */
    void
    reserve(std::size_t slots)
    {
        if (slots > slots_.size())
            rehash(std::bit_ceil(std::max(min_slots, slots)));
    }

    /** The slot holding @p key, or nullptr. */
    Slot *
    find(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        return i == npos ? nullptr : &slots_[i];
    }

    const Slot *
    find(std::uint64_t key) const
    {
        const std::size_t i = indexOf(key);
        return i == npos ? nullptr : &slots_[i];
    }

    /**
     * Insert @p slot unless a slot with its key is resident.
     * @return the resident slot for that key, and true when @p slot
     *         was inserted (false: the resident slot is unchanged)
     */
    std::pair<Slot *, bool>
    insert(const Slot &slot)
    {
        const std::uint64_t key = traits_.key(slot);
        std::size_t i = 0;
        if (!slots_.empty()) {
            for (i = home(key); !Traits::isFree(slots_[i]);
                 i = (i + 1) & mask_) {
                if (traits_.key(slots_[i]) == key)
                    return {&slots_[i], false};
            }
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            rehash(std::max(min_slots, slots_.size() * 2));
            i = freeSlotFor(key);
        }
        slots_[i] = slot;
        ++size_;
        return {&slots_[i], true};
    }

    /** Remove @p slot, a used slot that find() or insert() returned
     * since the last insert or erase. */
    void
    erase(Slot *slot)
    {
        auto hole = static_cast<std::size_t>(slot - slots_.data());
        // Pull back each later member of the probe run whose home does
        // not lie cyclically in (hole, its position]; the run then
        // reads as if the erased key had never been inserted.
        for (std::size_t j = (hole + 1) & mask_;
             !Traits::isFree(slots_[j]); j = (j + 1) & mask_) {
            const std::size_t k = home(traits_.key(slots_[j]));
            const bool stays = hole <= j ? (hole < k && k <= j)
                                         : (hole < k || k <= j);
            if (!stays) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Traits::free_slot;
        --size_;
    }

    /** Free every slot, keeping the storage. O(capacity). */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Traits::free_slot);
        size_ = 0;
    }

    /** Call @p fn on every used slot, in slot order. */
    template <class Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : slots_) {
            if (!Traits::isFree(s))
                fn(s);
        }
    }

    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (!Traits::isFree(s))
                fn(s);
        }
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};
    static constexpr std::size_t min_slots = 16;

    /** Fibonacci hash: the top bits of key * 2^64 / phi. Only called
     * once storage exists (shift_ < 64). */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    std::size_t
    indexOf(std::uint64_t key) const
    {
        if (size_ == 0)
            return npos;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (Traits::isFree(slots_[i]))
                return npos;
            if (traits_.key(slots_[i]) == key)
                return i;
        }
    }

    std::size_t
    freeSlotFor(std::uint64_t key) const
    {
        std::size_t i = home(key);
        while (!Traits::isFree(slots_[i]))
            i = (i + 1) & mask_;
        return i;
    }

    /** Move every used slot into @p slots new ones (a power of two). */
    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old(slots, Traits::free_slot);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        shift_ = 64 - static_cast<unsigned>(
                          std::countr_zero(slots_.size()));
        for (const Slot &s : old) {
            if (!Traits::isFree(s))
                slots_[freeSlotFor(traits_.key(s))] = s;
        }
    }

    Traits traits_;
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace carve

#endif // CARVE_COMMON_FLAT_TABLE_HH
