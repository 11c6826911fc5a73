#include "cache/mshr.hh"

#include <bit>

#include "common/logging.hh"

namespace carve {

MshrFile::MshrFile(unsigned num_entries, Arena *arena, EventQueue *eq)
    : capacity_(num_entries), waiters_(arena), eq_(eq)
{
    if (num_entries == 0)
        fatal("MshrFile: need at least one entry");
    const std::uint32_t table = std::bit_ceil(
        std::max<std::uint32_t>(16, num_entries * 2));
    mask_ = table - 1;
    slot_addr_.assign(table, kEmpty);
    head_.assign(table, npos);
    tail_.assign(table, npos);
    born_.assign(table, 0);
}

std::uint32_t
MshrFile::insertSlot(Addr a)
{
    std::uint32_t i = homeSlot(a);
    while (slot_addr_[i] != kEmpty)
        i = (i + 1) & mask_;
    slot_addr_[i] = a;
    return i;
}

void
MshrFile::eraseSlot(std::uint32_t i)
{
    // Backward-shift deletion: walk the probe chain after the hole
    // and pull back any entry whose home slot does not lie strictly
    // between the hole and its current position.
    std::uint32_t j = i;
    for (;;) {
        slot_addr_[i] = kEmpty;
        for (;;) {
            j = (j + 1) & mask_;
            if (slot_addr_[j] == kEmpty)
                return;
            const std::uint32_t k = homeSlot(slot_addr_[j]);
            const bool stays = i <= j ? (i < k && k <= j)
                                      : (i < k || k <= j);
            if (!stays)
                break;
        }
        slot_addr_[i] = slot_addr_[j];
        head_[i] = head_[j];
        tail_[i] = tail_[j];
        born_[i] = born_[j];
        i = j;
    }
}

MshrOutcome
MshrFile::allocate(Addr line_addr, Callback cb)
{
    const std::uint32_t found = findSlot(line_addr);
    if (found != npos) {
        const std::uint32_t w = waiters_.alloc({cb, npos});
        waiters_[tail_[found]].next = w;
        tail_[found] = w;
        ++merges_;
        return MshrOutcome::Merged;
    }
    if (live_ >= capacity_) {
        ++rejections_;
        return MshrOutcome::Full;
    }
    const std::uint32_t i = insertSlot(line_addr);
    const std::uint32_t w = waiters_.alloc({cb, npos});
    head_[i] = tail_[i] = w;
    if (lifetime_.on())
        born_[i] = eq_->now();
    ++live_;
    return MshrOutcome::NewEntry;
}

std::size_t
MshrFile::complete(Addr line_addr)
{
    const std::uint32_t i = findSlot(line_addr);
    if (i == npos)
        panic("MshrFile: completing untracked line %llx",
              static_cast<unsigned long long>(line_addr));

    if (lifetime_.on())
        lifetime_.span(born_[i], eq_->now(), line_addr);

    // Detach the entry before firing: callbacks may allocate new
    // entries (even for this same line).
    std::uint32_t w = head_[i];
    head_[i] = tail_[i] = npos;
    eraseSlot(i);
    --live_;

    std::size_t fired = 0;
    while (w != npos) {
        const Waiter wt = waiters_[w];
        waiters_.free(w);
        w = wt.next;
        ++fired;
        if (wt.fn)
            wt.fn();
    }

    // A register is free now: wake parked requests. The drain runs as
    // its own event at the current tick so it claims a (tick, seq)
    // slot on the owning domain's queue — wake order is deterministic
    // and identical under the serial and parallel engines.
    maybeScheduleDrain();
    return fired;
}

void
MshrFile::park(Completion retry)
{
    if (!eq_)
        fatal("MshrFile: park() needs an event queue "
              "(none was passed at construction)");
    ++parks_;
    if (park_.on())
        park_stamps_.push_back(eq_->now());
    const std::uint32_t w = waiters_.alloc({retry, npos});
    if (wake_tail_ == npos) {
        wake_head_ = wake_tail_ = w;
    } else {
        waiters_[wake_tail_].next = w;
        wake_tail_ = w;
    }
    ++parked_count_;
}

void
MshrFile::maybeScheduleDrain()
{
    if (wake_head_ == npos || drain_scheduled_)
        return;
    drain_scheduled_ = true;
    eq_->schedule(eq_->now(),
                  bindEvent<&MshrFile::drainWaiters>(this));
}

void
MshrFile::drainWaiters()
{
    drain_scheduled_ = false;
    // Wake only as many waiters as the file can absorb: each one runs
    // with a free register in hand, so the head waiter always makes
    // progress (it merges or takes the register) and nobody behind it
    // is woken just to re-park — waking the whole list per fill is
    // O(parked) work per completion and measurably tanks saturated
    // runs. Leftover waiters keep their FIFO order; the next
    // complete() schedules another drain.
    while (wake_head_ != npos && live_ < capacity_) {
        const std::uint32_t w = wake_head_;
        const Waiter wt = waiters_[w];
        waiters_.free(w);
        wake_head_ = wt.next;
        if (wake_head_ == npos)
            wake_tail_ = npos;
        --parked_count_;
        if (park_.on()) {
            park_.span(park_stamps_.front(), eq_->now());
            park_stamps_.pop_front();
        }
        wt.fn();
    }
}

} // namespace carve
