#include "cache/mshr.hh"

#include "common/logging.hh"

namespace carve {

MshrFile::MshrFile(unsigned num_entries, Arena *arena, EventQueue *eq)
    : capacity_(num_entries), waiters_(arena), eq_(eq)
{
    if (num_entries == 0)
        fatal("MshrFile: need at least one entry");
    // A full file then sits at half load, so probes stay short.
    entries_.reserve(2 * std::size_t{num_entries});
}

MshrOutcome
MshrFile::allocate(Addr line_addr, Callback cb)
{
    if (Entry *e = entries_.find(line_addr)) {
        const std::uint32_t w = waiters_.alloc({cb, npos});
        waiters_[e->tail].next = w;
        e->tail = w;
        ++merges_;
        return MshrOutcome::Merged;
    }
    if (full()) {
        ++rejections_;
        return MshrOutcome::Full;
    }
    const std::uint32_t w = waiters_.alloc({cb, npos});
    entries_.insert({line_addr, w, w, lifetime_.on() ? eq_->now() : 0});
    return MshrOutcome::NewEntry;
}

std::size_t
MshrFile::complete(Addr line_addr)
{
    Entry *e = entries_.find(line_addr);
    if (e == nullptr)
        panic("MshrFile: completing untracked line %llx",
              static_cast<unsigned long long>(line_addr));

    if (lifetime_.on())
        lifetime_.span(e->born, eq_->now(), line_addr);

    // Detach the entry before firing: callbacks may allocate new
    // entries (even for this same line).
    std::uint32_t w = e->head;
    entries_.erase(e);

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
    while (wake_head_ != npos && !full()) {
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
