#include "common/event_queue.hh"

#include <bit>
#include <utility>

#include "common/logging.hh"

namespace carve {

namespace {

/** Nodes per pool chunk: amortizes allocation without hoarding. */
constexpr std::size_t pool_chunk = 512;

} // namespace

EventQueue::EventQueue() : ring_(horizon) {}

EventQueue::~EventQueue() = default;

EventQueue::EventNode *
EventQueue::allocNode()
{
    if (!free_) {
        pools_.push_back(std::make_unique<EventNode[]>(pool_chunk));
        EventNode *chunk = pools_.back().get();
        for (std::size_t i = 0; i < pool_chunk; ++i) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }
    EventNode *n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(EventNode *n)
{
    n->fn.reset();
    n->next = free_;
    free_ = n;
}

void
EventQueue::pushRing(EventNode *n)
{
    const std::size_t idx =
        static_cast<std::size_t>(n->when) & (horizon - 1);
    Bucket &b = ring_[idx];
    if (b.tail) {
        b.tail->next = n;
        b.tail = n;
    } else {
        b.head = b.tail = n;
        occ_[idx / 64] |= std::uint64_t{1} << (idx % 64);
    }
    ++ring_count_;
}

void
EventQueue::schedule(Cycle when, EventFn fn)
{
    if (when < now_) {
        fatal("EventQueue: schedule into the past "
              "(when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    }
    EventNode *n = allocNode();
    n->when = when;
    n->seq = next_seq_++;
    n->fn = std::move(fn);
    if (when < window_end_)
        pushRing(n);
    else
        far_.push(n);
}

void
EventQueue::advanceTo(Cycle t)
{
    if (t == now_)
        return;  // same-tick cascade: window already correct
    now_ = t;
    window_end_ = t + horizon;
    // Restore the invariant that every far event lies beyond the
    // window: anything entering it migrates to the ring now, before
    // user code can schedule at those ticks. The heap pops in
    // (when, seq) order, so per-bucket FIFO order stays correct.
    while (!far_.empty() && far_.top()->when < window_end_) {
        EventNode *n = far_.top();
        far_.pop();
        pushRing(n);
    }
}

EventQueue::EventNode *
EventQueue::popNext()
{
    if (ring_count_ == 0 && !far_.empty()) {
        // Ring drained: jump straight to the earliest far event,
        // migrating its whole window in.
        advanceTo(far_.top()->when);
    }

    const std::size_t start =
        static_cast<std::size_t>(now_) & (horizon - 1);

    // Fast path: the bucket for the current tick can only hold events
    // at exactly now_ (now_ + horizon is past window_end_), and
    // same-tick cascades dominate the workload — pop its head without
    // touching the occupancy bitmap scan.
    if (EventNode *n = ring_[start].head) {
        Bucket &b = ring_[start];
        b.head = n->next;
        if (!b.head) {
            b.tail = nullptr;
            occ_[start / 64] &= ~(std::uint64_t{1} << (start % 64));
        }
        n->next = nullptr;
        --ring_count_;
        return n;
    }
    return popScan(start);
}

EventQueue::EventNode *
EventQueue::popScan(std::size_t start)
{
    // Find the first non-empty bucket at or after now_. Bucket
    // indices wrap mod horizon, so circular bit-scan order from
    // (now_ % horizon) is exactly ascending-tick order.
    std::size_t w = start / 64;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t i = 0; i <= occ_words; ++i) {
        if (word) {
            const std::size_t idx =
                w * 64 +
                static_cast<std::size_t>(std::countr_zero(word));
            Bucket &b = ring_[idx];
            EventNode *n = b.head;
            b.head = n->next;
            if (!b.head) {
                b.tail = nullptr;
                occ_[idx / 64] &=
                    ~(std::uint64_t{1} << (idx % 64));
            }
            n->next = nullptr;
            --ring_count_;
            return n;
        }
        w = (w + 1) % occ_words;
        word = occ_[w];
    }
    panic("EventQueue: occupancy bitmap inconsistent "
          "(ring_count=%zu)", ring_count_);
}

void
EventQueue::fireNext()
{
    EventNode *n = popNext();
    advanceTo(n->when);
    ++executed_;
    // Invoke in place: the node is off every list, so the callback may
    // freely schedule further events (the pool just can't recycle this
    // one node until it returns). Saves a relocate per event.
    n->fn();
    freeNode(n);
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && !empty()) {
        fireNext();
        ++n;
    }
    return n;
}

Cycle
EventQueue::nextTick() const
{
    if (ring_count_ == 0)
        return far_.empty() ? no_event : far_.top()->when;

    // Ring events always precede far events (the far heap only holds
    // ticks past window_end_), so scan the ring from now_. The bucket
    // for the current tick is the overwhelmingly common case.
    const std::size_t start =
        static_cast<std::size_t>(now_) & (horizon - 1);
    if (ring_[start].head)
        return now_;
    std::size_t w = start / 64;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start % 64));
    for (std::size_t i = 0; i <= occ_words; ++i) {
        if (word) {
            const std::size_t idx =
                w * 64 +
                static_cast<std::size_t>(std::countr_zero(word));
            // Circular index distance == tick distance from now_.
            const std::size_t delta =
                (idx - start + horizon) & (horizon - 1);
            return now_ + static_cast<Cycle>(delta);
        }
        w = (w + 1) % occ_words;
        word = occ_[w];
    }
    panic("EventQueue: occupancy bitmap inconsistent "
          "(ring_count=%zu)", ring_count_);
}

std::uint64_t
EventQueue::runWindow(Cycle end, std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && nextTick() < end) {
        fireNext();
        ++n;
    }
    return n;
}

} // namespace carve
