#include "mem/dram_channel.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/units.hh"

namespace carve {

DramChannel::DramChannel(EventQueue &eq, const DramConfig &cfg,
                         std::uint64_t line_size, Completion retry)
    : eq_(eq), cfg_(cfg), line_size_(line_size),
      burst_cycles_(static_cast<Cycle>(std::ceil(
          static_cast<double>(line_size) / cfg.channel_bw))),
      banks_(cfg.banks_per_channel), retry_(retry)
{
    carve_assert(retry_);
    if (burst_cycles_ == 0)
        burst_cycles_ = 1;
}

bool
DramChannel::enqueue(DramRequest req)
{
    auto &q = isWrite(req.type) ? write_q_ : read_q_;
    const std::size_t limit =
        isWrite(req.type) ? cfg_.write_queue : cfg_.read_queue;
    if (q.size() >= limit) {
        reject_seen_ = true;
        return false;
    }
    req.enqueued_at = eq_.now();
    q.push_back(std::move(req));
    trySchedule();
    return true;
}

double
DramChannel::rowHitRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &b : banks_) {
        hits += b.rowHits();
        misses += b.rowMisses();
    }
    const std::uint64_t total = hits + misses;
    return total == 0
        ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
}

std::size_t
DramChannel::pickFrFcfs(const std::deque<DramRequest> &q) const
{
    // First-ready: oldest row-buffer hit wins; otherwise oldest
    // overall. Real schedulers only examine a window of the queue;
    // capping the scan also bounds simulation cost.
    constexpr std::size_t scan_window = 16;
    const std::size_t limit = std::min(q.size(), scan_window);
    for (std::size_t i = 0; i < limit; ++i) {
        if (banks_[q[i].bank].isOpenRow(q[i].row))
            return i;
    }
    return 0;
}

void
DramChannel::trySchedule()
{
    if (issue_pending_)
        return;
    if (read_q_.empty() && write_q_.empty())
        return;
    issue_pending_ = true;
    const Cycle start = std::max(eq_.now(), bus_free_at_);
    eq_.schedule(start, bindEvent<&DramChannel::issueTick>(this));
}

void
DramChannel::issueTick()
{
    issue_pending_ = false;

    // Hysteresis on the write queue: start draining at the high
    // mark, keep going until the low mark (writes batched, reads
    // prioritized otherwise -- Section III of the paper).
    const auto high = static_cast<std::size_t>(
        cfg_.write_drain_high * cfg_.write_queue);
    const auto low = static_cast<std::size_t>(
        cfg_.write_drain_low * cfg_.write_queue);
    if (write_q_.size() >= high)
        draining_writes_ = true;
    if (write_q_.size() <= low)
        draining_writes_ = false;

    if ((draining_writes_ || read_q_.empty()) && !write_q_.empty())
        issue(write_q_, pickFrFcfs(write_q_));
    else if (!read_q_.empty())
        issue(read_q_, pickFrFcfs(read_q_));
    else
        return;

    if (reject_seen_) {
        reject_seen_ = false;
        retry_();
    }
    trySchedule();
}

void
DramChannel::issue(std::deque<DramRequest> &q, std::size_t idx)
{
    carve_assert(idx < q.size());
    DramRequest req = std::move(q[idx]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));

    const bool row_hit = banks_[req.bank].access(req.row);
    const Cycle access_lat =
        row_hit ? cfg_.row_hit_latency : cfg_.row_miss_latency;

    const Cycle start = eq_.now();
    bus_free_at_ = start + burst_cycles_;
    busy_cycles_ += burst_cycles_;

    (isWrite(req.type) ? write_burst_ : read_burst_)
        .span(start, start + burst_cycles_, req.row);

    if (isWrite(req.type)) {
        ++writes_issued_;
        // Posted write: signal completion at issue time.
        if (req.on_done)
            eq_.schedule(start, std::move(req.on_done));
    } else {
        ++reads_issued_;
        read_q_delay_.sample(
            static_cast<double>(start - req.enqueued_at));
        if (req.on_done) {
            eq_.schedule(start + access_lat + burst_cycles_,
                         std::move(req.on_done));
        }
    }
}

} // namespace carve
