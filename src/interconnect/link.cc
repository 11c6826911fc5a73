#include "interconnect/link.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace carve {

Link::Link(DomainEngine &engine, unsigned dst_domain,
           std::string name, double bytes_per_cycle, Cycle latency)
    : engine_(engine), dst_domain_(dst_domain),
      name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle), latency_(latency)
{
    if (bytes_per_cycle <= 0.0)
        fatal("Link %s: non-positive bandwidth", name_.c_str());
}

void
Link::instrument(trace::Session *session, std::uint32_t track,
                 bool telemetry, audit::InflightTracker *audit)
{
    audit_ = audit;
    queue_ = trace::Probe(trace::histogramIf(telemetry, queue_delay_hist_));
    wire_ = trace::Probe(session, trace::Category::Link, track, "pkt");
    if (!session)
        return;
    const std::uint32_t pid = trace::trackPid(track);
    session->defineThread(pid, trace::trackTid(track), name_);
    // Windowed utilization: busy-cycle delta over one sample
    // interval, so the counter shows instantaneous saturation rather
    // than the end-to-end average.
    const Cycle interval = session->sampleInterval();
    session->addCounter(
        pid, "util " + name_,
        [this, interval, prev = std::uint64_t{0}]() mutable {
            const std::uint64_t busy = busyCycles();
            const double u = interval > 0
                ? static_cast<double>(busy - prev) /
                      static_cast<double>(interval)
                : 0.0;
            prev = busy;
            return u;
        });
}

void
Link::send(std::uint64_t bytes, Callback delivered)
{
    carve_assert(bytes > 0);
    const auto occupancy = static_cast<Cycle>(std::ceil(
        static_cast<double>(bytes) / bytes_per_cycle_));

    const Cycle now = engine_.now();
    const Cycle start = std::max(now, wire_free_at_);
    wire_free_at_ = start + occupancy;

    bytes_sent_ += bytes;
    ++packets_;
    busy_cycles_ += occupancy;
    queue_delay_.sample(static_cast<double>(start - now));
    queue_.span(now, start);
    wire_.span(start, start + occupancy, bytes);

    const Cycle arrival = wire_free_at_ + latency_;
    if (audit_) {
        // The token retires at the receiver, in its own event just
        // ahead of the delivery: a wrapper around the delivery would
        // outgrow EventFn's inline buffer and box once per packet.
        audit_->issue(audit::Boundary::LinkDelivery);
        engine_.post(dst_domain_, arrival,
                     bindEvent<&audit::InflightTracker::retire>(
                         audit_, audit::Boundary::LinkDelivery));
    }
    engine_.post(dst_domain_, arrival, std::move(delivered));
}

} // namespace carve
