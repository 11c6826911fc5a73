/**
 * @file
 * The instrumentation layer. A Probe carries the sinks of one
 * measured moment: an optional telemetry histogram and an optional
 * trace row. A component gets its probes from one instrument() call
 * (MultiGpuSystem reaches every component in one pass) and each site
 * makes one probe call; with no sinks, that call costs one test.
 */

#ifndef CARVE_TRACE_PROBE_HH
#define CARVE_TRACE_PROBE_HH

#include <cstdint>

#include "common/types.hh"
#include "telemetry/histogram.hh"
#include "trace/trace.hh"

namespace carve {
namespace trace {

/** @p h when telemetry is @p on, else null: the histogram sink an
 * instrument() call hands to a Probe. */
inline telemetry::Histogram *
histogramIf(bool on, telemetry::Histogram &h)
{
    return on ? &h : nullptr;
}

/** The sinks of one measured moment; a small value the owning
 * component holds per site. */
class Probe
{
  public:
    /** No sinks: on() is false and every call is a no-op. */
    Probe() = default;

    /** Histogram sink only (@p hist may be null: no sink). */
    explicit Probe(telemetry::Histogram *hist)
        : hist_(hist), on_(hist != nullptr)
    {}

    /**
     * Trace row @p track of @p session, labelled with the static
     * string @p name under category @p cat, plus the optional
     * histogram @p hist. The category mask is resolved here: a null
     * session, or one that masks @p cat, leaves no trace sink.
     */
    Probe(Session *session, Category cat, std::uint32_t track,
          const char *name, telemetry::Histogram *hist = nullptr)
        : hist_(hist),
          session_(session != nullptr && session->wants(cat) ? session
                                                             : nullptr),
          cat_(cat), track_(track), name_(name),
          on_(hist_ != nullptr || session_ != nullptr)
    {}

    /** True when any sink listens; a site that must stamp a start
     * time tests this before stamping. */
    bool on() const { return on_; }

    /** The histogram sink, or null; an owner registers the histogram
     * as a stat exactly when the probe that feeds it holds it. */
    telemetry::Histogram *histogram() const { return hist_; }

    /** The interval [start, end): its length into the histogram and
     * a span with payload @p arg on the trace row. */
    void
    span(Cycle start, Cycle end, std::uint64_t arg = 0) const
    {
        if (!on_)
            return;
        if (hist_)
            hist_->sample(end - start);
        if (session_)
            session_->span(cat_, track_, name_, start, end, arg);
    }

    /** A moment: an instant with payload @p arg on the trace row. */
    void
    instant(Cycle at, std::uint64_t arg = 0) const
    {
        if (session_)
            session_->instant(cat_, track_, name_, at, arg);
    }

  private:
    telemetry::Histogram *hist_ = nullptr;
    Session *session_ = nullptr;
    Category cat_ = Category::Sm;
    std::uint32_t track_ = 0;
    const char *name_ = "";
    bool on_ = false;
};

} // namespace trace
} // namespace carve

#endif // CARVE_TRACE_PROBE_HH
