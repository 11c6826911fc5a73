/**
 * @file
 * Thin client for the carve-served protocol: one connection, blocking
 * request/response calls, optional consumption of streamed progress
 * events. Used by carve-sweep --server and the service tests; the
 * protocol itself is documented in protocol.hh.
 */

#ifndef CARVE_SERVICE_CLIENT_HH
#define CARVE_SERVICE_CLIENT_HH

#include <functional>
#include <optional>
#include <string>

#include "harness/run_spec.hh"
#include "service/protocol.hh"

namespace carve {
namespace service {

/** Outcome of a submit call. */
struct SubmitReply
{
    bool ok = false;
    /** Rejected with "retriable" (queue full): drain and resubmit. */
    bool retriable = false;
    std::string error;
    std::string id;        ///< content-addressed job key
    std::string state;     ///< job state at submission time
    bool cached = false;   ///< record already available, no new run
};

/** Outcome of a result call. */
struct ResultReply
{
    bool ok = false;
    std::string error;
    std::string state;
    bool cached = false;
    /** Server-side execution time (0 for cache hits). */
    double wall_seconds = 0.0;
    /** Present when state == "done": the run record, dump(0) bytes
     * (byte-identical for cached and fresh results). */
    std::string record_json;
    /** Parsed form of record_json. */
    harness::RunResult run;
};

class Client
{
  public:
    /** (event name, job id, job state) for each streamed event. */
    using EventFn = std::function<void(const std::string &,
                                       const std::string &,
                                       const std::string &)>;

    /**
     * Connect to @p socket_path and validate the protocol schema via
     * ping. nullopt (with a warn()) when the server is unreachable
     * or speaks a different protocol version.
     */
    static std::optional<Client> connect(const std::string &socket_path);

    /** Submit one job. A traced job (opts.trace.enabled) is refused
     * here, before anything is sent: its trace file would be written
     * on the daemon side. */
    SubmitReply submit(const JobSpec &spec);

    /**
     * Fetch the record of @p id, blocking until it is terminal.
     * Progress events stream into @p on_event (may be empty).
     */
    ResultReply result(const std::string &id, EventFn on_event = {});

    /** Cancel @p id; true when the job was still queued. */
    bool cancel(const std::string &id);

    /** The server's "stats" payload. */
    json::Value stats();

    /** The server's "metrics" payload: a Prometheus text-exposition
     * dump of every live counter. Empty string on failure. */
    std::string metrics();

    /** Raw request/response (events skipped); null Value on I/O loss. */
    json::Value request(const json::Value &req, EventFn on_event = {});

    unsigned serverThreads() const { return server_threads_; }

  private:
    explicit Client(LineChannel chan) : chan_(std::move(chan)) {}

    LineChannel chan_;
    unsigned server_threads_ = 0;
};

/** The JobSpec of a harness RunSpec: a member-wise copy with the
 * preset spelled by presetName(). */
JobSpec jobFromRunSpec(const harness::RunSpec &spec);

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_CLIENT_HH
