/**
 * @file
 * Wire protocol of the carve-served sweep service.
 *
 * Transport: a SOCK_STREAM AF_UNIX socket carrying newline-delimited
 * JSON — every request, response, and streamed event is exactly one
 * '\n'-terminated line holding one JSON object. Requests carry an
 * "op" member ("ping", "submit", "status", "result", "cancel",
 * "stats"); responses answer with "ok" plus op-specific members;
 * server-pushed progress lines carry an "event" member instead of
 * "ok" and may precede the response to a blocking "result" request.
 *
 * A JobSpec is the protocol's unit of work: a harness::RunSpec whose
 * preset is spelled as its presetName() string. Its canonical JSON
 * form (carve-job/3: fixed member order, configuration keys sorted,
 * engine overrides folded into the configuration) is also the
 * preimage of the content-addressed job key (see job_key.hh), so two
 * JobSpecs that describe the same simulation always serialize to
 * identical bytes.
 */

#ifndef CARVE_SERVICE_PROTOCOL_HH
#define CARVE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "core/simulator.hh"
#include "harness/json.hh"
#include "workloads/synthetic.hh"

namespace carve {
namespace service {

/** Protocol identifier exchanged in ping; bump on breaking change. */
inline constexpr const char *kProtocolSchema = "carve-served/1";

/**
 * Job-description schema version. Part of the cache-key preimage:
 * bump it whenever simulation semantics change in a way that makes
 * previously cached results stale (stat additions are fine — they
 * change the result bytes, which invalidates byte-compare workflows,
 * not the mapping from spec to behaviour). /2: the per-GPU
 * event-domain engine re-timed every simulation, and the config dump
 * grew the engine/sim_threads keys (identical results either way, so
 * both serialize into one cache entry per simulation). /3: the
 * options member carries the telemetry switches.
 */
inline constexpr const char *kJobSchema = "carve-job/3";

/**
 * One fully-described simulation request: the members of a
 * harness::RunSpec, except that the preset is its presetName() string
 * ("CARVE-HWC"), resolved by the server.
 */
struct JobSpec
{
    std::string preset;
    /** Complete workload description (regions included): the server
     * never consults the suite tables, so client and server need not
     * agree on them. */
    WorkloadParams workload;
    /** Base configuration the preset derives from. */
    SystemConfig base;
    /** Run options. Not serialized: tolerate_watchdog (executeRun()
     * always sets it) and trace (Client::submit() refuses a traced
     * job, since its trace file would be written daemon-side). */
    RunOptions opts;
    /** See harness::RunSpec::host_stats. */
    bool host_stats = true;
};

/**
 * Canonical JSON form of a JobSpec (carve-job/3): members "schema",
 * "preset", "workload", "config" (the full override-registry dump,
 * sorted by key, with a set opts.engine / opts.sim_threads folded
 * in, so a job has one form however its engine was chosen) and
 * "options" (seed, max_cycles, max_wall_seconds, profile_lines,
 * audit, telemetry.{enabled,host_timing}, host_stats), in that
 * order. Deterministic: equal specs produce identical dump(0) bytes
 * regardless of how their configs were built.
 */
json::Value jobSpecToJson(const JobSpec &spec);

/**
 * Inverse of jobSpecToJson() (the engine choice comes back in
 * base). fatal() (capturable) on missing or ill-typed members and
 * on unknown config/region keys.
 */
JobSpec jobSpecFromJson(const json::Value &v);

/** @p v's string member @p key; @p fallback when absent or not a
 * string (defensive reads of peer messages). */
std::string stringAt(const json::Value &v, const char *key,
                     const char *fallback = "");

/** @p v's bool member @p key; false when absent or not a bool. */
bool boolAt(const json::Value &v, const char *key);

/** Build the uniform failure response {"ok":false,"error":...}. */
json::Value errorResponse(const std::string &op,
                          const std::string &error,
                          bool retriable = false);

/**
 * Newline-delimited message framing over a connected socket fd (owns
 * and closes the fd). Reads are buffered; writes are atomic per line
 * and suppress SIGPIPE so a vanished peer surfaces as an error
 * return, never a signal.
 */
class LineChannel
{
  public:
    /** Takes ownership of @p fd (-1 == empty channel). */
    explicit LineChannel(int fd = -1) : fd_(fd) {}
    ~LineChannel();

    LineChannel(LineChannel &&other) noexcept;
    LineChannel &operator=(LineChannel &&other) noexcept;
    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /**
     * Read one '\n'-terminated line into @p out (terminator
     * stripped). Returns false on orderly EOF or error; a partial
     * line at EOF is discarded.
     */
    bool readLine(std::string &out);

    /** Write @p line plus '\n'. Returns false when the peer is gone. */
    bool writeLine(const std::string &line);

    /** shutdown(2) both directions to unblock a reader; keeps fd. */
    void shutdownBoth();

    /** Close the fd now (also done by the destructor). */
    void close();

  private:
    int fd_ = -1;
    std::string buf_;  ///< bytes received beyond the last line
};

/** Connect to the unix socket at @p path; empty channel on failure
 * (errno preserved for the caller's diagnostic). */
LineChannel connectUnix(const std::string &path);

/** Create, bind and listen on @p path (unlinking any stale socket
 * file first). Returns the listening fd, or -1 with errno set. */
int listenUnix(const std::string &path, int backlog);

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_PROTOCOL_HH
