/**
 * @file
 * carve-served server loop: a persistent simulation service over a
 * unix-domain socket.
 *
 * One Server owns:
 *  - a listening socket accepting NDJSON protocol connections (one
 *    handler thread per connection, see protocol.hh);
 *  - a job registry keyed by content-addressed job key: submitting a
 *    job that is already queued, running, or done attaches to the
 *    existing entry instead of simulating again (in-memory
 *    memoization for the daemon's lifetime);
 *  - the harness ThreadPool executing jobs through executeRun(), so
 *    server runs get the same per-run panic/fatal/watchdog isolation
 *    as carve-sweep;
 *  - a ResultCache persisting completed Ok records on disk, so a
 *    restarted daemon still answers repeats without re-simulating.
 *
 * Backpressure: submissions beyond Options::queue_depth queued jobs
 * are rejected with a retriable "queue full" error — the client is
 * expected to drain a result and resubmit.
 *
 * Shutdown: requestDrain() (async-signal-safe, call it from a
 * SIGTERM/SIGINT handler) stops accepting work, lets every queued
 * and running job finish, answers all waiting clients, then returns
 * from serve().
 */

#ifndef CARVE_SERVICE_SERVER_HH
#define CARVE_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "harness/run_spec.hh"
#include "harness/thread_pool.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "telemetry/histogram.hh"

namespace carve {
namespace service {

/** Lifecycle of one registered job. */
enum class JobState : std::uint8_t {
    Queued,     ///< accepted, waiting for a worker
    Running,    ///< executing on the pool
    Done,       ///< record available (any RunStatus, incl. failed)
    Cancelled,  ///< cancelled while queued; never ran
};

/** Display name ("queued", "running", "done", "cancelled"). */
const char *jobStateName(JobState s);

class Server
{
  public:
    struct Options
    {
        std::string socket_path = "carve-served.sock";
        /** Worker threads; 0 == all hardware threads. */
        unsigned threads = 0;
        /** Result-cache directory; empty disables the disk cache
         * (in-memory memoization still applies). */
        std::string cache_dir = "carve-cache";
        /** Cache byte budget (LRU eviction); 0 == unlimited. */
        std::uint64_t cache_budget = 512ull * 1024 * 1024;
        /** Max jobs waiting for a worker before submits bounce. */
        std::size_t queue_depth = 1024;
        /** Suppress per-job inform() lines. */
        bool quiet = false;
    };

    explicit Server(const Options &opt);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket (fatal on failure) and serve until drained.
     * Returns once every accepted job has finished and every
     * connection is closed; the socket file is removed.
     */
    void serve();

    /** Request a graceful drain. Async-signal-safe. */
    void requestDrain();

    /** Aggregate counters (the "stats" endpoint's payload). */
    json::Value statsJson() const;

    /**
     * The "metrics" endpoint's payload: every live counter and gauge
     * of the daemon rendered in Prometheus text exposition format
     * (carve_* families), including the job-latency histogram.
     * Reads the same snapshot as statsJson().
     */
    std::string metricsPrometheus() const;

  private:
    struct Job
    {
        std::string id;
        JobSpec spec;
        JobState state = JobState::Queued;
        /** Served without simulating (registry or disk). */
        bool cached = false;
        /** resultToJson().dump(0) of the finished run. Written under
         * mu_ before state becomes Done and never after, so a reader
         * that saw Done under mu_ may read it without the lock. */
        std::string record;
        double wall_seconds = 0.0;
        bool run_ok = false;
    };

    struct Conn
    {
        LineChannel chan;
        std::jthread th;
        std::atomic<bool> done{false};
    };

    /** One consistent read of every counter the two reporting
     * endpoints ("stats" JSON, "metrics" Prometheus text) expose;
     * taken under the registry lock so queue/running/latency figures
     * are mutually consistent. */
    struct MetricsSnapshot
    {
        double uptime_seconds = 0.0;
        unsigned threads = 0;
        std::uint64_t queue_depth = 0;
        std::uint64_t connections = 0;
        std::uint64_t queued = 0;
        std::uint64_t running = 0;
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed_runs = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t memo_hits = 0;
        bool draining = false;
        bool cache_enabled = false;
        ResultCache::Stats cache;
        telemetry::Histogram job_latency_us;
    };
    MetricsSnapshot snapshotMetrics() const;

    void connectionLoop(Conn *conn);
    void executeJob(const std::shared_ptr<Job> &job);
    harness::RunResult runIsolated(const JobSpec &spec);
    void pruneConnections();

    json::Value handlePing() const;
    json::Value handleSubmit(const json::Value &req);
    json::Value handleStatus(const json::Value &req);
    json::Value handleResult(const json::Value &req, Conn *conn);
    json::Value handleCancel(const json::Value &req);

    const Options opt_;
    ResultCache cache_;
    std::unique_ptr<harness::ThreadPool> pool_;
    /** Daemon start, for the uptime gauge. */
    const std::chrono::steady_clock::time_point start_time_ =
        std::chrono::steady_clock::now();

    int listen_fd_ = -1;
    int drain_pipe_[2] = {-1, -1};  ///< [read, write]

    mutable std::mutex mu_;
    std::condition_variable cv_;  ///< job state transitions
    bool draining_ = false;
    std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
    std::size_t queued_ = 0;
    std::size_t running_ = 0;
    std::uint64_t submitted_ = 0;   ///< jobs that entered the queue
    std::uint64_t completed_ = 0;   ///< jobs that ran to a record
    std::uint64_t failed_runs_ = 0; ///< completed with status != ok
    std::uint64_t cancelled_ = 0;
    std::uint64_t memo_hits_ = 0;   ///< submits served by the registry
    std::uint64_t connections_ = 0;
    /** Wall time of completed runs, in microseconds (cache and memo
     * hits excluded: they cost no simulation). */
    telemetry::Histogram job_latency_us_;

    std::list<Conn> conns_;
};

} // namespace service
} // namespace carve

#endif // CARVE_SERVICE_SERVER_HH
