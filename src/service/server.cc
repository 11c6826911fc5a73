#include "service/server.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "service/job_key.hh"
#include "telemetry/telemetry.hh"

namespace carve {
namespace service {

namespace {

bool
terminal(JobState s)
{
    return s == JobState::Done || s == JobState::Cancelled;
}

/** Best-effort thread naming (Linux; 15-char limit). */
void
nameCurrentThread(const char *name)
{
#ifdef __linux__
    pthread_setname_np(pthread_self(), name);
#else
    (void)name;
#endif
}

std::string
requestId(const json::Value &req)
{
    return req.at("id").isString() ? req.at("id").asString()
                                   : std::string();
}

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

Server::Server(const Options &opt)
    : opt_(opt), cache_(opt.cache_dir, opt.cache_budget)
{
    if (::pipe(drain_pipe_) != 0)
        fatal("carve-served: pipe: %s", std::strerror(errno));
    pool_ = std::make_unique<harness::ThreadPool>(opt_.threads);
}

Server::~Server()
{
    // serve() normally cleans these up; cover construction failures
    // and never-served instances.
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    for (const int fd : drain_pipe_) {
        if (fd >= 0)
            ::close(fd);
    }
    // pool_ destruction drains outstanding jobs; they only touch
    // members declared before it plus jobs_ entries held alive by
    // shared_ptr, so joining here is safe.
    pool_.reset();
}

void
Server::requestDrain()
{
    // Only async-signal-safe calls: this runs inside SIGTERM/SIGINT
    // handlers.
    const char byte = 'd';
    [[maybe_unused]] ssize_t n = ::write(drain_pipe_[1], &byte, 1);
}

void
Server::serve()
{
    listen_fd_ = listenUnix(opt_.socket_path, 64);
    if (listen_fd_ < 0) {
        fatal("carve-served: cannot listen on '%s': %s",
              opt_.socket_path.c_str(), std::strerror(errno));
    }
    if (!opt_.quiet) {
        inform("carve-served: listening on %s (%u worker thread(s), "
               "cache %s)",
               opt_.socket_path.c_str(), pool_->size(),
               cache_.enabled() ? cache_.dir().c_str() : "disabled");
    }

    while (true) {
        pollfd fds[2] = {
            {listen_fd_, POLLIN, 0},
            {drain_pipe_[0], POLLIN, 0},
        };
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("carve-served: poll: %s", std::strerror(errno));
        }
        if (fds[1].revents & POLLIN)
            break;  // drain requested
        if (!(fds[0].revents & POLLIN))
            continue;
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0)
            continue;
        pruneConnections();
        {
            std::lock_guard lock(mu_);
            ++connections_;
        }
        conns_.emplace_back();
        Conn &c = conns_.back();
        c.chan = LineChannel(cfd);
        c.th = std::jthread([this, &c] { connectionLoop(&c); });
    }

    // ---- graceful drain -------------------------------------------
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opt_.socket_path.c_str());
    {
        std::lock_guard lock(mu_);
        draining_ = true;
    }
    if (!opt_.quiet)
        inform("carve-served: draining (%zu job(s) outstanding)",
               [this] {
                   std::lock_guard lock(mu_);
                   return queued_ + running_;
               }());

    // Every queued job runs to completion; waiting clients get their
    // responses as the transitions fire.
    pool_->wait();

    // Unblock connection readers and join them.
    for (Conn &c : conns_)
        c.chan.shutdownBoth();
    conns_.clear();  // jthread destructors join

    if (!opt_.quiet)
        inform("carve-served: drained, exiting");
}

void
Server::pruneConnections()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->done.load(std::memory_order_acquire))
            it = conns_.erase(it);  // jthread dtor joins (finished)
        else
            ++it;
    }
}

void
Server::connectionLoop(Conn *conn)
{
    nameCurrentThread("carve-conn");
    std::string line;
    while (conn->chan.readLine(line)) {
        json::Value req;
        try {
            ScopedErrorCapture capture;
            req = json::parse(line, "request");
        } catch (const std::exception &e) {
            if (!conn->chan.writeLine(
                    errorResponse("", e.what()).dump(0)))
                break;
            continue;
        }
        const std::string op = req.at("op").isString()
                                   ? req.at("op").asString()
                                   : std::string();
        json::Value resp;
        if (op == "ping") {
            resp = handlePing();
        } else if (op == "submit") {
            resp = handleSubmit(req);
        } else if (op == "status") {
            resp = handleStatus(req);
        } else if (op == "result") {
            resp = handleResult(req, conn);
        } else if (op == "cancel") {
            resp = handleCancel(req);
        } else if (op == "stats") {
            resp = statsJson();
        } else if (op == "metrics") {
            resp = json::Value{json::Members{}};
            resp.set("ok", true);
            resp.set("op", "metrics");
            resp.set("content_type",
                     "text/plain; version=0.0.4");
            resp.set("text", metricsPrometheus());
        } else {
            resp = errorResponse(
                op, "unknown op '" + op +
                        "' (expected ping/submit/status/result/"
                        "cancel/stats/metrics)");
        }
        if (!conn->chan.writeLine(resp.dump(0)))
            break;
    }
    conn->done.store(true, std::memory_order_release);
}

json::Value
Server::handlePing() const
{
    json::Value o{json::Members{}};
    o.set("ok", true);
    o.set("op", "ping");
    o.set("schema", kProtocolSchema);
    o.set("job_schema", kJobSchema);
    o.set("threads", pool_->size());
    return o;
}

json::Value
Server::handleSubmit(const json::Value &req)
{
    if (!req.has("job"))
        return errorResponse("submit", "missing member 'job'");
    JobSpec spec;
    try {
        ScopedErrorCapture capture;
        spec = jobSpecFromJson(req.at("job"));
    } catch (const std::exception &e) {
        return errorResponse("submit", e.what());
    }
    const std::string id = jobKey(spec);

    std::shared_ptr<Job> job;
    bool fresh = false;
    {
        std::lock_guard lock(mu_);
        const auto it = jobs_.find(id);
        if (it != jobs_.end() &&
            it->second->state != JobState::Cancelled) {
            job = it->second;
            if (job->state == JobState::Done)
                ++memo_hits_;
        } else {
            if (draining_) {
                return errorResponse("submit",
                                     "server is draining");
            }
            // Disk lookup before admission control: a cache hit
            // consumes no queue slot and no worker.
            if (auto bytes = cache_.get(id)) {
                job = std::make_shared<Job>();
                job->id = id;
                job->spec = std::move(spec);
                job->state = JobState::Done;
                job->cached = true;
                job->run_ok = true;
                job->record = std::move(*bytes);
                jobs_[id] = job;
            } else {
                if (queued_ >= opt_.queue_depth) {
                    return errorResponse(
                        "submit",
                        "queue full (depth " +
                            std::to_string(opt_.queue_depth) +
                            "); drain a result and retry",
                        /*retriable=*/true);
                }
                job = std::make_shared<Job>();
                job->id = id;
                job->spec = std::move(spec);
                jobs_[id] = job;
                ++queued_;
                ++submitted_;
                fresh = true;
            }
        }
    }
    if (fresh) {
        pool_->submit([this, job] { executeJob(job); });
        cv_.notify_all();
    }

    std::lock_guard lock(mu_);
    json::Value o{json::Members{}};
    o.set("ok", true);
    o.set("op", "submit");
    o.set("id", id);
    o.set("state", jobStateName(job->state));
    o.set("cached", job->state == JobState::Done);
    return o;
}

void
Server::executeJob(const std::shared_ptr<Job> &job)
{
    {
        std::lock_guard lock(mu_);
        if (job->state != JobState::Queued)
            return;  // cancelled while waiting
        job->state = JobState::Running;
        --queued_;
        ++running_;
    }
    cv_.notify_all();
    if (!opt_.quiet) {
        inform("carve-served: run %s (%s/%s/%llu)",
               job->id.c_str(), job->spec.preset.c_str(),
               job->spec.workload.name.c_str(),
               static_cast<unsigned long long>(job->spec.seed));
    }

    const harness::RunResult res = runIsolated(job->spec);
    const std::string record = harness::resultToJson(res).dump(0);
    {
        std::lock_guard lock(mu_);
        job->record = record;
        job->wall_seconds = res.wall_seconds;
        job->run_ok = res.ok();
        job->state = JobState::Done;
        --running_;
        ++completed_;
        if (!res.ok())
            ++failed_runs_;
        job_latency_us_.sample(
            static_cast<std::uint64_t>(res.wall_seconds * 1e6));
    }
    cv_.notify_all();
    // Only clean completions persist: a watchdog or failure record
    // depends on limits/bugs, not just the spec, so re-running it
    // later (longer watchdog, fixed simulator) must stay possible.
    if (res.ok())
        cache_.put(job->id, record);
}

harness::RunResult
Server::runIsolated(const JobSpec &spec)
{
    try {
        // executeRun() captures panics during simulation; this outer
        // capture additionally covers spec realization (unknown
        // preset name, inconsistent config).
        ScopedErrorCapture capture;
        harness::RunSpec rs;
        rs.preset = harness::parsePresetName(spec.preset);
        rs.workload = spec.workload;
        rs.base = spec.config;
        rs.opts.seed = spec.seed;
        rs.opts.max_cycles = spec.max_cycles;
        rs.opts.max_wall_seconds = spec.max_wall_seconds;
        rs.opts.profile_lines = spec.profile_lines;
        rs.opts.audit = spec.audit;
        rs.host_stats = spec.host_stats;
        return harness::executeRun(rs);
    } catch (const std::exception &e) {
        harness::RunResult r;
        r.preset = spec.preset;
        r.workload = spec.workload.name;
        r.seed = spec.seed;
        r.status = harness::RunStatus::Failed;
        r.error = e.what();
        return r;
    }
}

json::Value
Server::handleStatus(const json::Value &req)
{
    const std::string id = requestId(req);
    std::lock_guard lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("status", "unknown job '" + id + "'");
    json::Value o{json::Members{}};
    o.set("ok", true);
    o.set("op", "status");
    o.set("id", id);
    o.set("state", jobStateName(it->second->state));
    o.set("queued", static_cast<std::uint64_t>(queued_));
    o.set("running", static_cast<std::uint64_t>(running_));
    return o;
}

json::Value
Server::handleResult(const json::Value &req, Conn *conn)
{
    const std::string id = requestId(req);
    const bool wait =
        req.at("wait").kind() == json::Value::Kind::Bool &&
        req.at("wait").asBool();
    const bool events =
        req.at("events").kind() == json::Value::Kind::Bool &&
        req.at("events").asBool();

    std::shared_ptr<Job> job;
    json::Value o{json::Members{}};
    {
        std::unique_lock lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) {
            return errorResponse("result",
                                 "unknown job '" + id + "'");
        }
        job = it->second;

        JobState reported = job->state;
        bool report_initial = events;
        while (true) {
            if (report_initial || job->state != reported) {
                reported = job->state;
                report_initial = false;
                if (events) {
                    // Streamed progress: one event line per state,
                    // written without the registry lock so a slow
                    // client cannot stall the whole server.
                    json::Value ev{json::Members{}};
                    ev.set("event", "state");
                    ev.set("id", id);
                    ev.set("state", jobStateName(reported));
                    lock.unlock();
                    const bool alive =
                        conn->chan.writeLine(ev.dump(0));
                    lock.lock();
                    if (!alive) {
                        return errorResponse("result",
                                             "client went away");
                    }
                    // State may have moved while unlocked; loop
                    // re-reads it before deciding to sleep.
                    continue;
                }
            }
            if (terminal(job->state) || !wait)
                break;
            cv_.wait(lock);
        }

        if (job->state == JobState::Cancelled) {
            json::Value err =
                errorResponse("result", "job was cancelled");
            err.set("id", id);
            err.set("state", jobStateName(job->state));
            return err;
        }
        o.set("ok", true);
        o.set("op", "result");
        o.set("id", id);
        o.set("state", jobStateName(job->state));
        if (job->state != JobState::Done)
            return o;
        o.set("cached", job->cached);
        o.set("wall_seconds", job->wall_seconds);
    }
    // A Done job's record never changes again, so it is parsed
    // without the registry lock. Embed it verbatim (parse of our own
    // dump is lossless, so the client sees byte-identical record
    // dumps for cached and fresh results). A corrupted on-disk cache
    // entry must fail this one request, not the daemon.
    try {
        ScopedErrorCapture capture;
        o.set("run", json::parse(job->record, "stored record"));
    } catch (const std::exception &e) {
        json::Value err = errorResponse(
            "result",
            std::string("stored record unreadable: ") + e.what());
        err.set("id", id);
        return err;
    }
    return o;
}

json::Value
Server::handleCancel(const json::Value &req)
{
    const std::string id = requestId(req);
    std::lock_guard lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return errorResponse("cancel", "unknown job '" + id + "'");
    Job &job = *it->second;
    bool cancelled = false;
    if (job.state == JobState::Queued) {
        job.state = JobState::Cancelled;
        --queued_;
        ++cancelled_;
        cancelled = true;
        cv_.notify_all();
    }
    json::Value o{json::Members{}};
    o.set("ok", true);
    o.set("op", "cancel");
    o.set("id", id);
    o.set("state", jobStateName(job.state));
    o.set("cancelled", cancelled);
    return o;
}

Server::MetricsSnapshot
Server::snapshotMetrics() const
{
    MetricsSnapshot s;
    s.cache = cache_.stats();
    s.cache_enabled = cache_.enabled();
    s.uptime_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_time_)
            .count();
    std::lock_guard lock(mu_);
    s.threads = pool_->size();
    s.queue_depth = opt_.queue_depth;
    s.connections = connections_;
    s.queued = queued_;
    s.running = running_;
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed_runs = failed_runs_;
    s.cancelled = cancelled_;
    s.memo_hits = memo_hits_;
    s.draining = draining_;
    s.job_latency_us = job_latency_us_;
    return s;
}

json::Value
Server::statsJson() const
{
    const MetricsSnapshot s = snapshotMetrics();
    json::Value o{json::Members{}};
    o.set("ok", true);
    o.set("op", "stats");
    o.set("schema", kProtocolSchema);
    o.set("threads", s.threads);
    o.set("uptime_seconds", s.uptime_seconds);
    o.set("draining", s.draining);
    o.set("queue_depth", s.queue_depth);
    o.set("connections", s.connections);
    o.set("queued", s.queued);
    o.set("running", s.running);
    o.set("submitted", s.submitted);
    o.set("completed", s.completed);
    o.set("failed_runs", s.failed_runs);
    o.set("cancelled", s.cancelled);
    o.set("memo_hits", s.memo_hits);
    json::Value c{json::Members{}};
    c.set("enabled", s.cache_enabled);
    c.set("hits", s.cache.hits);
    c.set("misses", s.cache.misses);
    c.set("stores", s.cache.stores);
    c.set("evictions", s.cache.evictions);
    c.set("bytes", s.cache.bytes);
    c.set("entries", s.cache.entries);
    o.set("cache", std::move(c));
    json::Value lat{json::Members{}};
    lat.set("count", s.job_latency_us.count());
    lat.set("max_us", s.job_latency_us.max());
    lat.set("p50_us", s.job_latency_us.percentile(50));
    lat.set("p95_us", s.job_latency_us.percentile(95));
    lat.set("p99_us", s.job_latency_us.percentile(99));
    lat.set("sum_us", s.job_latency_us.sum());
    o.set("job_latency", std::move(lat));
    return o;
}

std::string
Server::metricsPrometheus() const
{
    using telemetry::appendPrometheusHistogram;
    using telemetry::appendPrometheusValue;
    const MetricsSnapshot s = snapshotMetrics();

    std::string out;
    out.reserve(4096);
    appendPrometheusValue(out, "carve_uptime_seconds",
                          "Seconds since the daemon started.",
                          "gauge", s.uptime_seconds);
    appendPrometheusValue(out, "carve_worker_threads",
                          "Simulation worker threads.", "gauge",
                          static_cast<double>(s.threads));
    appendPrometheusValue(out, "carve_queue_depth_limit",
                          "Queued jobs admitted before submits "
                          "bounce.",
                          "gauge",
                          static_cast<double>(s.queue_depth));
    appendPrometheusValue(out, "carve_draining",
                          "1 while a graceful drain is in "
                          "progress.",
                          "gauge", s.draining ? 1.0 : 0.0);
    appendPrometheusValue(out, "carve_jobs_queued",
                          "Jobs waiting for a worker.", "gauge",
                          static_cast<double>(s.queued));
    appendPrometheusValue(out, "carve_jobs_in_flight",
                          "Jobs executing right now.", "gauge",
                          static_cast<double>(s.running));
    appendPrometheusValue(out, "carve_connections_total",
                          "Client connections accepted.", "counter",
                          static_cast<double>(s.connections));
    appendPrometheusValue(out, "carve_jobs_submitted_total",
                          "Jobs admitted to the queue.", "counter",
                          static_cast<double>(s.submitted));
    appendPrometheusValue(out, "carve_jobs_completed_total",
                          "Jobs that ran to a record.", "counter",
                          static_cast<double>(s.completed));
    appendPrometheusValue(out, "carve_jobs_failed_total",
                          "Completed jobs whose run did not finish "
                          "ok.",
                          "counter",
                          static_cast<double>(s.failed_runs));
    appendPrometheusValue(out, "carve_jobs_cancelled_total",
                          "Jobs cancelled while queued.", "counter",
                          static_cast<double>(s.cancelled));
    appendPrometheusValue(out, "carve_memo_hits_total",
                          "Submits answered by the in-memory job "
                          "registry.",
                          "counter",
                          static_cast<double>(s.memo_hits));
    appendPrometheusValue(out, "carve_cache_enabled",
                          "1 when the on-disk result cache is "
                          "active.",
                          "gauge", s.cache_enabled ? 1.0 : 0.0);
    appendPrometheusValue(out, "carve_cache_hits_total",
                          "Disk-cache lookups that found a record.",
                          "counter",
                          static_cast<double>(s.cache.hits));
    appendPrometheusValue(out, "carve_cache_misses_total",
                          "Disk-cache lookups that found nothing.",
                          "counter",
                          static_cast<double>(s.cache.misses));
    appendPrometheusValue(out, "carve_cache_stores_total",
                          "Records persisted to the disk cache.",
                          "counter",
                          static_cast<double>(s.cache.stores));
    appendPrometheusValue(out, "carve_cache_evictions_total",
                          "Records evicted to stay within the byte "
                          "budget.",
                          "counter",
                          static_cast<double>(s.cache.evictions));
    appendPrometheusValue(out, "carve_cache_bytes",
                          "Bytes resident in the disk cache.",
                          "gauge",
                          static_cast<double>(s.cache.bytes));
    appendPrometheusValue(out, "carve_cache_entries",
                          "Records resident in the disk cache.",
                          "gauge",
                          static_cast<double>(s.cache.entries));
    appendPrometheusHistogram(out, "carve_job_latency_seconds",
                              "Wall time of completed simulation "
                              "runs.",
                              s.job_latency_us, 1e-6);
    return out;
}

} // namespace service
} // namespace carve
