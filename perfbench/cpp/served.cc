/**
 * @file
 * The served workload: two closed-loop client connections against a
 * service::Server in this process (2 pool threads, an empty scratch
 * cache directory). About nine requests in ten repeat a fixed set of
 * short cells; the rest are new seeds of one short cell, so every
 * miss simulates the same work and writes the disk cache. Midway the
 * server drains and reopens on the same directory, so the first
 * repeat of each key after that is a disk read. Only here are the
 * service, job-key, result-cache and JSON layers on the critical
 * path while simulation mostly is not.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "common/rng.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "service/client.hh"
#include "service/job_key.hh"
#include "service/result_cache.hh"
#include "service/server.hh"

namespace perfbench {

using namespace carve;
namespace fs = std::filesystem;

namespace {

constexpr unsigned kServerThreads = 2;
constexpr unsigned kClients = 2;
/** Short cells: the suite shape cut to 64 CTAs (of 2048), with the
 * shortest trace above the clamp. */
constexpr std::uint64_t kShortCtas = 64;
constexpr std::uint64_t kShortInstsPerWarp = 3;
constexpr double kMissShare = 0.1;
/** Open pairs (empty dir + populated dir) beyond the run's own. */
constexpr int kExtraOpens = 8;
/** Miss records re-run in-process per check batch. */
constexpr std::size_t kCheckChunk = 8;

/** A short cell as the in-process spec and the wire spec. */
struct Cell
{
    harness::RunSpec run;
    service::JobSpec job;
};

Cell
shortCell(Preset p, const std::string &workload, std::uint64_t seed)
{
    WorkloadParams w = suiteAt(workload, kShortInstsPerWarp);
    w.ctas = kShortCtas;
    Cell c;
    c.run = makeSpec(p, w, seed, false, false);
    c.job = service::jobFromRunSpec(c.run);
    return c;
}

/** A Server with its serve() thread; drain() joins it. */
class LiveServer
{
  public:
    explicit LiveServer(const service::Server::Options &o)
        : server_(o), thread_([this] { server_.serve(); })
    {
    }
    ~LiveServer() { drain(); }
    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    void
    drain()
    {
        if (thread_.joinable()) {
            server_.requestDrain();
            thread_.join();
        }
    }
    service::Server &server() { return server_; }

  private:
    service::Server server_;
    std::thread thread_;
};

service::Server::Options
serverOptions(const std::string &socket, const std::string &cache_dir)
{
    service::Server::Options o;
    o.socket_path = socket;
    o.threads = kServerThreads;
    o.cache_dir = cache_dir;
    o.quiet = true;
    return o;
}

/** Construct a server and wait for its first answered ping. */
std::unique_ptr<LiveServer>
openServer(const service::Server::Options &o, SpanLog &log,
           double &seconds)
{
    Timed t(log, "Server open");
    auto live = std::make_unique<LiveServer>(o);
    // The socket file appears at bind; poll for it before connecting
    // so the client does not warn about an early refusal.
    for (;;) {
        if (fs::exists(o.socket_path)) {
            if (service::Client::connect(o.socket_path))
                break;
        }
        ::usleep(20);
    }
    seconds = t.stop();
    return live;
}

void
drainServer(LiveServer &live, SpanLog &log)
{
    Timed t(log, "Server drain");
    live.drain();
}

/** One client request as seen by the benchmark. */
struct Request
{
    double submit_s = 0.0;
    double result_s = 0.0;
    double latency_s = 0.0;
    bool hit = false;
    double server_s = 0.0;      ///< server-side run time (misses)
    double done_s = 0.0;        ///< completion, seconds into the phase
    unsigned phase = 0;
    std::uint64_t warp_insts = 0;
    std::size_t record_bytes = 0;
};

/** State the client threads share. */
struct Shared
{
    std::string socket;
    std::vector<Cell> cells;
    std::vector<std::string> expected;  ///< in-process record per cell
    std::uint64_t miss_seed_base = 0;
    std::atomic<std::uint64_t> next_miss{0};
    std::atomic<bool> stop{false};
    std::atomic<std::int64_t> next_request{0};
    Clock::time_point phase_start;
    unsigned phase = 0;

    std::mutex mu;  ///< guards everything below
    Tally tally;
    std::vector<Request> requests;
    std::vector<harness::RunSpec> miss_specs;
    /** FNV-1a 64 of each miss record's bytes: the post-run check
     * compares bytes without holding every record in memory. */
    std::vector<std::uint64_t> miss_hashes;
    LayerCounts counts;
};

Cell
missCell(std::uint64_t seed)
{
    return shortCell(Preset::CarveHwc, "Lulesh", seed);
}

void
clientLoop(Shared &sh, Rng rng, SpanLog &log, bool keep_trees)
{
    auto client = service::Client::connect(sh.socket);
    if (!client) {
        std::lock_guard lock(sh.mu);
        sh.tally.fail("client cannot connect");
        return;
    }
    while (!sh.stop.load(std::memory_order_relaxed)) {
        const bool miss = rng.chance(kMissShare);
        const std::size_t cell =
            miss ? 0 : static_cast<std::size_t>(rng.below(sh.cells.size()));
        const Cell spec = miss
            ? missCell(sh.miss_seed_base + sh.next_miss.fetch_add(1))
            : sh.cells[cell];
        const std::int64_t id = sh.next_request.fetch_add(1);

        Request q;
        Timed whole(log, "request", -1, id);
        Timed ts(log, "Client::submit", whole.id(), id);
        service::SubmitReply sub = client->submit(spec.job);
        while (!sub.ok && sub.retriable) {
            ::usleep(1000);
            sub = client->submit(spec.job);
        }
        q.submit_s = ts.stop();
        std::string error;
        service::ResultReply res;
        if (!sub.ok) {
            error = "submit: " + sub.error;
        } else {
            Timed tr(log, "Client::result", whole.id(), id);
            res = client->result(sub.id);
            q.result_s = tr.stop();
            if (!res.ok || res.state != "done")
                error = "result: " + res.error + " (" + res.state + ")";
            else if (!res.run.ok())
                error = "run: " + res.run.error;
        }
        q.latency_s = whole.stop();
        q.done_s = secondsSince(sh.phase_start);
        q.phase = sh.phase;
        q.hit = sub.cached;
        q.server_s = res.wall_seconds;
        q.warp_insts = res.run.sim.warp_insts;
        q.record_bytes = res.record_json.size();

        std::lock_guard lock(sh.mu);
        ++sh.tally.attempted;
        if (error.empty() && !miss && res.record_json != sh.expected[cell])
            error = "record differs from the in-process record";
        if (error.empty() && miss == q.hit)
            error = miss ? "new seed answered from cache"
                         : "fixed cell simulated again";
        if (!error.empty()) {
            sh.tally.fail(spec.job.preset + "/" + spec.job.workload.name +
                          ": " + error);
            continue;
        }
        if (miss) {
            sh.miss_specs.push_back(spec.run);
            sh.miss_hashes.push_back(service::fnv1a64(res.record_json));
            if (keep_trees)
                sh.counts.add(res.run.sim.stat_tree);
        }
        sh.requests.push_back(q);
    }
}

/** Run both clients until @p seconds pass; returns the elapsed time. */
double
clientPhase(Shared &sh, SpanLog &log, double seconds, std::uint64_t seed,
            unsigned phase, bool keep_trees)
{
    sh.stop.store(false);
    const Clock::time_point t0 = Clock::now();
    sh.phase_start = t0;
    sh.phase = phase;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        // The seed fixes each client's request stream.
        Rng rng(seed * 7919 + phase * kClients + c + 1);
        threads.emplace_back(
            [&sh, rng, &log, keep_trees] {
                clientLoop(sh, rng, log, keep_trees);
            });
    }
    while (secondsSince(t0) < seconds)
        ::usleep(2000);
    sh.stop.store(true);
    for (std::thread &t : threads)
        t.join();
    return secondsSince(t0);
}

/** Server counters worth keeping from one server lifetime. */
void
addServerStats(service::Server &srv, Value &out)
{
    const Value st = srv.statsJson();
    Value o{json::Members{}};
    o.set("memo_hits", st.at("memo_hits").asInt());
    o.set("disk_hits", st.at("cache").at("hits").asInt());
    o.set("completed", st.at("completed").asInt());
    o.set("cache_stores", st.at("cache").at("stores").asInt());
    out.push(std::move(o));
}

/** Seconds of each of @p reps calls of @p fn. */
template <class Fn>
std::vector<double>
timeCalls(int reps, Fn &&fn)
{
    std::vector<double> out;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn(i);
        out.push_back(secondsSince(t0));
    }
    return out;
}

/** Service-layer replays of the traced run. */
Value
serviceReplays(const Shared &sh, const std::string &cache_dir,
               const std::string &store_dir)
{
    Value d{json::Members{}};
    std::size_t sink = 0;
    d.set("key_s", toArray(timeCalls(2000, [&](int i) {
              sink += service::jobKey(
                          sh.cells[static_cast<std::size_t>(i) %
                                   sh.cells.size()].job)
                          .size();
          })));
    service::ResultCache cache(cache_dir, 0);
    d.set("cache_load_s", toArray(timeCalls(200, [&](int i) {
              const auto &c =
                  sh.cells[static_cast<std::size_t>(i) % sh.cells.size()];
              sink += cache.get(service::jobKey(c.job)).value_or("").size();
          })));
    service::ResultCache store(store_dir, 0);
    d.set("cache_store_s", toArray(timeCalls(100, [&](int i) {
              store.put("perfbench" + std::to_string(1000000 + i),
                        sh.expected[static_cast<std::size_t>(i) %
                                    sh.expected.size()]);
          })));
    // The cells' records were checked byte for byte when served.
    std::vector<double> parse;
    reloadRecords(sh.expected, {}, 0, 200, false, parse);
    d.set("parse_s", toArray(parse));
    // Written out so the replayed calls' results stay live.
    d.set("sink", static_cast<std::uint64_t>(sink));
    return d;
}

} // namespace

Value
runServedWorkload(const Settings &s, SpanLog &log)
{
    Value out{json::Members{}};
    out.set("workload", "served");
    out.set("host", hostRecord());

    const std::string root =
        s.scratch + "/served-" + std::to_string(::getpid());
    fs::remove_all(root);
    fs::create_directories(root);
    const std::string socket = root + "/s.sock";
    const std::string cache_dir = root + "/cache";

    Shared sh;
    sh.socket = socket;
    sh.miss_seed_base = s.seed * 1'000'003 + 1;
    for (const Preset p : {Preset::SingleGpu, Preset::NumaGpu,
                           Preset::NumaGpuReplRO, Preset::CarveHwc,
                           Preset::Ideal}) {
        for (const char *w : {"Lulesh", "XSBench"})
            sh.cells.push_back(shortCell(p, w, s.seed));
    }
    static_assert(kShortInstsPerWarp > kClampInstsPerWarp,
                  "short cells must sit above the duration clamp");

    // In-process records of the fixed cells: every served answer for
    // a cell must be byte-identical to its record.
    {
        std::vector<harness::RunSpec> specs;
        for (const Cell &c : sh.cells)
            specs.push_back(c.run);
        harness::SweepOptions so;
        so.threads = kServerThreads;
        for (const harness::RunResult &r : harness::runSweep(specs, so)) {
            ++sh.tally.attempted;
            if (!r.ok())
                sh.tally.fail(r.key() + ": " + r.error);
            sh.expected.push_back(harness::resultToJson(r).dump(0));
        }
    }

    std::vector<double> open_empty, open_populated;
    Value server_stats{json::Array{}};
    double window_s = 0.0;
    {
        double secs = 0.0;
        auto live = openServer(serverOptions(socket, cache_dir), log, secs);
        open_empty.push_back(secs);

        // Warm-up outside the window: each fixed cell runs once, so
        // in the window the fixed cells only hit.
        auto warm = service::Client::connect(socket);
        for (std::size_t i = 0; warm && i < sh.cells.size(); ++i) {
            ++sh.tally.attempted;
            const service::SubmitReply sub = warm->submit(sh.cells[i].job);
            const service::ResultReply res =
                sub.ok ? warm->result(sub.id) : service::ResultReply{};
            if (!sub.ok || res.record_json != sh.expected[i])
                sh.tally.fail(sh.cells[i].job.preset +
                              ": warm-up record differs");
        }
        if (!warm)
            sh.tally.fail("warm-up client cannot connect");
        warm.reset();

        window_s += clientPhase(sh, log, s.seconds / 2, s.seed, 0,
                                s.trace);
        drainServer(*live, log);
        addServerStats(live->server(), server_stats);
    }
    {
        double secs = 0.0;
        auto live = openServer(serverOptions(socket, cache_dir), log, secs);
        open_populated.push_back(secs);
        window_s += clientPhase(sh, log, s.seconds / 2, s.seed, 1,
                                s.trace);
        drainServer(*live, log);
        addServerStats(live->server(), server_stats);
    }

    // More set-up samples: open pairs on a fresh empty directory and
    // on the populated one.
    for (int k = 0; k < kExtraOpens; ++k) {
        double secs = 0.0;
        const std::string fresh = root + "/empty" + std::to_string(k);
        openServer(serverOptions(socket, fresh), log, secs)->drain();
        open_empty.push_back(secs);
        openServer(serverOptions(socket, cache_dir), log, secs)->drain();
        open_populated.push_back(secs);
    }

    // Every miss record must equal the in-process record of its spec.
    // Checked in small chunks so peak memory does not grow with the
    // number of misses.
    std::vector<double> serialize;
    for (std::size_t at = 0; at < sh.miss_specs.size(); at += kCheckChunk) {
        const std::size_t end =
            std::min(sh.miss_specs.size(), at + kCheckChunk);
        harness::SweepOptions so;
        so.threads = kServerThreads;
        const std::vector<harness::RunResult> local = harness::runSweep(
            {sh.miss_specs.begin() + static_cast<std::ptrdiff_t>(at),
             sh.miss_specs.begin() + static_cast<std::ptrdiff_t>(end)},
            so);
        for (std::size_t i = 0; i < local.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            const std::string rec = harness::resultToJson(local[i]).dump(0);
            serialize.push_back(secondsSince(t0));
            if (service::fnv1a64(rec) != sh.miss_hashes[at + i]) {
                sh.tally.fail(local[i].key() +
                              ": served record differs from in-process");
            }
        }
    }

    Value reqs{json::Members{}};
    {
        std::vector<double> hit, miss, submit, result, server, winst,
            bytes, done[2];
        for (const Request &q : sh.requests) {
            (q.hit ? hit : miss).push_back(q.latency_s);
            submit.push_back(q.submit_s);
            if (q.hit) {
                result.push_back(q.result_s);
            } else {
                server.push_back(q.server_s);
                winst.push_back(static_cast<double>(q.warp_insts));
            }
            bytes.push_back(static_cast<double>(q.record_bytes));
            done[q.phase].push_back(q.done_s);
        }
        reqs.set("hit_latency_s", toArray(hit));
        reqs.set("miss_latency_s", toArray(miss));
        reqs.set("submit_s", toArray(submit));
        reqs.set("hit_result_s", toArray(result));
        reqs.set("miss_server_s", toArray(server));
        reqs.set("miss_winst", toArray(winst));
        reqs.set("record_bytes", toArray(bytes));
        Value phases{json::Array{}};
        for (const auto &d : done)
            phases.push(toArray(d));
        reqs.set("done_s", std::move(phases));
    }

    // Set-up samples in the shape sweep and par give them (a list per
    // job): here one list, of open pairs.
    std::vector<double> pairs;
    for (std::size_t k = 0; k < open_empty.size(); ++k)
        pairs.push_back(open_empty[k] + open_populated[k]);
    Value setup{json::Array{}};
    setup.push(toArray(pairs));

    out.set("requests", std::move(reqs));
    out.set("completed", static_cast<std::uint64_t>(sh.requests.size()));
    out.set("window_s", window_s);
    out.set("phase_s", s.seconds / 2);
    out.set("setup_samples", std::move(setup));
    out.set("open_s", toArray([&] {
                std::vector<double> all = open_empty;
                all.insert(all.end(), open_populated.begin(),
                           open_populated.end());
                return all;
            }()));
    out.set("server_stats", std::move(server_stats));
    out.set("serialize_s", toArray(serialize));
    if (s.trace) {
        Value layer{json::Members{}};
        layer.set("counts", sh.counts.toJson());
        layer.set("replays", serviceReplays(sh, cache_dir, root + "/store"));
        Value self{json::Members{}};
        for (const auto &[span, secs] : log.selfSeconds())
            self.set(span, secs);
        layer.set("span_self_s", std::move(self));
        out.set("layer", std::move(layer));
    }
    out.set("attempted", sh.tally.attempted);
    out.set("failed", sh.tally.failed);
    out.set("errors", std::move(sh.tally.errors));
    out.set("rss_kib", peakRssKib());
    fs::remove_all(root);
    return out;
}

} // namespace perfbench
