/** @file Tests for the carve-served sweep service: content-addressed
 * job keys (stable across override orderings), JobSpec protocol round
 * trips, the LRU on-disk result cache, and an end-to-end daemon over
 * a real unix socket — memoization, byte-identical cached results,
 * disk-cache survival across restarts, cancellation, backpressure,
 * and graceful drain. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "service/client.hh"
#include "service/job_key.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "sim_test_util.hh"

namespace carve {
namespace service {
namespace {

using test::miniConfig;
using test::miniWorkload;

class ServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogQuiet(true); }
    void TearDown() override { setLogQuiet(false); }
};

harness::RunSpec
miniSpec(std::uint64_t seed = 1)
{
    harness::RunSpec s;
    s.preset = Preset::CarveHwc;
    s.workload = miniWorkload(RegionKind::SharedStream, 0.1);
    s.workload.name = "svc";
    s.base = miniConfig();
    s.opts.seed = seed;
    s.opts.max_cycles = 50'000'000;
    // Byte-compare assertions below need results that are a pure
    // function of the spec; host wall/RSS stats would differ per run.
    s.host_stats = false;
    return s;
}

JobSpec
miniJob(std::uint64_t seed = 1)
{
    return jobFromRunSpec(miniSpec(seed));
}

/** Fresh scratch directory under the gtest temp dir. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Connect with retries: the server thread binds asynchronously. */
std::optional<Client>
connectRetry(const std::string &sock)
{
    for (int i = 0; i < 250; ++i) {
        if (std::filesystem::exists(sock)) {
            auto c = Client::connect(sock);
            if (c)
                return c;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return std::nullopt;
}

/**
 * Runs Server::serve() on its own thread for one test scope. The
 * destructor drains before it joins, so a failed ASSERT that returns
 * early ends the test instead of leaving serve() running and the
 * binary hung. Draining a server whose serve() already returned is
 * harmless (one byte on a pipe).
 */
class ServingThread
{
  public:
    explicit ServingThread(Server &server)
        : server_(server), thread_([&server] { server.serve(); })
    {}

    ServingThread(const ServingThread &) = delete;
    ServingThread &operator=(const ServingThread &) = delete;

    ~ServingThread() { drainAndJoin(); }

    /** Drain the server and wait for serve() to return. */
    void
    drainAndJoin()
    {
        if (!thread_.joinable())
            return;
        server_.requestDrain();
        thread_.join();
    }

  private:
    Server &server_;
    std::thread thread_;
};

// ---- job identity --------------------------------------------------

TEST_F(ServiceTest, JobKeyIgnoresOverrideApplicationOrder)
{
    JobSpec a = miniJob();
    JobSpec b = miniJob();
    a.base.applyOverride("rdc.size", "1048576");
    a.base.applyOverride("numa.replication", "readonly");
    a.base.applyOverride("link.gpu_gpu_bw", "32");
    b.base.applyOverride("link.gpu_gpu_bw", "32");
    b.base.applyOverride("numa.replication", "readonly");
    b.base.applyOverride("rdc.size", "1048576");
    EXPECT_EQ(jobKey(a), jobKey(b))
        << "override application order must not change job identity";
    EXPECT_TRUE(isJobKey(jobKey(a)));
    EXPECT_EQ(jobSpecToJson(a).dump(0), jobSpecToJson(b).dump(0));
}

/** @p cfg's serialized value for override key @p key. */
std::string
overrideValue(const SystemConfig &cfg, const std::string &key)
{
    for (const ConfigOverride &ov : cfg.toOverrides()) {
        if (ov.key == key)
            return ov.value;
    }
    return std::string();
}

TEST_F(ServiceTest, JobKeySeparatesSemanticDifferences)
{
    const JobSpec base = miniJob();
    const std::string base_key = jobKey(base);

    // Every override-registry key, set to another value it accepts:
    // a changed number, a flipped bool or another enum name.
    for (const std::string &key : SystemConfig::listOverrideKeys()) {
        const std::string cur = overrideValue(base.base, key);
        std::vector<std::string> values = {
            "true",       "false", "serial", "parallel", "firsttouch",
            "roundrobin", "local", "none",   "readonly", "all",
            "software",   "hwvi",  "writethrough", "writeback"};
        if (!cur.empty() &&
            cur.find_first_not_of("0123456789") == std::string::npos) {
            values.insert(values.begin(),
                          std::to_string(std::stoull(cur) * 2 + 1));
        } else if (!cur.empty() &&
                   cur.find_first_not_of("0123456789.e+-") ==
                       std::string::npos) {
            values.insert(values.begin(),
                          std::to_string(std::stod(cur) / 2 + 1));
        }
        bool changed = false;
        for (const std::string &v : values) {
            JobSpec j = base;
            try {
                ScopedErrorCapture capture;
                j.base.applyOverride(key, v);
            } catch (const SimAbortError &) {
                continue;  // not a value of this key
            }
            if (overrideValue(j.base, key) == cur)
                continue;
            EXPECT_NE(jobKey(j), base_key) << key << "=" << v;
            changed = true;
            break;
        }
        EXPECT_TRUE(changed) << "no other value found for " << key;
    }

    // The preset, every carve-job/3 option and every workload field.
    using Edit = void (*)(JobSpec &);
    const std::pair<const char *, Edit> edits[] = {
        {"preset", [](JobSpec &j) { j.preset = "NUMA-GPU"; }},
        {"seed", [](JobSpec &j) { j.opts.seed += 1; }},
        {"max_cycles", [](JobSpec &j) { j.opts.max_cycles += 1; }},
        {"max_wall_seconds",
         [](JobSpec &j) { j.opts.max_wall_seconds = 2.5; }},
        {"profile_lines",
         [](JobSpec &j) { j.opts.profile_lines = !j.opts.profile_lines; }},
        {"audit", [](JobSpec &j) { j.opts.audit = !j.opts.audit; }},
        {"telemetry.enabled",
         [](JobSpec &j) { j.opts.telemetry.enabled = true; }},
        {"telemetry.host_timing",
         [](JobSpec &j) { j.opts.telemetry.host_timing = true; }},
        {"host_stats", [](JobSpec &j) { j.host_stats = !j.host_stats; }},
        {"engine",
         [](JobSpec &j) { j.opts.engine = SimEngine::Parallel; }},
        {"sim_threads", [](JobSpec &j) { j.opts.sim_threads = 2; }},
        {"workload.name", [](JobSpec &j) { j.workload.name += "x"; }},
        {"kernels", [](JobSpec &j) { j.workload.kernels += 1; }},
        {"ctas", [](JobSpec &j) { j.workload.ctas += 1; }},
        {"warps_per_cta",
         [](JobSpec &j) { j.workload.warps_per_cta += 1; }},
        {"insts_per_warp",
         [](JobSpec &j) { j.workload.insts_per_warp += 1; }},
        {"compute_min", [](JobSpec &j) { j.workload.compute_min += 1; }},
        {"compute_max", [](JobSpec &j) { j.workload.compute_max += 1; }},
        {"iterative",
         [](JobSpec &j) { j.workload.iterative = !j.workload.iterative; }},
        {"regions",
         [](JobSpec &j) {
             j.workload.regions.push_back(j.workload.regions.front());
         }},
        {"region.kind",
         [](JobSpec &j) {
             j.workload.regions[0].kind = RegionKind::RandomGlobal;
         }},
        {"region.bytes",
         [](JobSpec &j) { j.workload.regions[0].bytes *= 2; }},
        {"region.access_frac",
         [](JobSpec &j) { j.workload.regions[0].access_frac /= 2; }},
        {"region.write_frac",
         [](JobSpec &j) { j.workload.regions[0].write_frac /= 2; }},
        {"region.zipf",
         [](JobSpec &j) { j.workload.regions[0].zipf /= 2; }},
        {"region.lanes",
         [](JobSpec &j) { j.workload.regions[0].lanes += 1; }},
        {"region.neighbor_frac",
         [](JobSpec &j) { j.workload.regions[0].neighbor_frac /= 2; }},
    };
    for (const auto &[what, edit] : edits) {
        JobSpec j = base;
        edit(j);
        EXPECT_NE(jobKey(j), base_key) << what;
    }

    // An engine chosen by option or by config is one job.
    JobSpec by_opts = base;
    by_opts.opts.engine = SimEngine::Parallel;
    by_opts.opts.sim_threads = 2;
    JobSpec by_config = base;
    by_config.base.applyOverride("engine", "parallel");
    by_config.base.applyOverride("sim_threads", "2");
    EXPECT_EQ(jobKey(by_opts), jobKey(by_config));
}

TEST_F(ServiceTest, CanonicalOverridesAreSortedAndComplete)
{
    const SystemConfig cfg = miniConfig();
    const auto canon = cfg.canonicalOverrides();
    ASSERT_EQ(canon.size(), cfg.toOverrides().size());
    for (std::size_t i = 1; i < canon.size(); ++i)
        EXPECT_LT(canon[i - 1].key, canon[i].key);

    // Applying the canonical sequence reproduces the config.
    SystemConfig back;
    for (const auto &ov : canon)
        back.applyOverride(ov.key, ov.value);
    EXPECT_EQ(back.toOverrides().size(), cfg.toOverrides().size());
    const auto a = cfg.canonicalOverrides();
    const auto b = back.canonicalOverrides();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].value, b[i].value) << a[i].key;
    }
}

TEST_F(ServiceTest, JobSpecSurvivesJsonRoundTrip)
{
    JobSpec spec = miniJob(7);
    spec.opts.max_cycles = 123456;
    spec.opts.audit = true;
    spec.opts.telemetry.enabled = true;
    spec.opts.telemetry.host_timing = true;
    const JobSpec back = jobSpecFromJson(jobSpecToJson(spec));
    EXPECT_EQ(back.preset, spec.preset);
    EXPECT_EQ(back.workload.name, spec.workload.name);
    ASSERT_EQ(back.workload.regions.size(),
              spec.workload.regions.size());
    EXPECT_EQ(back.opts.seed, 7u);
    EXPECT_EQ(back.opts.max_cycles, 123456u);
    EXPECT_TRUE(back.opts.audit);
    EXPECT_TRUE(back.opts.telemetry.enabled);
    EXPECT_TRUE(back.opts.telemetry.host_timing);
    EXPECT_FALSE(back.host_stats);
    EXPECT_EQ(jobKey(back), jobKey(spec))
        << "round trip must preserve content identity";
}

TEST_F(ServiceTest, JobSpecFromJsonRejectsGarbage)
{
    ScopedErrorCapture capture;
    EXPECT_THROW(jobSpecFromJson(json::parse("{}", "t")),
                 SimAbortError);
    EXPECT_THROW(jobSpecFromJson(json::parse("42", "t")),
                 SimAbortError);
    // Wrong job schema version (edit the canonical dump textually:
    // json::Value::set appends, it does not replace).
    const std::string dump = jobSpecToJson(miniJob()).dump(0);
    std::string wrong_schema = dump;
    wrong_schema.replace(wrong_schema.find(kJobSchema),
                         std::strlen(kJobSchema), "carve-job/999");
    EXPECT_THROW(jobSpecFromJson(json::parse(wrong_schema, "t")),
                 SimAbortError);
    // Unknown config key.
    std::string bad_key = dump;
    bad_key.replace(bad_key.find("\"num_gpus\""),
                    std::strlen("\"num_gpus\""), "\"no_such_key\"");
    EXPECT_THROW(jobSpecFromJson(json::parse(bad_key, "t")),
                 SimAbortError);
}

// ---- result cache --------------------------------------------------

TEST_F(ServiceTest, ResultCacheRoundTripsAndSurvivesReopen)
{
    const std::string dir = scratchDir("svc-cache-rt");
    const std::string key = "00112233445566aa";
    {
        ResultCache c(dir, 0);
        EXPECT_TRUE(c.enabled());
        EXPECT_FALSE(c.get(key).has_value());
        c.put(key, "{\"x\":1}");
        const auto got = c.get(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, "{\"x\":1}");
        EXPECT_EQ(c.stats().stores, 1u);
        EXPECT_EQ(c.stats().misses, 1u);
        EXPECT_EQ(c.stats().hits, 1u);
    }
    // A new instance adopts the directory: entries persist.
    ResultCache c2(dir, 0);
    const auto got = c2.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "{\"x\":1}");
}

TEST_F(ServiceTest, ResultCacheEvictsLeastRecentlyUsed)
{
    const std::string dir = scratchDir("svc-cache-lru");
    ResultCache c(dir, 100);
    const std::string k1 = "1111111111111111";
    const std::string k2 = "2222222222222222";
    const std::string k3 = "3333333333333333";
    c.put(k1, std::string(40, 'a'));
    c.put(k2, std::string(40, 'b'));
    ASSERT_TRUE(c.get(k1).has_value());  // k1 now more recent than k2
    c.put(k3, std::string(40, 'c'));     // 120 > 100: k2 must go
    EXPECT_TRUE(c.get(k1).has_value());
    EXPECT_FALSE(c.get(k2).has_value());
    EXPECT_TRUE(c.get(k3).has_value());
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_LE(c.stats().bytes, 100u);
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/" + k2 + ".json"));
}

TEST_F(ServiceTest, DisabledResultCacheIsInert)
{
    ResultCache c("", 0);
    EXPECT_FALSE(c.enabled());
    c.put("aaaaaaaaaaaaaaaa", "{}");
    EXPECT_FALSE(c.get("aaaaaaaaaaaaaaaa").has_value());
    EXPECT_EQ(c.stats().stores, 0u);
}

// ---- end-to-end daemon ---------------------------------------------

TEST_F(ServiceTest, ServerMemoizesAndServesByteIdenticalRecords)
{
    const std::string dir = scratchDir("svc-e2e");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 2;
    opt.cache_dir = dir + "/cache";
    opt.quiet = true;

    std::string first_record;
    const JobSpec job = miniJob();

    {
        Server server(opt);
        ServingThread serving(server);
        auto client = connectRetry(opt.socket_path);
        ASSERT_TRUE(client.has_value());

        const SubmitReply s1 = client->submit(job);
        ASSERT_TRUE(s1.ok) << s1.error;
        EXPECT_TRUE(isJobKey(s1.id));
        EXPECT_EQ(s1.id, jobKey(job));

        bool saw_event = false;
        const ResultReply r1 = client->result(
            s1.id, [&](const std::string &ev, const std::string &,
                       const std::string &) {
                saw_event |= ev == "state";
            });
        ASSERT_TRUE(r1.ok) << r1.error;
        EXPECT_EQ(r1.state, "done");
        EXPECT_FALSE(r1.cached);
        EXPECT_TRUE(saw_event);
        EXPECT_EQ(r1.run.status, harness::RunStatus::Ok);
        EXPECT_GT(r1.run.sim.cycles, 0u);
        first_record = r1.record_json;

        // The served record is byte-identical to in-process
        // execution of the same spec.
        const harness::RunResult local =
            harness::executeRun(miniSpec());
        EXPECT_EQ(harness::resultToJson(local).dump(0),
                  first_record);

        // Identical resubmission: answered from the registry
        // without re-simulating, byte-identical.
        const SubmitReply s2 = client->submit(job);
        ASSERT_TRUE(s2.ok) << s2.error;
        EXPECT_EQ(s2.id, s1.id);
        EXPECT_TRUE(s2.cached);
        const ResultReply r2 = client->result(s1.id);
        ASSERT_TRUE(r2.ok) << r2.error;
        EXPECT_EQ(r2.record_json, first_record);

        // A preset alias names the same job.
        JobSpec alias = job;
        alias.preset = "carvehwc";
        const SubmitReply s3 = client->submit(alias);
        EXPECT_EQ(s3.id, s1.id);
        EXPECT_TRUE(s3.cached);

        const json::Value st = client->stats();
        EXPECT_GE(st.at("memo_hits").asInt(), 1);
        EXPECT_EQ(st.at("completed").asInt(), 1);
        EXPECT_GE(st.at("cache").at("stores").asInt(), 1);

        serving.drainAndJoin();
        EXPECT_FALSE(
            std::filesystem::exists(opt.socket_path))
            << "drain must remove the socket file";
    }

    // Restarted daemon, same cache dir: the disk cache answers the
    // resubmission without re-simulating, byte-identically.
    {
        Server server(opt);
        ServingThread serving(server);
        auto client = connectRetry(opt.socket_path);
        ASSERT_TRUE(client.has_value());

        const SubmitReply s = client->submit(job);
        ASSERT_TRUE(s.ok) << s.error;
        EXPECT_TRUE(s.cached) << "disk cache must answer the restart";
        const ResultReply r = client->result(s.id);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.cached);
        EXPECT_EQ(r.record_json, first_record);

        const json::Value st = client->stats();
        EXPECT_EQ(st.at("completed").asInt(), 0)
            << "nothing may have been simulated after the restart";
        EXPECT_GE(st.at("cache").at("hits").asInt(), 1);

        serving.drainAndJoin();
    }
}

TEST_F(ServiceTest, TelemetryJobIsServedByteIdentically)
{
    const std::string dir = scratchDir("svc-telemetry");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = "";
    opt.quiet = true;

    Server server(opt);
    ServingThread serving(server);
    auto client = connectRetry(opt.socket_path);
    ASSERT_TRUE(client.has_value());

    harness::RunSpec spec = miniSpec();
    spec.opts.telemetry.enabled = true;
    const SubmitReply s = client->submit(jobFromRunSpec(spec));
    EXPECT_TRUE(s.ok) << s.error;
    const ResultReply r = client->result(s.id);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.record_json,
              harness::resultToJson(harness::executeRun(spec)).dump(0));
    // Histogram stats exist only with telemetry on.
    EXPECT_NE(r.record_json.find(".p99\""), std::string::npos);

    serving.drainAndJoin();
}

TEST_F(ServiceTest, ServerHandlesFailedRunsAndBadRequests)
{
    const std::string dir = scratchDir("svc-fail");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = dir + "/cache";
    opt.quiet = true;

    Server server(opt);
    ServingThread serving(server);
    auto client = connectRetry(opt.socket_path);
    ASSERT_TRUE(client.has_value());

    // A spec whose config fails validation deep inside system
    // construction: the run must come back Failed, not kill the
    // daemon.
    harness::RunSpec bad = miniSpec();
    bad.base.line_size = 100;  // not a power of two
    const SubmitReply s = client->submit(jobFromRunSpec(bad));
    ASSERT_TRUE(s.ok) << s.error;
    const ResultReply r = client->result(s.id);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.run.status, harness::RunStatus::Failed);
    EXPECT_FALSE(r.run.error.empty());

    // Failed runs are memoized in the registry but never persisted.
    const SubmitReply again = client->submit(jobFromRunSpec(bad));
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.cached);
    const json::Value st = client->stats();
    EXPECT_EQ(st.at("failed_runs").asInt(), 1);
    EXPECT_EQ(st.at("cache").at("stores").asInt(), 0);

    // Malformed submissions and unknown ids error without dropping
    // the connection.
    json::Value req{json::Members{}};
    req.set("op", "submit");
    req.set("job", json::Value{json::Members{}});
    const json::Value resp = client->request(req);
    ASSERT_TRUE(resp.isObject());
    EXPECT_FALSE(resp.at("ok").asBool());

    json::Value status{json::Members{}};
    status.set("op", "status");
    status.set("id", "ffffffffffffffff");
    const json::Value sresp = client->request(status);
    ASSERT_TRUE(sresp.isObject());
    EXPECT_FALSE(sresp.at("ok").asBool());

    EXPECT_FALSE(client->cancel("ffffffffffffffff"));

    // An unknown preset is a submit error, and a traced job is
    // refused by the client before it is sent.
    JobSpec unknown = miniJob();
    unknown.preset = "no-such-preset";
    const SubmitReply u = client->submit(unknown);
    EXPECT_FALSE(u.ok);
    EXPECT_NE(u.error.find("unknown preset"), std::string::npos)
        << u.error;
    harness::RunSpec traced = miniSpec();
    traced.opts.trace.enabled = true;
    const SubmitReply t = client->submit(jobFromRunSpec(traced));
    EXPECT_FALSE(t.ok);
    EXPECT_FALSE(t.retriable);
    EXPECT_NE(t.error.find("trace"), std::string::npos) << t.error;

    // The connection survived all of the above.
    const json::Value st2 = client->stats();
    EXPECT_TRUE(st2.at("ok").asBool());

    serving.drainAndJoin();
}

TEST_F(ServiceTest, DeeplyNestedRequestLeavesTheServerUp)
{
    const std::string dir = scratchDir("svc-deep");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = dir + "/cache";
    opt.quiet = true;

    Server server(opt);
    ServingThread serving(server);
    ASSERT_TRUE(connectRetry(opt.socket_path).has_value());

    // This line used to overflow the parser's stack and kill the
    // daemon (SIGSEGV); now it is one malformed request.
    LineChannel raw = connectUnix(opt.socket_path);
    ASSERT_TRUE(raw.valid());
    ASSERT_TRUE(raw.writeLine(std::string(100'000, '[')));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    const json::Value resp = json::parse(line, "response");
    EXPECT_FALSE(resp.at("ok").asBool());
    EXPECT_NE(resp.at("error").asString().find("nesting too deep"),
              std::string::npos)
        << line;

    // A new connection still gets an answer to ping.
    EXPECT_TRUE(Client::connect(opt.socket_path).has_value());

    serving.drainAndJoin();
}

TEST_F(ServiceTest, TruncatedCacheEntryFailsOnlyItsResult)
{
    const std::string dir = scratchDir("svc-trunc");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = dir + "/cache";
    opt.quiet = true;
    const JobSpec job = miniJob();
    std::string first_record;

    {
        Server server(opt);
        ServingThread serving(server);
        auto client = connectRetry(opt.socket_path);
        ASSERT_TRUE(client.has_value());
        const SubmitReply s = client->submit(job);
        ASSERT_TRUE(s.ok) << s.error;
        const ResultReply r = client->result(s.id);
        ASSERT_TRUE(r.ok) << r.error;
        first_record = r.record_json;
        serving.drainAndJoin();
    }

    // Cut the stored record in half, as a full disk or a crash in a
    // copy of the cache directory might.
    const std::string entry =
        opt.cache_dir + "/" + jobKey(job) + ".json";
    ASSERT_TRUE(std::filesystem::exists(entry));
    std::filesystem::resize_file(entry,
                                 std::filesystem::file_size(entry) / 2);

    Server server(opt);
    ServingThread serving(server);
    auto client = connectRetry(opt.socket_path);
    ASSERT_TRUE(client.has_value());
    const SubmitReply s = client->submit(job);
    ASSERT_TRUE(s.ok) << s.error;
    EXPECT_TRUE(s.cached) << "the disk cache answers the restart";
    const ResultReply r = client->result(s.id);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("stored record unreadable"),
              std::string::npos)
        << r.error;

    // The daemon keeps answering, here and on a new connection.
    EXPECT_TRUE(client->stats().at("ok").asBool());
    EXPECT_TRUE(Client::connect(opt.socket_path).has_value());

    // The unreadable entry is gone: a resubmit simulates the job
    // again, gets the first daemon's bytes and stores them whole.
    const SubmitReply again = client->submit(job);
    EXPECT_TRUE(again.ok) << again.error;
    EXPECT_FALSE(again.cached);
    const ResultReply fresh = client->result(again.id);
    EXPECT_TRUE(fresh.ok) << fresh.error;
    EXPECT_FALSE(fresh.cached);
    EXPECT_EQ(fresh.record_json, first_record);
    // The store trails the Done transition by a beat; poll it in.
    for (int i = 0; i < 250; ++i) {
        if (client->stats().at("cache").at("stores").asInt() >= 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::ifstream is(entry, std::ios::binary);
    const std::string stored{std::istreambuf_iterator<char>(is), {}};
    EXPECT_EQ(stored, first_record);

    serving.drainAndJoin();
}

TEST_F(ServiceTest, ServerAppliesBackpressureAndCancellation)
{
    const std::string dir = scratchDir("svc-queue");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = "";  // cache off so every job needs a worker
    opt.queue_depth = 1;
    opt.quiet = true;

    Server server(opt);
    ServingThread serving(server);
    auto client = connectRetry(opt.socket_path);
    ASSERT_TRUE(client.has_value());

    // Occupy the single worker with a longer run.
    harness::RunSpec slow = miniSpec(11);
    slow.workload.insts_per_warp *= 16;
    const SubmitReply s1 = client->submit(jobFromRunSpec(slow));
    ASSERT_TRUE(s1.ok) << s1.error;

    // Wait until it is actually running so the queue is empty.
    json::Value status{json::Members{}};
    status.set("op", "status");
    status.set("id", s1.id);
    for (int i = 0; i < 250; ++i) {
        const json::Value sr = client->request(status);
        if (sr.at("state").isString() &&
            sr.at("state").asString() != "queued")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // Fill the one queue slot, then overflow it.
    const SubmitReply s2 = client->submit(jobFromRunSpec(miniSpec(12)));
    ASSERT_TRUE(s2.ok) << s2.error;
    const SubmitReply s3 = client->submit(jobFromRunSpec(miniSpec(13)));
    EXPECT_FALSE(s3.ok);
    EXPECT_TRUE(s3.retriable)
        << "queue-full rejection must be marked retriable";

    // Cancel the queued job; its waiters get a cancelled error.
    EXPECT_TRUE(client->cancel(s2.id));
    const ResultReply r2 = client->result(s2.id);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.state, "cancelled");

    // Cancelling a running (or done) job is a no-op.
    EXPECT_FALSE(client->cancel(s1.id));

    // Resubmitting after cancellation runs the job for real.
    const SubmitReply s2b = client->submit(jobFromRunSpec(miniSpec(12)));
    ASSERT_TRUE(s2b.ok) << s2b.error;
    EXPECT_FALSE(s2b.cached);
    const ResultReply r2b = client->result(s2b.id);
    ASSERT_TRUE(r2b.ok) << r2b.error;
    EXPECT_EQ(r2b.run.status, harness::RunStatus::Ok);

    const ResultReply r1 = client->result(s1.id);
    ASSERT_TRUE(r1.ok) << r1.error;

    serving.drainAndJoin();
}

TEST_F(ServiceTest, MetricsOpAnswersPrometheusTextExposition)
{
    const std::string dir = scratchDir("svc-metrics");
    Server::Options opt;
    opt.socket_path = dir + "/s.sock";
    opt.threads = 1;
    opt.cache_dir = dir + "/cache";
    opt.quiet = true;

    Server server(opt);
    ServingThread serving(server);
    auto client = connectRetry(opt.socket_path);
    ASSERT_TRUE(client.has_value());

    // Before any job: every family present, all counters zero.
    std::string text = client->metrics();
    ASSERT_FALSE(text.empty());
    for (const char *family :
         {"carve_uptime_seconds", "carve_worker_threads",
          "carve_jobs_queued", "carve_jobs_in_flight",
          "carve_jobs_submitted_total",
          "carve_jobs_completed_total", "carve_jobs_failed_total",
          "carve_memo_hits_total", "carve_cache_hits_total",
          "carve_cache_misses_total", "carve_cache_bytes",
          "carve_draining", "carve_job_latency_seconds"}) {
        EXPECT_NE(text.find(std::string("# TYPE ") + family),
                  std::string::npos)
            << "missing family " << family;
    }
    EXPECT_NE(text.find("carve_jobs_completed_total 0\n"),
              std::string::npos);

    // One real run plus a memoized resubmit: counters and the
    // latency histogram move, and the JSON stats endpoint reports
    // the same figures (both read one snapshot path).
    const JobSpec job = miniJob();
    const SubmitReply s = client->submit(job);
    ASSERT_TRUE(s.ok) << s.error;
    const ResultReply r = client->result(s.id);
    ASSERT_TRUE(r.ok) << r.error;
    const SubmitReply again = client->submit(job);
    ASSERT_TRUE(again.ok);
    EXPECT_TRUE(again.cached);

    // The disk store trails the Done transition by a beat (the
    // worker persists after waking waiters); poll it in.
    for (int i = 0; i < 250; ++i) {
        text = client->metrics();
        if (text.find("carve_cache_stores_total 1\n") !=
            std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_NE(text.find("carve_jobs_completed_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("carve_memo_hits_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("carve_cache_stores_total 1\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("carve_job_latency_seconds_bucket{le=\"+Inf\"} 1"),
        std::string::npos);
    EXPECT_NE(text.find("carve_job_latency_seconds_count 1"),
              std::string::npos);

    const json::Value st = client->stats();
    EXPECT_EQ(st.at("completed").asInt(), 1);
    EXPECT_TRUE(st.at("job_latency").isObject());
    EXPECT_EQ(st.at("job_latency").at("count").asInt(), 1);
    EXPECT_GT(st.at("uptime_seconds").asDouble(), 0.0);
    EXPECT_FALSE(st.at("draining").asBool());

    serving.drainAndJoin();
}

} // namespace
} // namespace service
} // namespace carve
