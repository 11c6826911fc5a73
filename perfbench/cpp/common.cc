#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <thread>

#include <sys/resource.h>

#include "common/hostnuma.hh"
#include "common/logging.hh"
#include "core/multi_gpu_system.hh"
#include "harness/results_io.hh"
#include "harness/stats_json.hh"
#include "service/job_key.hh"
#include "workloads/suite.hh"

namespace perfbench {

using namespace carve;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- spans ----------------------------------------------------------

namespace {

/** Small per-thread ids for the trace's tid field. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
}

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {}

int
SpanLog::begin(const char *name, int parent, std::int64_t job)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = parent;
    s.job = job;
    s.tid = threadIndex();
    std::lock_guard lock(mu_);
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    if (id < 0)
        return;
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
    spans_[static_cast<std::size_t>(id)].closed = true;
}

void
SpanLog::writeChrome(const std::string &path) const
{
    Value events{json::Array{}};
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (!s.closed)
            continue;
        Value e{json::Members{}};
        e.set("name", s.name);
        e.set("ph", "X");
        e.set("ts", microsBetween(origin_, s.start));
        e.set("dur", microsBetween(s.start, s.end));
        e.set("pid", 1);
        e.set("tid", s.tid);
        Value args{json::Members{}};
        args.set("id", static_cast<std::uint64_t>(i));
        args.set("parent", s.parent);
        args.set("job", s.job);
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    Value doc{json::Members{}};
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path);
    out << doc.dump(0) << "\n";
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::lock_guard lock(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.closed && s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                microsBetween(s.start, s.end) * 1e-6;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].closed)
            self[spans_[i].name] +=
                microsBetween(spans_[i].start, spans_[i].end) * 1e-6 -
                child[i];
    }
    return self;
}

Timed::Timed(SpanLog &log, const char *name, int parent,
             std::int64_t job)
    : log_(log), id_(log.begin(name, parent, job)),
      start_(Clock::now())
{
}

Timed::~Timed() { stop(); }

double
Timed::stop()
{
    if (!stopped_) {
        elapsed_ = secondsSince(start_);
        log_.end(id_);
        stopped_ = true;
    }
    return elapsed_;
}

// ---- digest ---------------------------------------------------------

namespace {

bool
isHostStat(const std::string &name)
{
    return name == "sim.wall_seconds" || name == "sim.peak_rss_bytes" ||
        name.rfind("engine.barrier_wait_ns", 0) == 0;
}

} // namespace

std::string
statDigest(const std::vector<stats::FlatStat> &tree)
{
    std::vector<stats::FlatStat> kept;
    kept.reserve(tree.size());
    for (const stats::FlatStat &s : tree) {
        if (!isHostStat(s.name))
            kept.push_back(s);
    }
    const std::uint64_t h =
        service::fnv1a64(harness::statTreeToJson(kept).dump(0));
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

// ---- per-layer stat aggregation ------------------------------------

namespace {

/** "gpu3.sm12.l1.hits" -> "gpu#.sm#.l1.hits": instance numbers of
 * GPUs, SMs, DRAM channels, IMSTs and link endpoints become '#', so
 * one rule covers every instance. */
std::string
normalize(std::string_view name)
{
    std::string out;
    out.reserve(name.size());
    std::size_t i = 0;
    while (i <= name.size()) {
        std::size_t j = name.find('.', i);
        if (j == std::string_view::npos)
            j = name.size();
        const std::string_view comp = name.substr(i, j - i);
        std::size_t k = comp.size();
        while (k > 0 &&
               std::isdigit(static_cast<unsigned char>(comp[k - 1])))
            --k;
        const std::string_view stem = comp.substr(0, k);
        const bool numbered = k < comp.size() &&
            (stem.empty() || stem == "gpu" || stem == "sm" ||
             stem == "ch" || stem == "imst");
        out.append(numbered ? stem : comp);
        if (numbered)
            out.push_back('#');
        if (j < name.size())
            out.push_back('.');
        i = j + 1;
    }
    return out;
}

/** Normalized stat name -> the counters it adds to. */
const std::multimap<std::string, std::string> &
sumRules()
{
    static const std::multimap<std::string, std::string> rules = {
        {"sim.events", "events"},
        {"sim.cycles", "cycles"},
        {"sim.insts_issued", "insts"},
        {"gpu#.sm#.lines_accessed", "sm.lines"},
        {"gpu#.sm#.mshr_stalls", "sm.mshr_stalls"},
        {"gpu#.sm#.l1.probes", "l1.probes"},
        {"gpu#.sm#.l1.hits", "l1.hits"},
        {"gpu#.sm#.l1.misses", "l1.misses"},
        {"gpu#.sm#.l1.mshrs.parks", "cache.mshr_parks"},
        {"gpu#.l2.probes", "l2.probes"},
        {"gpu#.l2.hits", "l2.hits"},
        {"gpu#.l2.misses", "l2.misses"},
        {"gpu#.l2.mshrs.parks", "cache.mshr_parks"},
        {"gpu#.tlb.l1_hits", "tlb.l1_hits"},
        {"gpu#.tlb.l1_hits", "tlb.translates"},
        {"gpu#.tlb.l2_hits", "tlb.translates"},
        {"gpu#.tlb.walks", "tlb.translates"},
        {"gpu#.tlb.walks", "tlb.walks"},
        {"gpu#.rdc.alloy.probes", "rdc.probes"},
        {"gpu#.rdc.alloy.hits", "rdc.hits"},
        {"gpu#.rdc.predictor.correct", "rdc.pred_correct"},
        {"gpu#.rdc.predictor.correct", "rdc.pred_total"},
        {"gpu#.rdc.predictor.wrong", "rdc.pred_total"},
        {"gpu#.rdc.mshrs.parks", "rdc.mshr_parks"},
        {"gpu#.mem.reads", "dram.accesses"},
        {"gpu#.mem.writes", "dram.accesses"},
        {"gpu#.mem.ch#.read_q_delay.sum", "dram.read_q_delay_sum"},
        {"gpu#.mem.ch#.read_q_delay.count", "dram.read_q_delay_count"},
        {"link.#.#.bytes", "link.gpu_bytes"},
        {"link.#.#.packets", "link.packets"},
        {"link.#.cpu.packets", "link.packets"},
        {"link.cpu.#.packets", "link.packets"},
        {"link.#.#.queue_delay.sum", "link.queue_delay_sum"},
        {"link.#.cpu.queue_delay.sum", "link.queue_delay_sum"},
        {"link.cpu.#.queue_delay.sum", "link.queue_delay_sum"},
        {"link.#.#.queue_delay.count", "link.queue_delay_count"},
        {"link.#.cpu.queue_delay.count", "link.queue_delay_count"},
        {"link.cpu.#.queue_delay.count", "link.queue_delay_count"},
        {"coherence.invalidates_sent", "coh.invalidates"},
        {"coherence.writes_filtered", "coh.writes_filtered"},
        {"coherence.imst#.shared_writes", "coh.imst_writes"},
        {"coherence.imst#.filtered_writes", "coh.imst_writes"},
        {"fabric.flush_bytes", "coh.flush_bytes"},
        {"gpu#.traffic.remote_reads", "traffic.remote"},
        {"gpu#.traffic.remote_writes", "traffic.remote"},
        {"gpu#.traffic.local_reads", "traffic.total"},
        {"gpu#.traffic.remote_reads", "traffic.total"},
        {"gpu#.traffic.rdc_hit_reads", "traffic.total"},
        {"gpu#.traffic.cpu_reads", "traffic.total"},
        {"gpu#.traffic.local_writes", "traffic.total"},
        {"gpu#.traffic.remote_writes", "traffic.total"},
        {"gpu#.traffic.rdc_hit_writes", "traffic.total"},
        {"gpu#.traffic.cpu_writes", "traffic.total"},
        {"numa.first_touches", "numa.first_touches"},
        {"numa.replications", "numa.replications"},
        {"numa.collapses", "numa.collapses"},
        {"engine.windows", "engine.windows"},
        {"engine.exchange_msgs.sum", "engine.exchange_msgs"},
        {"engine.barrier_wait_ns.sum", "engine.barrier_wait_ns"},
    };
    return rules;
}

/** Normalized histogram base -> (output name, percentile member). */
const std::map<std::string, std::pair<std::string, std::string>> &
histRules()
{
    static const std::map<std::string,
                          std::pair<std::string, std::string>>
        rules = {
            {"gpu#.l2.mshrs.miss_lifetime",
             {"l2.miss_lifetime_p99", "p99"}},
            {"gpu#.rdc.mshrs.miss_lifetime",
             {"rdc.miss_lifetime_p99", "p99"}},
            {"fabric.remote_read_latency",
             {"fabric.remote_read_p99", "p99"}},
            {"engine.window_occupancy",
             {"engine.window_occupancy_p50", "p50"}},
        };
    return rules;
}

} // namespace

void
LayerCounts::add(const std::vector<stats::FlatStat> &tree)
{
    const auto &sums = sumRules();
    const auto &hists = histRules();
    // Per-GPU DRAM accesses and row-hit rates, paired up after the
    // pass so the combined rate is access-weighted.
    std::map<std::string, std::pair<double, double>> dram;
    // Raw histogram base -> {percentile, count}.
    std::map<std::string, std::pair<double, double>> hist;
    for (const stats::FlatStat &s : tree) {
        const std::string norm = normalize(s.name);
        const auto [lo, hi] = sums.equal_range(norm);
        for (auto it = lo; it != hi; ++it)
            sums_[it->second] += s.asDouble();
        const std::string_view name = s.name;
        const std::size_t dot = name.rfind('.');
        if (dot == std::string_view::npos)
            continue;
        const std::string base(name.substr(0, dot));
        const std::string_view leaf = name.substr(dot + 1);
        if (norm == "gpu#.mem.row_hit_rate") {
            dram[base].first = s.asDouble();
        } else if (norm == "gpu#.mem.reads" ||
                   norm == "gpu#.mem.writes") {
            dram[base].second += s.asDouble();
        }
        const auto h = hists.find(normalize(base));
        if (h == hists.end())
            continue;
        if (leaf == h->second.second)
            hist[base].first = s.asDouble();
        else if (leaf == "count")
            hist[base].second = s.asDouble();
    }
    for (const auto &[base, rate_acc] : dram)
        sums_["dram.row_hits"] += rate_acc.first * rate_acc.second;
    for (const auto &[base, pc] : hist) {
        hists_[histRules().at(normalize(base)).first].push_back(pc);
    }
}

Value
LayerCounts::toJson() const
{
    Value sums{json::Members{}};
    for (const auto &[k, v] : sums_)
        sums.set(k, v);
    Value hists{json::Members{}};
    for (const auto &[k, list] : hists_) {
        Value arr{json::Array{}};
        for (const auto &[p, n] : list) {
            Value e{json::Array{}};
            e.push(p);
            e.push(n);
            arr.push(std::move(e));
        }
        hists.set(k, std::move(arr));
    }
    Value o{json::Members{}};
    o.set("sums", std::move(sums));
    o.set("hists", std::move(hists));
    return o;
}

// ---- jobs -----------------------------------------------------------

namespace {

/** The engine fields carve::run() resolves from the job options. */
SystemConfig
resolvedConfig(const SimJob &job)
{
    SystemConfig cfg = job.config;
    if (job.options.engine)
        cfg.engine = *job.options.engine;
    if (job.options.sim_threads)
        cfg.sim_threads = *job.options.sim_threads;
    return cfg;
}

} // namespace

JobRun
runJob(const SimJob &job, SpanLog &log, std::int64_t job_id,
       bool keep_tree)
{
    JobRun out;
    const RunOptions &opt = job.options;
    Timed whole(log, "job", -1, job_id);
    try {
        ScopedErrorCapture capture;
        const SystemConfig cfg = resolvedConfig(job);

        Timed build(log, "build", whole.id(), job_id);
        Timed t_wl(log, "SyntheticWorkload", build.id(), job_id);
        SyntheticWorkload wl(job.workload, cfg.line_size, opt.seed);
        t_wl.stop();
        Timed t_sys(log, "MultiGpuSystem", build.id(), job_id);
        MultiGpuSystem sys(cfg, wl, opt.profile_lines, opt.audit,
                           opt.telemetry);
        t_sys.stop();
        out.build_s = build.stop();

        Timed t_run(log, "MultiGpuSystem::run", whole.id(), job_id);
        sys.run(opt.max_cycles, opt.max_wall_seconds);
        out.run_s = t_run.stop();

        Timed t_col(log, "collectResult", whole.id(), job_id);
        harness::RunResult rr;
        rr.preset = job.preset_label;
        rr.workload = job.workload.name;
        rr.seed = opt.seed;
        rr.sim = collectResult(sys, job.workload.name, job.preset_label);
        rr.sim.watchdog_tripped = sys.watchdogTripped();
        out.collect_s = t_col.stop();
        if (rr.sim.watchdog_tripped) {
            // Same status and message harness::executeRun records.
            rr.status = harness::RunStatus::Watchdog;
            rr.error = "watchdog tripped (max_cycles/max_wall)";
        }

        Timed t_ser(log, "resultToJson", whole.id(), job_id);
        out.record = harness::resultToJson(rr).dump(0);
        out.serialize_s = t_ser.stop();

        out.ok = rr.ok();
        if (!out.ok)
            out.error = rr.error;
        out.warp_insts = rr.sim.warp_insts;
        out.events = rr.sim.events;
        out.digest = statDigest(rr.sim.stat_tree);
        if (keep_tree)
            out.tree = std::move(rr.sim.stat_tree);
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

double
buildOnly(const SimJob &job)
{
    const SystemConfig cfg = resolvedConfig(job);
    const Clock::time_point t0 = Clock::now();
    SyntheticWorkload wl(job.workload, cfg.line_size, job.options.seed);
    MultiGpuSystem sys(cfg, wl, job.options.profile_lines,
                       job.options.audit, job.options.telemetry);
    return secondsSince(t0);
}

bool
reloadRecords(const std::vector<std::string> &records,
              const std::vector<std::string> &digests, std::size_t start,
              std::size_t count, bool check,
              std::vector<double> &latencies)
{
    bool ok = true;
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j = (start + i) % records.size();
        const Clock::time_point t0 = Clock::now();
        harness::RunResult r =
            harness::resultFromJson(json::parse(records[j], "record"));
        latencies.push_back(secondsSince(t0));
        if (check && i < records.size() &&
            statDigest(r.sim.stat_tree) != digests[j])
            ok = false;
    }
    return ok;
}

WorkloadParams
suiteAt(const std::string &name, std::uint64_t insts_per_warp)
{
    SuiteOptions so;
    so.memory_scale = kMemoryScale;
    WorkloadParams p = suiteWorkload(name, so);
    p.insts_per_warp = insts_per_warp;
    return p;
}

harness::RunSpec
makeSpec(Preset preset, const WorkloadParams &workload,
         std::uint64_t seed, bool telemetry, bool host_timing)
{
    harness::RunSpec s;
    s.preset = preset;
    s.workload = workload;
    s.base = SystemConfig{}.scaled(kMemoryScale);
    s.opts.seed = seed;
    s.opts.profile_lines = false;
    s.opts.max_cycles = 1'000'000'000;
    s.opts.tolerate_watchdog = true;
    s.opts.telemetry.enabled = telemetry;
    s.opts.telemetry.host_timing = host_timing;
    s.host_stats = false;
    return s;
}

void
Tally::fail(const std::string &what)
{
    ++failed;
    if (errors.asArray().size() < 20)
        errors.push(what);
}

Value
toArray(const std::vector<double> &v)
{
    Value a{json::Array{}};
    for (const double x : v)
        a.push(x);
    return a;
}

// ---- host record ----------------------------------------------------

Value
hostRecord()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            if (c != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', c + 1));
            break;
        }
    }
    Value h{json::Members{}};
    h.set("cpu_model", cpu);
    h.set("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
    h.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    h.set("compiler", std::string("gcc ") + __VERSION__);
#else
    h.set("compiler", "unknown");
#endif
    h.set("build_type", PERFBENCH_BUILD_TYPE);
    h.set("git_describe", harness::gitDescribe());
    h.set("carve_numa_compiled", CARVE_NUMA_ENABLED != 0);
    h.set("hostnuma_found_libnuma", hostnuma::available());
    return h;
}

std::uint64_t
peakRssKib()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

Value
runLength(const std::string &job, std::uint64_t insts_per_warp,
          std::uint64_t warp_insts, std::uint64_t events)
{
    Value v{json::Members{}};
    v.set("job", job);
    v.set("insts_per_warp", insts_per_warp);
    v.set("warp_insts", warp_insts);
    v.set("events", events);
    return v;
}

} // namespace perfbench
