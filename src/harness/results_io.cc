#include "harness/results_io.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/logging.hh"
#include "harness/stats_json.hh"

namespace carve {
namespace harness {

namespace {

// Checked reads of run-record members (see json::requireU64).
constexpr const char *kRecord = "results: run record";

std::uint64_t
u64At(const json::Value &v, const char *key)
{
    return json::requireU64(v, key, kRecord);
}

double
dblAt(const json::Value &v, const char *key)
{
    return json::requireNumber(v, key, kRecord);
}

const std::string &
strAt(const json::Value &v, const char *key)
{
    return json::requireString(v, key, kRecord);
}

json::Value
trafficToJson(const GpuTraffic &t)
{
    json::Value o{json::Members{}};
    o.set("local_reads", t.local_reads.value());
    o.set("remote_reads", t.remote_reads.value());
    o.set("rdc_hit_reads", t.rdc_hit_reads.value());
    o.set("cpu_reads", t.cpu_reads.value());
    o.set("local_writes", t.local_writes.value());
    o.set("remote_writes", t.remote_writes.value());
    o.set("rdc_hit_writes", t.rdc_hit_writes.value());
    o.set("cpu_writes", t.cpu_writes.value());
    return o;
}

GpuTraffic
trafficFromJson(const json::Value &v)
{
    GpuTraffic t;
    t.local_reads = u64At(v, "local_reads");
    t.remote_reads = u64At(v, "remote_reads");
    t.rdc_hit_reads = u64At(v, "rdc_hit_reads");
    t.cpu_reads = u64At(v, "cpu_reads");
    t.local_writes = u64At(v, "local_writes");
    t.remote_writes = u64At(v, "remote_writes");
    // Absent in results files written before write-back RDC writes
    // were classified separately.
    if (v.has("rdc_hit_writes"))
        t.rdc_hit_writes = u64At(v, "rdc_hit_writes");
    t.cpu_writes = u64At(v, "cpu_writes");
    return t;
}

json::Value
sharingToJson(const SharingBreakdown &s)
{
    json::Value o{json::Members{}};
    o.set("private", s.private_accesses);
    o.set("read_only_shared", s.read_only_shared);
    o.set("read_write_shared", s.read_write_shared);
    return o;
}

SharingBreakdown
sharingFromJson(const json::Value &v)
{
    SharingBreakdown s;
    s.private_accesses = u64At(v, "private");
    s.read_only_shared = u64At(v, "read_only_shared");
    s.read_write_shared = u64At(v, "read_write_shared");
    return s;
}

} // namespace

std::string
gitDescribe()
{
    // Not part of the determinism contract (same tree -> same
    // string); purely provenance for humans reading result files.
    // git runs in this source file's directory (CMake compiles with
    // absolute paths), so the answer names the checkout the binary
    // was built from, wherever it runs.
    std::string dir = __FILE__;
    const std::size_t slash = dir.rfind('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    std::string quoted = "'";
    for (const char c : dir) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    const std::string cmd =
        "git -C " + quoted + " describe --always --dirty 2>/dev/null";
    std::FILE *p = popen(cmd.c_str(), "r");
    if (!p)
        return "unknown";
    char buf[128];
    std::string out;
    while (std::fgets(buf, sizeof(buf), p))
        out += buf;
    pclose(p);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

json::Value
resultToJson(const RunResult &r)
{
    json::Value o{json::Members{}};
    o.set("preset", r.preset);
    o.set("workload", r.workload);
    o.set("seed", r.seed);
    o.set("status", runStatusName(r.status));
    if (!r.error.empty())
        o.set("error", r.error);
    if (r.status == RunStatus::Failed)
        return o;  // no meaningful stats to record

    json::Value stats{json::Members{}};
    const SimResult &s = r.sim;
    stats.set("cycles", s.cycles);
    stats.set("warp_insts", s.warp_insts);
    stats.set("ipc", s.ipc());
    stats.set("frac_remote", s.frac_remote);
    stats.set("traffic", trafficToJson(s.traffic));
    stats.set("gpu_gpu_bytes", s.gpu_gpu_bytes);
    stats.set("cpu_gpu_bytes", s.cpu_gpu_bytes);
    stats.set("rdc_hits", s.rdc_hits);
    stats.set("rdc_misses", s.rdc_misses);
    stats.set("hw_invalidates", s.hw_invalidates);
    stats.set("migrations", s.migrations);
    stats.set("replications", s.replications);
    stats.set("collapses", s.collapses);
    stats.set("um_migrations", s.um_migrations);
    stats.set("capacity_pressure", s.capacity_pressure);
    stats.set("l2_hit_rate", s.l2_hit_rate);
    stats.set("page_sharing", sharingToJson(s.page_sharing));
    stats.set("line_sharing", sharingToJson(s.line_sharing));
    stats.set("shared_page_footprint", s.shared_page_footprint);
    stats.set("shared_line_footprint", s.shared_line_footprint);
    stats.set("total_page_footprint", s.total_page_footprint);
    o.set("stats", std::move(stats));
    // v2: the whole flattened registry, after the v1 summary block so
    // v1-era readers that index fields positionally keep working.
    if (!s.stat_tree.empty())
        o.set("stat_tree", statTreeToJson(s.stat_tree));
    return o;
}

RunResult
resultFromJson(json::Value v)
{
    if (!v.isObject())
        fatal("results: run record is not a JSON object");
    RunResult r;
    r.preset = strAt(v, "preset");
    r.workload = strAt(v, "workload");
    r.seed = u64At(v, "seed");
    r.status = parseRunStatus(strAt(v, "status"));
    if (v.has("error"))
        r.error = strAt(v, "error");
    if (!v.has("stats"))
        return r;

    const json::Value &s = v.at("stats");
    if (!s.isObject())
        fatal("results: run record member 'stats' is not an object");
    r.sim.workload = r.workload;
    r.sim.preset = r.preset;
    r.sim.cycles = u64At(s, "cycles");
    r.sim.warp_insts = u64At(s, "warp_insts");
    r.sim.frac_remote = dblAt(s, "frac_remote");
    r.sim.traffic =
        trafficFromJson(json::requireObject(s, "traffic", kRecord));
    r.sim.gpu_gpu_bytes = u64At(s, "gpu_gpu_bytes");
    r.sim.cpu_gpu_bytes = u64At(s, "cpu_gpu_bytes");
    r.sim.rdc_hits = u64At(s, "rdc_hits");
    r.sim.rdc_misses = u64At(s, "rdc_misses");
    r.sim.hw_invalidates = u64At(s, "hw_invalidates");
    r.sim.migrations = u64At(s, "migrations");
    r.sim.replications = u64At(s, "replications");
    r.sim.collapses = u64At(s, "collapses");
    r.sim.um_migrations = u64At(s, "um_migrations");
    r.sim.capacity_pressure = dblAt(s, "capacity_pressure");
    r.sim.l2_hit_rate = dblAt(s, "l2_hit_rate");
    r.sim.page_sharing = sharingFromJson(s.at("page_sharing"));
    r.sim.line_sharing = sharingFromJson(s.at("line_sharing"));
    r.sim.shared_page_footprint = u64At(s, "shared_page_footprint");
    r.sim.shared_line_footprint = u64At(s, "shared_line_footprint");
    r.sim.total_page_footprint = u64At(s, "total_page_footprint");
    r.sim.watchdog_tripped = r.status == RunStatus::Watchdog;
    if (v.has("stat_tree")) {
        r.sim.stat_tree = statTreeFromJson(std::move(v).at("stat_tree"));
        // The summary block does not carry the event count.
        if (const stats::FlatStat *f =
                stats::lookup(r.sim.stat_tree, "sim.events"))
            r.sim.events = f->u64;
    }
    return r;
}

json::Value
sweepToJson(const SweepMeta &meta,
            const std::vector<RunResult> &results)
{
    json::Value cfg{json::Members{}};
    cfg.set("memory_scale", meta.memory_scale);
    cfg.set("duration", meta.duration);
    if (!meta.overrides.empty()) {
        json::Value ov{json::Array{}};
        for (const auto &o : meta.overrides)
            ov.push(o);
        cfg.set("overrides", std::move(ov));
    }

    json::Value runs{json::Array{}};
    for (const auto &r : results)
        runs.push(resultToJson(r));

    json::Value doc{json::Members{}};
    doc.set("schema", kResultsSchema);
    doc.set("generator", "carve-sweep");
    doc.set("git", meta.git_version.empty() ? gitDescribe()
                                            : meta.git_version);
    doc.set("config", std::move(cfg));
    if (!meta.harness.isNull())
        doc.set("harness", meta.harness);
    doc.set("runs", std::move(runs));
    return doc;
}

void
writeResultsFile(const std::string &path, const json::Value &doc)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    os << doc.dump();
    if (!os.good())
        fatal("write to '%s' failed", path.c_str());
}

json::Value
readResultsFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open results file '%s'", path.c_str());
    std::ostringstream ss;
    ss << is.rdbuf();
    json::Value doc = json::parse(ss.str(), path);
    // v1 files (no stat trees) remain readable; comparison simply
    // has no per-stat annotations for them. A missing or non-string
    // schema is a mismatch like any other.
    const json::Value &schema = doc.at("schema");
    if (!schema.isString() || (schema.asString() != kResultsSchema &&
                               schema.asString() != kResultsSchemaV1)) {
        fatal("'%s' is not a %s file (member 'schema' differs)",
              path.c_str(), kResultsSchema);
    }
    return doc;
}

std::vector<RunResult>
resultsFromJson(json::Value doc)
{
    if (!doc.at("runs").isArray())
        fatal("results: document has no 'runs' array");
    json::Array runs = std::move(doc).at("runs").asArray();
    std::vector<RunResult> out;
    out.reserve(runs.size());
    for (auto &r : runs)
        out.push_back(resultFromJson(std::move(r)));
    return out;
}

CompareReport
compareResults(const std::vector<RunResult> &baseline,
               const std::vector<RunResult> &candidate,
               double tolerance)
{
    std::unordered_map<std::string, const RunResult *> cand;
    for (const auto &r : candidate)
        cand.emplace(r.key(), &r);

    CompareReport rep;
    const auto add = [&](MetricDelta d) {
        rep.deltas.push_back(std::move(d));
    };

    for (const auto &base : baseline) {
        const auto it = cand.find(base.key());
        if (it == cand.end()) {
            MetricDelta d;
            d.key = base.key();
            d.metric = "missing";
            d.regression = true;
            add(std::move(d));
            continue;
        }
        const RunResult &c = *it->second;
        ++rep.compared_runs;

        if (c.status != base.status) {
            MetricDelta d;
            d.key = base.key();
            d.metric = "status";
            // Any change away from a clean baseline gates; a
            // previously-broken run turning Ok is an improvement.
            d.regression = base.status == RunStatus::Ok;
            add(std::move(d));
            if (base.status != RunStatus::Ok || !c.ok())
                continue;
        }
        if (base.status != RunStatus::Ok)
            continue;  // no trustworthy numbers to compare

        // (metric, baseline, candidate, higher_is_worse)
        const struct
        {
            const char *name;
            double b, c;
            bool higher_is_worse;
        } metrics[] = {
            {"cycles", static_cast<double>(base.sim.cycles),
             static_cast<double>(c.sim.cycles), true},
            {"ipc", base.sim.ipc(), c.sim.ipc(), false},
        };
        for (const auto &m : metrics) {
            if (m.b == 0.0)
                continue;
            const double rel = (m.c - m.b) / m.b;
            const double worse = m.higher_is_worse ? rel : -rel;
            if (std::abs(rel) <= tolerance)
                continue;
            MetricDelta d;
            d.key = base.key();
            d.metric = m.name;
            d.baseline = m.b;
            d.candidate = m.c;
            d.relative = worse;
            d.regression = worse > 0.0;
            add(std::move(d));
        }

        // Name the individual stats that moved (v2 files only).
        // Informational: the gate stays on cycles/ipc/status, but a
        // failure now says *which* counters shifted underneath.
        if (base.sim.stat_tree.empty() || c.sim.stat_tree.empty())
            continue;
        std::vector<MetricDelta> stat_deltas;
        const auto &bt = base.sim.stat_tree;
        const auto &ct = c.sim.stat_tree;
        std::size_t bi = 0, ci = 0;
        // Both trees are sorted by name; merge-walk them. A stat
        // present on only one side is only notable when nonzero.
        while (bi < bt.size() || ci < ct.size()) {
            double bv = 0.0, cv = 0.0;
            std::string_view name;
            if (ci >= ct.size() ||
                (bi < bt.size() && bt[bi].name < ct[ci].name)) {
                name = bt[bi].name;
                bv = bt[bi].asDouble();
                ++bi;
            } else if (bi >= bt.size() ||
                       ct[ci].name < bt[bi].name) {
                name = ct[ci].name;
                cv = ct[ci].asDouble();
                ++ci;
            } else {
                name = bt[bi].name;
                bv = bt[bi].asDouble();
                cv = ct[ci].asDouble();
                ++bi;
                ++ci;
            }
            if (bv == 0.0) {
                if (cv == 0.0)
                    continue;
                // Appeared from zero: report with relative pinned to
                // the candidate sign so sorting by magnitude works.
                MetricDelta d;
                d.key = base.key();
                d.metric = "stat:" + std::string(name);
                d.candidate = cv;
                d.relative = cv > 0.0 ? 1.0 : -1.0;
                d.informational = true;
                stat_deltas.push_back(std::move(d));
                continue;
            }
            const double rel = (cv - bv) / bv;
            if (std::abs(rel) <= tolerance)
                continue;
            MetricDelta d;
            d.key = base.key();
            d.metric = "stat:" + std::string(name);
            d.baseline = bv;
            d.candidate = cv;
            d.relative = rel;
            d.informational = true;
            stat_deltas.push_back(std::move(d));
        }
        // Keep only the largest movements per run; count the rest so
        // the report can say they exist.
        constexpr std::size_t kMaxStatDeltasPerRun = 8;
        std::stable_sort(
            stat_deltas.begin(), stat_deltas.end(),
            [](const MetricDelta &a, const MetricDelta &b) {
                return std::abs(a.relative) > std::abs(b.relative);
            });
        if (stat_deltas.size() > kMaxStatDeltasPerRun) {
            rep.suppressed_stats += static_cast<unsigned>(
                stat_deltas.size() - kMaxStatDeltasPerRun);
            stat_deltas.resize(kMaxStatDeltasPerRun);
        }
        for (auto &d : stat_deltas)
            add(std::move(d));
    }

    std::stable_sort(rep.deltas.begin(), rep.deltas.end(),
                     [](const MetricDelta &a, const MetricDelta &b) {
                         return a.regression > b.regression;
                     });
    return rep;
}

std::string
formatCompareReport(const CompareReport &report, double tolerance)
{
    const auto pct = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", v * 100.0);
        return std::string(buf);
    };
    std::ostringstream os;
    unsigned regressions = 0;
    for (const auto &d : report.deltas)
        regressions += d.regression;

    os << "baseline comparison: " << report.compared_runs
       << " runs compared, tolerance " << pct(tolerance) << "%\n";
    for (const auto &d : report.deltas) {
        if (d.informational) {
            // Stat-tree movement: no worse/better judgement, just
            // name the counter and show baseline vs observed.
            os << "    stat " << d.key << " "
               << d.metric.substr(5) << ": "
               << json::formatDouble(d.baseline) << " -> "
               << json::formatDouble(d.candidate) << " ("
               << (d.relative > 0.0 ? "+" : "-")
               << pct(std::abs(d.relative)) << "%)\n";
            continue;
        }
        os << (d.regression ? "  REGRESSION " : "  improvement ")
           << d.key << " " << d.metric;
        if (d.metric == "missing") {
            os << " (run absent from candidate)\n";
            continue;
        }
        if (d.metric == "status") {
            os << " (status changed)\n";
            continue;
        }
        os << ": " << json::formatDouble(d.baseline) << " -> "
           << json::formatDouble(d.candidate) << " (";
        if (d.relative > 0.0)
            os << "+" << pct(d.relative) << "% worse)\n";
        else
            os << pct(-d.relative) << "% better)\n";
    }
    if (report.suppressed_stats > 0) {
        os << "    (" << report.suppressed_stats
           << " smaller stat movement(s) not shown)\n";
    }
    os << (regressions
               ? "FAIL: " + std::to_string(regressions) +
                     " regression(s) beyond tolerance\n"
               : std::string("PASS: no regressions beyond "
                             "tolerance\n"));
    return os.str();
}

} // namespace harness
} // namespace carve
