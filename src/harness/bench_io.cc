#include "harness/bench_io.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace carve {
namespace harness {

namespace {

json::Value
microToJson(const MicroResult &m)
{
    json::Value o{json::Members{}};
    o.set("name", m.name);
    o.set("events", m.events);
    o.set("seconds", m.seconds);
    o.set("events_per_sec", m.events_per_sec);
    return o;
}

MicroResult
microFromJson(const json::Value &v)
{
    constexpr const char *what = "bench: micro entry";
    MicroResult m;
    m.name = json::requireString(v, "name", what);
    m.events = json::requireU64(v, "events", what);
    m.seconds = json::requireNumber(v, "seconds", what);
    m.events_per_sec = json::requireNumber(v, "events_per_sec", what);
    return m;
}

json::Value
cellToJson(const CellResult &c)
{
    json::Value o{json::Members{}};
    o.set("preset", c.preset);
    o.set("workload", c.workload);
    o.set("cycles", c.cycles);
    o.set("events", c.events);
    o.set("warp_insts", c.warp_insts);
    o.set("allocations", c.allocations);
    o.set("peak_rss_bytes", c.peak_rss_bytes);
    o.set("host_seconds", c.host_seconds);
    o.set("events_per_sec", c.events_per_sec);
    o.set("warp_insts_per_sec", c.warp_insts_per_sec);
    return o;
}

CellResult
cellFromJson(const json::Value &v)
{
    constexpr const char *what = "bench: cell";
    CellResult c;
    c.preset = json::requireString(v, "preset", what);
    c.workload = json::requireString(v, "workload", what);
    c.cycles = json::requireU64(v, "cycles", what);
    c.events = json::requireU64(v, "events", what);
    c.warp_insts = json::requireU64(v, "warp_insts", what);
    // Optional: bench files written before the memory columns existed
    // read back with zeros (a zero baseline never gates).
    if (v.has("allocations"))
        c.allocations = json::requireU64(v, "allocations", what);
    if (v.has("peak_rss_bytes"))
        c.peak_rss_bytes = json::requireU64(v, "peak_rss_bytes", what);
    c.host_seconds = json::requireNumber(v, "host_seconds", what);
    c.events_per_sec = json::requireNumber(v, "events_per_sec", what);
    c.warp_insts_per_sec =
        json::requireNumber(v, "warp_insts_per_sec", what);
    return c;
}

} // namespace

json::Value
benchToJson(const BenchReport &r)
{
    json::Value doc{json::Members{}};
    doc.set("schema", kBenchSchema);
    doc.set("date", r.date);
    doc.set("git_version", r.git_version);
    doc.set("engine", r.engine);
    doc.set("memory_scale", r.memory_scale);
    doc.set("duration", r.duration);

    json::Value micro{json::Array{}};
    for (const auto &m : r.micro)
        micro.push(microToJson(m));
    doc.set("micro", std::move(micro));

    json::Value cells{json::Array{}};
    for (const auto &c : r.cells)
        cells.push(cellToJson(c));
    doc.set("cells", std::move(cells));
    return doc;
}

BenchReport
benchFromJson(const json::Value &doc)
{
    constexpr const char *what = "bench: document";
    BenchReport r;
    r.date = json::requireString(doc, "date", what);
    r.git_version = json::requireString(doc, "git_version", what);
    r.engine = json::requireString(doc, "engine", what);
    r.memory_scale = static_cast<unsigned>(
        json::requireU64(doc, "memory_scale", what));
    r.duration = json::requireNumber(doc, "duration", what);
    for (const auto &m : json::requireArray(doc, "micro", what))
        r.micro.push_back(microFromJson(m));
    for (const auto &c : json::requireArray(doc, "cells", what))
        r.cells.push_back(cellFromJson(c));
    return r;
}

BenchReport
readBenchFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open bench file '%s'", path.c_str());
    std::ostringstream ss;
    ss << is.rdbuf();
    const json::Value doc = json::parse(ss.str(), path);
    const json::Value &schema = doc.at("schema");
    if (!schema.isString() || schema.asString() != kBenchSchema) {
        fatal("'%s' is not a %s file (member 'schema' differs)",
              path.c_str(), kBenchSchema);
    }
    return benchFromJson(doc);
}

std::vector<BenchDelta>
compareBench(const BenchReport &baseline,
             const BenchReport &candidate, double fail_factor)
{
    std::vector<BenchDelta> out;

    // Higher is better: gate on baseline/candidate.
    const auto rate = [&](const std::string &key, double base,
                          double cand) {
        BenchDelta d;
        d.key = key;
        d.metric = "events_per_sec";
        d.baseline = base;
        d.candidate = cand;
        d.factor = cand > 0.0 ? base / cand : 0.0;
        d.regression = cand > 0.0 && d.factor > fail_factor;
        out.push_back(std::move(d));
    };
    // Lower is better: gate on candidate/baseline.
    const auto lower = [&](const std::string &key,
                           const char *metric, double base,
                           double cand) {
        BenchDelta d;
        d.key = key;
        d.metric = metric;
        d.baseline = base;
        d.candidate = cand;
        d.factor = base > 0.0 ? cand / base : 0.0;
        d.regression = base > 0.0 && d.factor > fail_factor;
        out.push_back(std::move(d));
    };
    const auto missing = [&](const std::string &key,
                             const char *metric) {
        BenchDelta d;
        d.key = key;
        d.metric = metric;
        d.factor = 0.0;  // rendered as MISS, never gates
        out.push_back(std::move(d));
    };

    for (const auto &bm : baseline.micro) {
        const MicroResult *cm = nullptr;
        for (const auto &m : candidate.micro)
            if (m.name == bm.name)
                cm = &m;
        if (cm)
            rate(bm.name, bm.events_per_sec, cm->events_per_sec);
        else
            missing(bm.name, "missing micro");
    }
    for (const auto &bc : baseline.cells) {
        const CellResult *cc = nullptr;
        for (const auto &c : candidate.cells)
            if (c.key() == bc.key())
                cc = &c;
        if (cc) {
            lower(bc.key(), "host_seconds", bc.host_seconds,
                  cc->host_seconds);
            // Event and allocation counts do not depend on host
            // speed, and they gate at the same fail-factor: a return
            // to MSHR retry polling inflates events, and per-kernel
            // registry walks inflate allocations, long before wall
            // time notices.
            lower(bc.key(), "events",
                  static_cast<double>(bc.events),
                  static_cast<double>(cc->events));
            lower(bc.key(), "allocations",
                  static_cast<double>(bc.allocations),
                  static_cast<double>(cc->allocations));
        } else {
            missing(bc.key(), "missing cell");
        }
    }
    return out;
}

bool
benchHasRegression(const std::vector<BenchDelta> &deltas)
{
    for (const auto &d : deltas)
        if (d.regression)
            return true;
    return false;
}

std::string
formatBenchCompare(const std::vector<BenchDelta> &deltas,
                   double fail_factor)
{
    std::string out = "bench comparison (gate: >" +
        json::formatDouble(fail_factor) + "x worse):\n";
    char line[256];
    for (const auto &d : deltas) {
        if (d.factor == 0.0) {
            std::snprintf(line, sizeof line, "  MISS  %-28s %s\n",
                          d.key.c_str(), d.metric.c_str());
        } else {
            std::snprintf(
                line, sizeof line,
                "  %s %-28s %s %.3g -> %.3g (%.2fx %s)\n",
                d.regression ? "FAIL " : "ok   ", d.key.c_str(),
                d.metric.c_str(), d.baseline, d.candidate, d.factor,
                d.factor > 1.0 ? "worse" : "of baseline");
        }
        out += line;
    }
    if (deltas.empty())
        out += "  (nothing to compare)\n";
    return out;
}

} // namespace harness
} // namespace carve
