/**
 * @file
 * carve-perfbench: runs one benchmark workload in this process and
 * writes its raw samples as JSON (perfbench/run.py computes the
 * metrics). Usage:
 *
 *   carve-perfbench --workload sweep|par|served --seed N
 *                    --seconds S --trace 0|1 --out raw.json
 *                    [--scratch DIR] [--trace-out spans.json]
 *   carve-perfbench --self-test
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/logging.hh"
#include "harness/results_io.hh"
#include "harness/sweep.hh"

namespace perfbench {

using namespace carve;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: carve-perfbench --workload sweep|par|served "
                 "--seed N --seconds S --trace 0|1 --out FILE "
                 "[--scratch DIR] [--trace-out FILE]\n"
                 "       carve-perfbench --self-test\n");
    return 2;
}

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

stats::FlatStat
stat(const char *name, std::uint64_t v)
{
    stats::FlatStat s;
    s.name = name;
    s.u64 = v;
    return s;
}

} // namespace

int
selfTest()
{
    failures = 0;
    const std::vector<stats::FlatStat> tree = {
        stat("gpu0.sm0.l1.hits", 3), stat("gpu0.sm1.l1.hits", 4),
        stat("gpu1.sm0.l1.probes", 10), stat("sim.events", 99)};
    const std::string d = statDigest(tree);
    check(d.size() == 16 &&
              d.find_first_not_of("0123456789abcdef") == std::string::npos,
          "digest is 16 lowercase hex digits");
    check(statDigest(tree) == d, "equal trees give equal digests");
    for (std::size_t i = 0; i < tree.size(); ++i) {
        std::vector<stats::FlatStat> changed = tree;
        ++changed[i].u64;
        if (statDigest(changed) == d) {
            check(false, "changing one stat changes the digest");
            break;
        }
        if (i + 1 == tree.size())
            check(true, "changing any one stat changes the digest");
    }
    {
        std::vector<stats::FlatStat> host = tree;
        stats::FlatStat wall;
        wall.name = "sim.wall_seconds";
        wall.integral = false;
        wall.dbl = 1.5;
        host.insert(host.begin() + 3, wall);
        host.push_back(stat("sim.peak_rss_bytes", 1 << 20));
        host.insert(host.begin(), stat("engine.barrier_wait_ns.sum", 7));
        check(statDigest(host) == d, "host stats do not enter the digest");
    }
    {
        LayerCounts c;
        c.add(tree);
        c.add(tree);
        const Value j = c.toJson();
        check(j.at("sums").at("l1.hits").asDouble() == 14.0 &&
                  j.at("sums").at("l1.probes").asDouble() == 20.0,
              "layer counts sum every numbered instance of a stat");
    }

    // A small real job: the benchmark's call sequence must reproduce
    // the harness's record byte for byte, and the parallel engine the
    // serial engine's digest.
    WorkloadParams w = suiteAt("Lulesh", 3);
    w.ctas = 32;
    harness::RunSpec spec = makeSpec(Preset::CarveHwc, w, 5, false, false);
    const SimJob job =
        makePresetJob(spec.preset, spec.base, spec.workload, spec.opts);
    SpanLog off(false);
    const JobRun a = runJob(job, off, 0, false);
    const JobRun b = runJob(job, off, 1, false);
    check(a.ok && b.ok && a.record == b.record && a.digest == b.digest,
          "a job repeats its record and digest");
    const harness::RunResult h = harness::executeRun(spec);
    check(h.ok() && harness::resultToJson(h).dump(0) == a.record,
          "runJob record equals harness::executeRun record");
    check(statDigest(h.sim.stat_tree) == a.digest,
          "digest of the harness record equals runJob's");
    if (std::thread::hardware_concurrency() >= 2) {
        SimJob par = job;
        par.options.engine = SimEngine::Parallel;
        par.options.sim_threads = 2;
        const JobRun p = runJob(par, off, 2, false);
        check(p.ok && p.digest == a.digest,
              "parallel engine digest equals serial digest");
    }
    std::vector<double> lat;
    check(reloadRecords({a.record}, {a.digest}, 0, 3, true, lat) &&
              lat.size() == 3,
          "reloaded records match their digest");
    check(!reloadRecords({a.record}, {"0000000000000000"}, 0, 1, true, lat),
          "a wrong digest is detected on reload");

    SpanLog on(true);
    {
        Timed outer(on, "outer");
        Timed inner(on, "inner", outer.id());
    }
    const auto self = on.selfSeconds();
    check(self.count("outer") && self.count("inner") &&
              self.at("outer") >= 0.0,
          "spans record self time");

    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    carve::setLogQuiet(true);

    Settings s;
    std::string workload;
    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            s.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            s.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            s.trace = v == "1";
        else if (a == "--out")
            out = v;
        else if (a == "--scratch")
            s.scratch = v;
        else if (a == "--trace-out")
            s.trace_out = v;
        else
            return usage();
    }
    if (out.empty() || s.seconds <= 0.0)
        return usage();

    SpanLog log(s.trace);
    Value raw;
    if (workload == "sweep")
        raw = runSweepWorkload(s, log);
    else if (workload == "par")
        raw = runParWorkload(s, log);
    else if (workload == "served")
        raw = runServedWorkload(s, log);
    else
        return usage();

    if (s.trace) {
        raw.set("replays", runLayerReplays(s.seed));
        if (workload != "served") {
            // The service layer is on no in-process workload's path; a
            // short served session gives its per-layer numbers.
            Settings session = s;
            session.seconds = kServiceSessionSeconds;
            raw.set("service_session", runServedWorkload(session, log));
        }
        if (!s.trace_out.empty()) {
            log.writeChrome(s.trace_out);
            raw.set("trace_file", s.trace_out);
        }
    }
    std::ofstream f(out);
    f << raw.dump(1) << "\n";
    if (!f) {
        std::fprintf(stderr, "carve-perfbench: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    return 0;
}
