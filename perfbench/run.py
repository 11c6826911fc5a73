#!/usr/bin/env python3
"""carve-sim's benchmark: build carve-perfbench, run one workload, report.

    python3 perfbench/run.py --workload sweep|par|served --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; everything is built and written
under <checkout>/.bench_build. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "carve-perfbench")
RUNS_DIR = os.path.join(BUILD_ROOT, "runs")
WORKLOADS = ("sweep", "par", "served")
# The workload process's limit; the whole invocation must end within
# 180 s.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build carve-perfbench from this checkout's
    sources. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt next to perfbench/: not a checkout")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 8))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def run_workload(args):
    """Run the workload in its own process; returns the raw samples."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    scratch = os.path.join(".bench_build", "scratch")
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)
    tag = "%s-trace%d" % (args.workload, args.trace)
    raw_path = os.path.join(RUNS_DIR, tag + ".json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--scratch", scratch]
    if args.trace:
        cmd += ["--trace-out", os.path.join(RUNS_DIR,
                                            args.workload + "-spans.json")]
    if os.path.exists(raw_path):
        os.remove(raw_path)
    # Relative scratch paths keep the service's socket path short.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        return None
    if rc != 0 or not os.path.exists(raw_path):
        log("carve-perfbench failed with exit code %d" % rc)
        return None
    with open(raw_path) as f:
        return json.load(f)


def emit(raw, trace):
    """Print the report and, last, the result line."""
    host = raw.get("host", {})
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    if raw.get("fatal"):
        log(raw["fatal"])
        return False
    for rl in raw.get("run_lengths", [])[:20]:
        print("run length %-34s insts_per_warp=%d warp_insts=%d events=%d"
              % (rl["job"], rl["insts_per_warp"], rl["warp_insts"],
                 rl["events"]))
    for k, v in sorted(raw.get("checks", {}).items()):
        print("check %s: %s" % (k, v))
    attempted, failed, errors = report.outcome(raw)
    for e in errors:
        print("failed: " + e)

    correct = failed == 0 and all(raw.get("checks", {}).values())
    if trace:
        rep = report.per_layer(raw)
        print(report.tracing_overhead(raw))
        if raw.get("trace_file"):
            print("spans: " + raw["trace_file"])
    else:
        rep, has_p99 = report.end_to_end(raw)
        correct = correct and has_p99
    for line in rep.lines:
        print(line)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in rep.metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return True


def self_test():
    """carve-perfbench's self-test and the report's unit tests."""
    if not build():
        return 1
    rc = subprocess.run([BINARY, "--self-test"], cwd=ROOT,
                        stdout=sys.stderr).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover",
                            "-s", os.path.join(HERE, "tests")],
                           cwd=ROOT).returncode
    return 0 if rc == 0 and tests == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    if not build():
        log("build failed")
        return 2
    raw = run_workload(args)
    if raw is None or not emit(raw, args.trace):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
