#!/usr/bin/env python3
"""The dfsim repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--bench-json PATH]
    python3 perfbench/run.py --selftest

Builds the benchmark package (perfbench/CMakeLists.txt, which builds the
dfsim library from the repository's own build file) into .bench_build/,
runs the measuring program, checks the simulated outputs, and prints
every metric by name with its unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. One record per (workload, run) is also
appended to a BENCH_sweep.json-shaped array (default
.bench_build/BENCH_perfbench.json) that tools/bench_store.py ingests.

Exit status: 0 = every check passed; 1 = a correctness check failed
(each failure is named on stderr); 2 = the build or the run failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper_grid_h3", "scale_h6_sharded", "apps_faults_h4"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# A run (after the build) must end within 180 s; leave room for reporting.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark package. Returns False
    when the repository sources are missing or the build fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("perfbench: no CMakeLists.txt at the repository root; the "
            "benchmark builds the program from source and cannot run here")
        return False
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_program(args, deadline):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: the run exceeded {timeout:.0f} s and was stopped")
        return None
    if proc.returncode != 0:
        log(f"perfbench: the measuring program exited {proc.returncode}")
        return None
    return json.loads(proc.stdout)


def end_to_end(doc, wl):
    """The end-to-end metrics of one workload, from its untraced rounds.
    Host times are medians over the rounds after the first, which warms
    caches and the allocator; simulated metrics are means over the grid's
    points (identical in every round)."""
    rounds = wl["rounds"][1:]
    stepping = [r["wall_s"] - r["setup_s"] for r in rounds]
    res = wl["results"]
    return {
        "wall_s": statistics.median([r["wall_s"] for r in rounds]),
        "setup_s": statistics.median([r["setup_s"] for r in rounds]),
        "cycles_per_s": statistics.median([r["cycles"] / s
                                for r, s in zip(rounds, stepping)]),
        "hops_per_s": statistics.median([r["hop_events"] / s
                              for r, s in zip(rounds, stepping)]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_accepted_load": statistics.fmean(
            r["accepted_load"] for r in res),
        "sim_latency_cycles": statistics.fmean(r["avg_latency"] for r in res),
        "sim_latency_p99_cycles": statistics.fmean(
            r["p99_latency"] for r in res),
    }


def report(doc, wl, values, spec_metrics, trace):
    units = {m["name"]: m["unit"] for m in spec_metrics}
    kind = "per-layer (traced)" if trace else "end-to-end"
    n = len(wl["rounds"])
    print(f"== {wl['workload']} seed={wl['seed']} points={wl['points']} "
          f"jobs={wl['jobs']} rounds={n} ({kind})")
    if not trace:
        print(f"   host times are medians over {n - 1} rounds "
              f"(round 0 warms up)")
    for m in spec_metrics:
        print(f"   {m['name']:<28} {values[m['name']]:>16.6g} {units[m['name']]}")
    failed = wl["failed_points"]
    print(f"   {'error_rate':<28} {failed / wl['points']:>16.6g} fraction "
          f"({failed} of {wl['points']} points failed a check)")
    host = doc["host"]
    print(f"   host: nproc={host['nproc']} loadavg={host['loadavg_start']}"
          f"->{host['loadavg_end']} calibration_s="
          f"{host['calibration_s_start']:.4f}/{host['calibration_s_end']:.4f}"
          f" invol_ctx_switches={host['invol_ctx_switches']}")


def trajectory_record(doc, wl, values, trace):
    rec = {"bench": f"perfbench.{wl['workload']}"
                    + (".traced" if trace else ""),
           "wall_s": (values["wall_s"] if not trace
                      else wl["rounds"][0]["wall_s"]),
           "jobs": wl["jobs"], "seed": wl["seed"],
           "rounds": len(wl["rounds"]), "host": doc["host"]}
    for k, v in values.items():
        if k != "wall_s":
            rec[k] = v
    return rec


def append_records(path, records):
    existing = []
    if os.path.exists(path):
        try:
            with open(path) as f:
                existing = json.load(f)
            if not isinstance(existing, list):
                existing = []
        except ValueError:
            existing = []
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(existing + records, f, indent=1)


def selftest():
    if not build():
        return 2
    rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 0 if rc == 0 and py.returncode == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bench-json",
                    default=os.path.join(ROOT, ".bench_build",
                                         "BENCH_perfbench.json"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")) or \
            not build():
        return 2
    spec = load_spec()
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in spec_metrics:
        assert NAME_RE.match(m["name"]), m["name"]

    doc = run_program(args, time.monotonic() + RUN_TIMEOUT_S)
    if doc is None:
        return 2
    failures = [f"{wl['workload']}: {f}"
                for wl in doc["workloads"] for f in wl["failures"]]
    for f in failures:
        log(f"perfbench: FAILED CHECK: {f}")
    attempted = failed = 0
    metrics = {}
    records = []
    for wl in doc["workloads"]:
        if len(wl["rounds"]) < (1 if args.trace else 3) or \
                (args.trace and not wl["per_layer"]):
            log(f"perfbench: {wl['workload']} did not finish its runs")
            return 1
        values = wl["per_layer"] if args.trace else end_to_end(doc, wl)
        missing = [m["name"] for m in spec_metrics if m["name"] not in values]
        if missing:
            log(f"perfbench: {wl['workload']} did not produce {missing}")
            return 2
        report(doc, wl, values, spec_metrics, args.trace)
        records.append(trajectory_record(doc, wl, values, args.trace))
        attempted += wl["points"]
        failed += wl["failed_points"]
        prefix = "" if len(doc["workloads"]) == 1 else wl["workload"] + "."
        for m in spec_metrics:
            metrics[prefix + m["name"]] = {"value": values[m["name"]],
                                           "unit": m["unit"]}
    append_records(args.bench_json, records)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
