#!/usr/bin/env python3
"""Builds the simulator and runs one workload of its benchmark.

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and compiles
bench_suite/ (the simulator library plus the suite) into .bench_build, or
into $CARGO_TARGET_DIR when that is set. The suite then runs in a child
process; this script reads the child's peak RSS from wait4, checks the seed-1
goldens in bench_suite/goldens.json, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones, and writes the suite's spans as Chrome trace JSON to
.bench_out/. Maintainer modes (not used by a benchmark run):

    run.py --set OUT.json [--seeds 1,2,3] [--seconds S] [--trace 0|1]
        runs every workload once per seed and writes the results as one set
        for bench_suite/compare.py;
    run.py --write-goldens
        re-pins bench_suite/goldens.json from seed-1 runs.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bringup", "steady-lookups", "churn-lookups-wan", "paper-sweep")
GOLDEN_SEED = 1
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and compiles the suite; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ beside bench_suite/: run from the root of a checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "bench_suite",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "bench_suite")


def run_child(cmd):
    """Runs the suite; returns (exit code, stdout, peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return proc.returncode, out, usage.ru_maxrss / 1024.0  # KiB on Linux


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(exe, workload, seed, seconds, trace, check_goldens=True):
    """One suite run; returns its result with peak RSS and goldens checked."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        name = "trace-%s-seed%d.json" % (workload, seed)
        cmd += ["--trace-out", os.path.join(out_dir, name)]
    code, out, rss_mb = run_child(cmd)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail("bench_suite exited with %d and no result" % code)
    res = json.loads(lines[-1])
    res["metrics"]["peak_rss_mb"] = rss_mb
    if check_goldens and seed == GOLDEN_SEED:
        goldens = load_json(os.path.join(HERE, "goldens.json"))
        golden = goldens.get(workload, {})
        for key in sorted(set(golden) | set(res["exact"])):
            want, got = golden.get(key), res["exact"].get(key)
            if want != got:
                res["correct"] = False
                res["failures"].append(
                    "golden %s: want %s, got %s" % (key, want, got))
    return res


def report(res, spec, trace):
    """Prints the metrics by name and returns the benchmark's result line."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in res["metrics"]:
            fail("bench_suite did not report " + m["name"])
        value = res["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %16.6g %s" % (m["name"], value, m["unit"]))
    for f in res["failures"]:
        print("FAILED CHECK: " + f)
    print("correct=%s attempted=%d failed=%d" %
          (res["correct"], res["attempted"], res["failed"]))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set", metavar="OUT")
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    exe = build()

    if args.write_goldens:
        goldens = {}
        for w in WORKLOADS:
            res = run_workload(exe, w, GOLDEN_SEED, 0, 0, check_goldens=False)
            if not res["correct"]:
                fail("%s failed its checks: %s" % (w, res["failures"]))
            goldens[w] = res["exact"]
        with open(os.path.join(HERE, "goldens.json"), "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")
        return

    if args.set:
        runs = []
        for seed in (int(s) for s in args.seeds.split(",")):
            for w in WORKLOADS:
                res = run_workload(exe, w, seed, args.seconds, args.trace)
                res["result"] = report(res, spec, args.trace)
                runs.append(res)
        with open(args.set, "w") as f:
            json.dump({"machine": machine(), "seconds": args.seconds,
                       "trace": args.trace, "runs": runs}, f, indent=1)
            f.write("\n")
        return

    if not args.workload:
        fail("--workload is required")
    res = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report(res, spec, args.trace)))


if __name__ == "__main__":
    main()
