#!/usr/bin/env python3
"""Builds and runs the mcsafe corpus benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold-seq --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the
checker from ../src, mcsafe-serve and the mcsafe-perfbench runner) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. The runner's last stdout line is the result JSON;
build output and diagnostics go to stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold-seq", "batch-parallel", "serve-recheck")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mcsafe sources next to perfbench/; "
                 "run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out


def run_once(out, workload, seed, seconds, trace, extra=()):
    """Runs mcsafe-perfbench once; returns (exit code, stdout)."""
    work = os.path.join(out, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    cmd = [os.path.join(out, "mcsafe-perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.relpath(work, ROOT),
           "--serve-bin", os.path.join(out, "mcsafe-serve"),
           "--trace-out", os.path.join(
               out, "traces", "%s-seed%s.json" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the runner; a daemon it started
        # dies with it (PR_SET_PDEATHSIG).
        sys.exit("perfbench: mcsafe-perfbench exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def declared_metrics(trace):
    """BENCHMARK.json's metrics for this kind of run (name -> unit) and its
    workload names; ({}, []) where the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}, []
    with open(path) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return ({m["name"]: m["unit"] for m in spec[kind]},
            [w["name"] for w in spec["workloads"]])


def conform(stdout, workload, trace):
    """Gives the result line exactly the metrics BENCHMARK.json declares
    for a listed workload, with their units; exits if one is missing.
    Results of unlisted workloads keep their extra metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        return stdout
    result = json.loads(lines[-1])
    units, listed = declared_metrics(trace)
    metrics = result["metrics"]
    if workload in listed:
        missing = [name for name in units if name not in metrics]
        if missing:
            sys.exit("perfbench: not measured: " + ", ".join(missing))
        metrics = {name: metrics[name] for name in units}
    for name, m in metrics.items():
        m["unit"] = units.get(name, m["unit"])
    result["metrics"] = metrics
    return "\n".join(lines[:-1] + [json.dumps(result)]) + "\n"


def self_test(out):
    """A planted wrong expectation must make every workload's run fail."""
    ok = True
    for workload in ("cold-seq", "batch-parallel"):
        code, stdout = run_once(out, workload, 7, 1, 0,
                              ["--plant-wrong-expectation"])
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = code != 0 and result.get("correct") is False
        print("self-test %s: planted wrong expectation %s"
              % (workload, "caught" if caught else "NOT CAUGHT"))
        ok = ok and caught
        code, stdout = run_once(out, workload, 7, 1, 0)
        result = json.loads(stdout.strip().splitlines()[-1])
        clean = code == 0 and result["correct"] is True
        print("self-test %s: clean run %s"
              % (workload, "passes" if clean else "FAILS"))
        ok = ok and clean
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the oracle fails a planted wrong "
                         "expectation")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    out = build()
    if args.self_test:
        return self_test(out)
    code, stdout = run_once(out, args.workload, args.seed, args.seconds,
                          args.trace)
    sys.stdout.write(conform(stdout, args.workload, args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
