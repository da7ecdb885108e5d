#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json at the root).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the runner and the scheduler_service
daemon from the checkout's sources into .bench_build/ (incremental after the
first run), runs one workload, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics; a traced run also writes its spans to
.bench_build/trace-<workload>-<seed>.json and checks them with
tools/validate_trace.py. Build output and diagnostics go to stderr.

Exit status: 0 when every output checked correct; non-zero (and no result
line when the run could not be made at all) otherwise. `--workload all` runs
every workload in turn and prints one result line each, tagged with its
"workload".
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the runner; raises on failure."""
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def stop_group(pgid):
    """Kills what is left of the runner's process group (a daemon child
    orphaned by a crash or a timeout) and waits until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(args, name, bench, workloads):
    """Runs one workload; returns its result object, or None when the run
    could not be made."""
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--rate", str(workloads[name].get("rate_per_s", 0))]
    trace_file = os.path.join(BUILD, f"trace-{name}-{args.seed}.json")
    if args.trace:
        cmd += ["--trace-out", trace_file]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print(f"run.py: {name} timed out", file=sys.stderr)
        return None
    stop_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: {name} failed (exit {proc.returncode})",
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    failed = result["failed"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"run.py: metric {m['name']} missing or in the wrong unit",
                  file=sys.stderr)
            failed += 1
            continue
        metrics[m["name"]] = got
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "validate_trace.py"),
             trace_file], stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            failed += 1
    return {"correct": failed == 0 and proc.returncode == 0,
            "attempted": result["attempted"], "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = {w["name"]: w for w in json.load(f)["workloads"]}
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        sys.exit(f"run.py: unknown workload {args.workload!r}")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    ok = True
    for name in names:
        out = run_workload(args, name, bench, workloads)
        if out is None:
            sys.exit(1)
        if len(names) > 1:
            out = {"workload": name, **out}
        print(json.dumps(out))
        ok = ok and out["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
