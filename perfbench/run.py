#!/usr/bin/env python3
"""Builds the whole-stack benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fault_space|closed_loop|fleet \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a source tree. The first run configures and
builds perfbench/ (and through it src/) into .bench_build/; later runs
rebuild incrementally. The traced run (--trace 1) writes its spans to
.bench_out/trace-<workload>-<seed>.json as a Chrome trace-event file.
An untraced run (--trace 0) splits its window over PROCESSES fresh
processes and reports each metric's median across them, so that one
process's luck on a shared host does not set the run's figures; every
process must print the same sim_digest. The last line on stdout is the JSON result; the
exit code is nonzero when the build fails or a correctness check fails.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
PROCESSES = 4


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree beside perfbench/; run from the repo root", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}", 3)
    return os.path.join(BUILD, "perfbench")


def git_commit():
    # Only ask git about this tree itself, never a repository above it.
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fault_space", "closed_loop", "fleet"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: every metric, seconds not minutes")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number >= 0", 2)

    binary = build()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--git-commit", git_commit()]
    if args.tiny:
        base.append("--tiny")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        base += ["--trace-out", os.path.join(
            OUT, f"trace-{args.workload}-{args.seed}.json")]
    processes = 1 if args.trace else PROCESSES
    window = args.seconds / processes
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, digests = [], []
    for _ in range(processes):
        out, rc = run_one(base + ["--seconds", repr(window)], deadline)
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            results.append(json.loads(lines[-1]))
        except ValueError:
            fail(f"no result line (exit code {rc})", rc or 5)
        m = re.search(r"^sim_digest \S+ (\S+)$", out, re.M)
        digests.append(m.group(1) if m else None)
    print(json.dumps(combine(results, digests)))
    sys.exit(0 if all(r["correct"] for r in results)
             and len(set(digests)) == 1 else 1)


def run_one(cmd, deadline):
    """Runs one benchmark process; returns its stdout and exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    return out, proc.returncode


def combine(results, digests):
    """One result from the processes of a run: ops summed, each metric the
    median across processes, correct only if every process was and all
    printed the same sim_digest."""
    if len(results) == 1:
        return results[0]
    same = len(set(digests)) == 1 and digests[0] is not None
    if not same:
        print(f"FAIL: sim_digest differs across processes: {digests}")
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        value = (None if any(v is None for v in values)
                 else statistics.median(values))
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": same and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    main()
