#!/usr/bin/env python3
"""Smoke test of the whole-stack benchmark at tiny size.

    python3 perfbench/smoke_test.py

Run from the repo root. For every workload it runs the untraced run twice
and the traced run once (--tiny, 1 s windows) and checks that:
  * each run exits 0 and ends with the JSON result line, correct, 0 failed;
  * the untraced run emits every end-to-end metric of BENCHMARK.json and
    the traced run every per-layer metric, each with its declared unit;
  * the workload's own metric names are printed with their units;
  * sim_digest repeats across the three runs of one seed;
  * the traced run writes its spans as a Chrome trace-event file.
Exits nonzero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5

NATIVE = {
    "fault_space": [("armed_runs_per_s", "1/s"), ("armed_run_ms_p50", "ms"),
                    ("armed_run_ms_p95", "ms")],
    "closed_loop": [("sim_rounds_per_s", "1/s"), ("report_us_p50", "us")],
    "fleet": [("vehicles_per_s", "1/s")],
}


def check(ok, what):
    if not ok:
        print(f"smoke_test: FAIL: {what}")
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    check(p.returncode == 0,
          f"{workload} trace={trace} exited {p.returncode}:\n"
          f"{p.stdout[-2000:]}{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1, f"{workload}: result {result}")
    digest = re.search(rf"^sim_digest {workload} ([0-9a-f]{{16}})$",
                       p.stdout, re.M)
    check(digest is not None, f"{workload}: no sim_digest line")
    return p.stdout, result["metrics"], digest.group(1)


def expect_metrics(workload, got, declared):
    names = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(names),
          f"{workload}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(names) - set(got))}, "
          f"extra {sorted(set(got) - set(names))}")
    for name, m in got.items():
        check(m["unit"] == names[name], f"{workload}: {name} unit {m['unit']}")
        check(isinstance(m["value"], (int, float)),
              f"{workload}: {name} not measured")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        out0, e2e, d0 = run(name, 0)
        _, _, d1 = run(name, 0)
        out_t, layer, dt = run(name, 1)
        expect_metrics(name, e2e, bench["end_to_end"])
        expect_metrics(name, layer, bench["per_layer"])
        for metric, unit in NATIVE[name]:
            check(re.search(rf"^  {metric} +\S+ {re.escape(unit)}$", out0,
                            re.M) is not None,
                  f"{name}: {metric} not printed in {unit}")
        check(d0 == d1 == dt, f"{name}: sim_digest {d0} / {d1} / traced {dt}")
        trace_path = os.path.join(ROOT, ".bench_out",
                                  f"trace-{name}-{SEED}.json")
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        check(len(events) > 0, f"{name}: empty span file")
        check("ladder: tta" in out_t, f"{name}: no ladder sum line")
        print(f"smoke_test: {name} ok (sim_digest {d0}, {len(events)} spans)")
    print("smoke_test: all workloads ok")


if __name__ == "__main__":
    main()
