#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with one short run per workload and mode:
  - every metric named in BENCHMARK.json is printed, as text and in the
    JSON line, with the unit BENCHMARK.json gives it, and no other;
  - every run is correct with no failures (fail_frac 0), on seed 1 and
    on the held-out seed 2;
  - traced and untraced compiles agree (the traced run fails otherwise);
  - single-threaded traced runs attribute >= 95% of their wall time to
    layers, and compile_ramp at seed 1 repeats fig16's router counts;
  - without the library sources next to it, run.py fails without a
    result line.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIG16_COUNTS = {"routing.calls": 257, "routing.iterations": 1727,
                "routing.failed_calls": 13}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_run(bench, workload, seed, trace):
    label = f"{workload} seed={seed} trace={trace}"
    proc = run(ROOT, workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        check(False, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: correct, fail_frac 0")
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{label}: JSON names and units match")
    text = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            text[parts[1]] = parts[3]
    check(text == expected, f"{label}: text names and units match")
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for seed in (1, 2):
            check_run(bench, name, seed, 0)
        m = check_run(bench, name, 1, 1)
        if m is None:
            continue
        if name != "parallel_ramp":
            cov = m["trace.covered_pct"]["value"]
            check(cov >= 95.0, f"{name}: layers cover {cov:.1f}% >= 95%")
        if name == "compile_ramp":
            for k, v in FIG16_COUNTS.items():
                check(m[k]["value"] == v, f"{name}: {k} == {v}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    proc = run(bare, bench["workloads"][0]["name"], 1, 0)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
