#!/usr/bin/env python3
"""Quick self-check of the benchmark, run from the root of the source tree:

    python3 repobench/test/selfcheck.py [--seconds 3]     # about a minute

- BENCHMARK.json is well formed (names, units, bounds, counts).
- Each workload, run briefly with --trace 0 and --trace 1, ends its stdout
  with one JSON object whose metrics are exactly the end-to-end (resp.
  per-layer) metrics named in BENCHMARK.json, each with its unit; the run
  is correct and no operation or cell failed; end-to-end values are
  finite and non-zero.
- A directory holding only BENCHMARK.json and the benchmark's files makes
  the command exit non-zero without printing a result.

Exits 1 on the first problem, printing it.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for n in names:
        if not NAME.match(n):
            fail(f"bad name {n!r}")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= len(spec["end_to_end"]) <= 16:
        fail("workload or end-to-end metric count out of range")
    if not 1 <= len(spec["per_layer"]) <= 128:
        fail("per-layer metric count out of range")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w['name']}: bad entry")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m['name']}: bad entry")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m['name']}: bad entry")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric {m['name']}: bad unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds out of range")


def run(spec, cwd, workload, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(spec, workload, seconds, trace):
    out = run(spec, ROOT, workload, seconds, trace)
    if out.returncode != 0:
        fail(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        failures = [l for l in out.stdout.splitlines() if "FAIL" in l]
        fail(f"{workload} trace={trace}: correct={res['correct']} failed={res['failed']}\n"
             + "\n".join(failures))
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace={trace}: metric names differ: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not math.isfinite(v["value"]):
            fail(f"{workload}: {m['name']} = {v}")
        if not trace and v["value"] == 0:
            fail(f"{workload}: end-to-end metric {m['name']} is 0")
    print(f"selfcheck: {workload} trace={trace}: ok ({res['attempted']} operations)")


def check_bare_directory(spec):
    with tempfile.TemporaryDirectory() as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(spec, d, spec["workloads"][0]["name"], 1, 0)
        if out.returncode == 0 or out.stdout.strip():
            fail("a bare benchmark directory must exit non-zero without a result")
    print("selfcheck: bare directory: ok")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], args.seconds, trace)
    check_bare_directory(spec)
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
