#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload flow_build|atpg_pairs|serve_replay \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-fixtures

Run from the root of a checkout.  Builds perfbench/bench.exe and
bin/satpg.exe from source with dune (build directory $CARGO_TARGET_DIR,
default .bench_build), runs the workload, checks that it printed exactly
the metrics BENCHMARK.json declares (every end-to-end metric, none of
them 0, with --trace 0; every per-layer metric with --trace 1), and
prints the result line last.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the run could not be made (nothing is printed on stdout then).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ["flow_build", "atpg_pairs", "serve_replay"]

FIXTURES = os.path.join("perfbench", "fixtures")
RUN_LIMIT_S = 175.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def clean_env():
    """The environment without any SATPG_* setting: every budget, mode and
    store the engines read from it takes its default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATPG_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed)
    bd = build_dir()
    cmd = ["dune", "build", "--root", ".", "--build-dir", bd,
           "--profile", "release", "./perfbench/bench.exe", "./bin/satpg.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=clean_env(), timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode)
    exe = os.path.join(bd, "default", "perfbench", "bench.exe")
    satpg = os.path.join(bd, "default", "bin", "satpg.exe")
    return exe, satpg


def declared():
    """(name -> unit) of BENCHMARK.json's end-to-end and per-layer lists."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def validate(result, trace):
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "result keys are %r" % sorted(result)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is %r" % result["attempted"]
    units = declared()[trace]
    got = result["metrics"]
    if sorted(got) != sorted(units):
        return "metrics %r, expected %r" % (sorted(got), sorted(units))
    for name, m in got.items():
        if m.get("unit") != units[name]:
            return "%s has unit %r, BENCHMARK.json says %r" % (
                name, m.get("unit"), units[name])
        if not isinstance(m.get("value"), (int, float)):
            return "%s has no numeric value" % name
        if trace == 0 and m["value"] == 0:
            return "end-to-end metric %s reads 0" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--regen-fixtures", action="store_true",
                    help="rewrite the atpg_pairs fixture files from Core.Flow")
    args = ap.parse_args()
    if not args.regen_fixtures and args.workload is None:
        ap.error("--workload is required")
    t0 = time.time()
    exe, satpg = build()
    if args.regen_fixtures:
        sys.exit(subprocess.run([exe, "--regen-fixtures", FIXTURES],
                                env=clean_env()).returncode)
    out = os.path.join(build_dir(), "perfbench-out")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--fixtures", FIXTURES, "--satpg", satpg]
    # the first run in a checkout pays for the build; later runs must end
    # within the per-run limit
    limit = max(RUN_LIMIT_S - (time.time() - t0), 60.0)
    # own process group, so a timeout also stops the daemon it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=clean_env(), text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %.0f s" % limit)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("workload failed (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    problem = validate(result, args.trace)
    if problem:
        fail("bad result: " + problem)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
