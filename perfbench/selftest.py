#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. BENCHMARK.json and run.py name the same workloads, and no metric is
   declared twice.
2. Every workload, untraced and traced, prints exactly the declared
   metrics with their units (run.py refuses any other set, and an
   end-to-end metric that reads 0) and passes its output checks.
3. Every trace a traced run writes is balanced: each span lies inside
   its parent, and the spans of one parent do not overlap.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"
failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def declared_table():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json and run.py name different workloads")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "a metric is declared twice")


def trace_balanced(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    by_index = {e["args"]["span"]: e for e in events}
    ends = {}
    for e in events:
        a = e["args"]
        check(e["dur"] >= 0, "%s: negative span %s" % (path, e["name"]))
        p = a["parent"]
        if p < 0:
            continue
        parent = by_index.get(p)
        check(parent is not None, "%s: %s has no parent span" % (path, e["name"]))
        if parent is None:
            continue
        slack = 1.0  # microseconds of clock rounding
        check(parent["ts"] - slack <= e["ts"]
              and e["ts"] + e["dur"] <= parent["ts"] + parent["dur"] + slack,
              "%s: %s escapes its parent %s" % (path, e["name"], parent["name"]))
        prev = ends.get(p)
        check(prev is None or prev <= e["ts"] + slack,
              "%s: children of %s overlap" % (path, parent["name"]))
        ends[p] = e["ts"] + e["dur"]
        check(a["id"] != "", "%s: %s has no id" % (path, e["name"]))


def workloads():
    out = os.path.join(run.build_dir(), "perfbench-out")
    for wl in run.WORKLOADS:
        for trace in ("0", "1"):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl,
                 "--seed", "7", "--seconds", SECONDS, "--trace", trace],
                capture_output=True, text=True)
            ok = r.returncode == 0
            check(ok, "%s --trace %s exited %d:\n%s"
                  % (wl, trace, r.returncode, r.stderr[-3000:]))
            if not ok:
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  "%s --trace %s failed its output checks" % (wl, trace))
            if trace == "1":
                trace_balanced(os.path.join(out, wl + "-trace.json"))
            print("ok: %s --trace %s" % (wl, trace))


def without_sources():
    scratch = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    bare = tempfile.mkdtemp(dir=scratch)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_build",
         "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    check(r.returncode != 0, "a checkout without sources exited 0")
    check(r.stdout.strip() == "", "a checkout without sources printed a result")
    shutil.rmtree(scratch, ignore_errors=True)
    print("ok: no result without sources")


def main():
    declared_table()
    workloads()
    without_sources()
    if failures:
        print("%d self-test failure(s)" % len(failures))
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
