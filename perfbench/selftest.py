#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks, at smoke size:

  - every workload, untraced and traced, completes with a passing oracle
    and prints every end-to-end metric of BENCHMARK.json with its unit and
    sample count; every per-layer metric is measured by some workload;
  - a dist-fig7 launch with a corrupted wire (DHPF_NET_FAULT=corrupt) and a
    tampered oracle in each workload both show up as failed operations,
    not as a crash or a clean number;
  - in a directory that holds only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^# metric (\S+)\s+(\S+) (\S+)\s+n=(\d+)$")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, *extra, trace=0, cwd=ROOT, env=None):
    """Runs one smoke-size benchmark run; returns (rc, result, reported)."""
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", str(trace), "--smoke"] + list(extra)
    r = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    reported = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            reported[m.group(1)] = (m.group(3), int(m.group(4)))
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
    return r.returncode, result, reported


def main():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] +
             SPEC["per_layer"]}
    layer_seen = set()
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, res, reported = run(w, trace=trace)
            tag = "%s trace=%d" % (w, trace)
            check(rc == 0 and res is not None, tag + ": completes")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the contract keys")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, tag + ": oracle passes")
            want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            check(set(res["metrics"]) == {m["name"] for m in want},
                  tag + ": result carries every metric of its class")
            for name, (unit, n) in reported.items():
                if name in units:
                    check(unit == units[name] and n >= 1,
                          "%s: %s reported in %s with n=%d" % (tag, name,
                                                               unit, n))
            if trace:
                layer_seen |= set(reported)
            else:
                for m in SPEC["end_to_end"]:
                    check(m["name"] in reported and
                          res["metrics"][m["name"]]["value"] > 0,
                          "%s: %s measured and non-zero" % (tag, m["name"]))
    missing = [m["name"] for m in SPEC["per_layer"]
               if m["name"] not in layer_seen]
    check(not missing, "every per-layer metric is measured by some "
          "workload" + (": missing " + ", ".join(missing) if missing else ""))

    rc, res, _ = run("dist-fig7", "--inject-fault", "corrupt=1,seed=3")
    check(rc == 0 and res is not None and res["failed"] >= 1 and
          not res["correct"], "dist-fig7: a corrupted launch is a failed "
          "operation")
    for w in WORKLOADS:
        rc, res, _ = run(w, "--tamper-oracle")
        check(rc == 0 and res is not None and res["failed"] >= 1 and
              not res["correct"], w + ": a tampered oracle fails the run")

    bare = os.path.join(ROOT, ".bench_runs", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=170)
    check(r.returncode != 0 and '"correct"' not in r.stdout,
          "without the repository sources the benchmark fails without a "
          "result")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.rmdir(os.path.join(ROOT, ".bench_runs"))
    except OSError:
        pass

    print("%d check(s) failed" % len(failures) if failures else
          "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
