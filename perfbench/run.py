#!/usr/bin/env python3
"""The repository benchmark: one command for all three workloads.

    python3 perfbench/run.py --workload <dist-fig7|compile-table1|daemon-mix>
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the libraries and tools from
source (perfbench/CMakeLists.txt, into $CARGO_TARGET_DIR or .bench_build),
runs the `perfbench` program in a private run directory, and prints a
report: the run's stamps, every metric with its unit and sample count, then
as the last line one JSON object with exactly the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics (0 where the
workload does not exercise that layer).

Each run gets its own TMPDIR, kernel cache, HOME and daemon socket under
.bench_runs/, all removed when the run ends, even when it fails. A run that
leaves anything behind in its TMPDIR (a rank mesh directory, a temp .spmd)
or a half-written kernel in its cache counts as failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
# Inherited settings that would change what the program does.
SCRUBBED_ENV = ("DHPF_TRACE", "DHPF_METRICS", "DHPF_SPMD_ENGINE",
                "DHPF_SPMD_THREADS", "DHPF_KERNEL_CACHE", "DHPF_CC",
                "DHPF_COLL", "DHPF_NET_FAULT", "DHPF_NET_TIMEOUT_MS",
                "DHPF_NET_CONNECT_MS", "DHPF_LAUNCH_TIMEOUT_MS",
                "DHPF_PSET_CACHE", "DHPF_RT_BIN")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds perfbench; returns its build directory."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    cfg = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
    if shutil.which("ninja"):
        cfg += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(cfg, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if r.returncode != 0:
        log(r.stdout[-8000:])
        return None
    return build_dir


def git_describe():
    try:
        r = subprocess.run(["git", "describe", "--tags", "--always",
                            "--dirty"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def leftovers(run_dir):
    """What the program left behind that it should have removed."""
    found = [os.path.join("tmp", name)
             for name in sorted(os.listdir(os.path.join(run_dir, "tmp")))]
    kc = os.path.join(run_dir, "kc")
    if os.path.isdir(kc):
        for name in sorted(os.listdir(kc)):
            if ".tmp" in name or ".err" in name:
                found.append(os.path.join("kc", name))
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("setup"):
            found.append(name)
    return found


def run_perfbench(exe, args, extra, run_dir):
    """Runs perfbench in its private directory; returns (rc, stdout)."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    home = os.path.join(run_dir, "home")
    env.update({"TMPDIR": "tmp", "DHPF_KERNEL_CACHE": "kc", "HOME": home,
                "XDG_CACHE_HOME": os.path.join(home, ".cache")})
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(os.path.dirname(exe), "dhpf", "tools")]
    cmd += extra
    proc = subprocess.Popen(cmd, cwd=run_dir, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return None, ""
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (perfbench/selftest.py); the benchmark never sets them.
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inject-fault", default="")
    ap.add_argument("--tamper-oracle", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = build()
    if build_dir is None:
        log("perfbench: build failed")
        return 1
    exe = os.path.join(build_dir, "perfbench")

    runs = os.path.join(ROOT, ".bench_runs")
    run_dir = os.path.join(runs, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("tmp", "home"):
        os.makedirs(os.path.join(run_dir, sub))
    extra = []
    if args.smoke:
        extra += ["--smoke", "--setup-samples", "1"]
    if args.inject_fault:
        extra += ["--inject-fault", args.inject_fault]
    if args.tamper_oracle:
        extra.append("--tamper-oracle")
    try:
        rc, out = run_perfbench(exe, args, extra, run_dir)
        left = leftovers(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass

    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    if rc != 0 or res is None:
        log("perfbench: the run did not complete (exit %s)" % rc)
        if res:
            for why in res.get("failures", []):
                log("  " + why)
        return 1

    failures = list(res["failures"])
    if left:
        failures.append("run left behind: " + ", ".join(left))
    attempted, failed = res["attempted"], res["failed"]
    correct = res["correct"] and not left
    if left and failed == 0:
        failed = 1
    stamps = dict(res["stamps"])
    stamps.update({"nproc": str(os.cpu_count()), "git_describe":
                   git_describe(), "seconds": str(args.seconds),
                   "trace": str(args.trace)})

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None and not args.trace:
            log("perfbench: end-to-end metric %s was not measured" % m["name"])
            return 1
        if got is None:
            got = {"value": 0.0, "unit": m["unit"], "n": 0}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if "fail_ratio" in metrics:
        metrics["fail_ratio"]["value"] = failed / max(attempted, 1)

    print("# stamps " + json.dumps(stamps, sort_keys=True))
    for name in sorted(res["metrics"]):
        m = res["metrics"][name]
        print("# metric %-34s %16.6f %-6s n=%d" % (name, m["value"],
                                                    m["unit"], m["n"]))
    print("# metric %-34s %16.6f %-6s n=%d" % (
        "fail_ratio", failed / max(attempted, 1), "ratio", attempted))
    for why in failures:
        print("# failure " + why.replace("\n", "\n#   "))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
