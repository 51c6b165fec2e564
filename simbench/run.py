#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 simbench/run.py --workload apps --seed 1 --seconds 30 --trace 0

Builds simbench/ (a Go module of its own that imports the simulator
through a replace directive) into .bench_build/simbench/, then runs one
benchmark process per measured run, so peak RSS is per run. With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it runs the workload twice, untraced then traced, and carries
the per-layer metrics plus the tracing overhead. Work per run is
fixed by the seed (--seconds is the nominal length of the timed phase and
does not change the work), so simulated counts and allocations compare
exactly between runs. Each run's full report is kept under
.bench_build/simbench/runs/. See simbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "simbench")
BIN = os.path.join(OUT, "simbench")
WORKLOADS = ("copy-sweep", "apps", "fleet-sweep")
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "alloc_mb", "allocs_m")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 165  # every benchmark process of one measured run, together


class BenchError(Exception):
    pass


def go_env():
    """The environment for go and the benchmark: every cache, temporary and
    configuration file inside the checkout (HOME too, for the go command's
    telemetry), no network, the local toolchain, and the Go runtime's
    defaults (GOMAXPROCS, GOGC) rather than the caller's."""
    env = dict(os.environ)
    for k in ("GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG", "GOFLAGS"):
        env.pop(k, None)
    tmp = os.path.join(OUT, "tmp")
    home = os.path.join(OUT, "home")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(home, exist_ok=True)
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        PPROF_TMPDIR=tmp,
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def build():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        raise BenchError("no go.mod at %s: the simulator's sources are not in this checkout" % ROOT)
    os.makedirs(OUT, exist_ok=True)
    try:
        proc = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("go build: %s" % e)
    if proc.returncode != 0:
        raise BenchError("go build failed with exit code %d" % proc.returncode)


def run_process(workload, seed, trace_dir=None, deadline=None):
    """Runs one benchmark process and returns its JSON report. The process
    is killed, and the run fails, if it is still running at deadline (a
    time.monotonic() value; default RUN_BUDGET_S from now)."""
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    cmd = [BIN, "-workload", workload, "-seed", str(seed), "-repo", ROOT]
    if trace_dir:
        cmd += ["-trace", trace_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("%s: %s" % (workload, e))
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed no report" % workload)
    try:
        rep = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError("%s: bad report: %s" % (workload, e))
    keep(rep, "traced" if trace_dir else "untraced")
    print("simbench: %s seed %d: host probe %.3f s, run %.3f s, %d/%d operations failed%s" % (
        workload, seed, rep["host_probe_s"], rep["metrics"]["run_s"]["value"],
        rep["failed"], rep["attempted"], "" if rep["digest_checked"] else " (seed has no recorded digests)"),
        file=sys.stderr)
    for op in rep["ops"]:
        if op.get("error"):
            print("simbench: %s failed: %s" % (op["name"], op["error"]), file=sys.stderr)
    return rep


def keep(rep, kind):
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    name = "%s-%s-seed%d-%s.json" % (time.strftime("%Y%m%dT%H%M%S"), rep["workload"], rep["seed"], kind)
    with open(os.path.join(runs, name), "w") as f:
        json.dump(rep, f, indent=1)


def measure(workload, seed, trace):
    """Builds and runs one measured run; returns the result object."""
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        rep = run_process(workload, seed, deadline=deadline)
        return {
            "correct": rep["failed"] == 0,
            "attempted": rep["attempted"],
            "failed": rep["failed"],
            "metrics": {k: rep["metrics"][k] for k in END_TO_END},
        }
    base = run_process(workload, seed, deadline=deadline)
    traced = run_process(workload, seed, os.path.join(OUT, "trace", "%s-seed%d" % (workload, seed)), deadline)
    # Tracing must not change what is simulated: every operation's digest
    # in the traced run must equal the untraced run's.
    failed = traced["failed"]
    for a, b in zip(base["ops"], traced["ops"]):
        if a["digest"] != b["digest"] and not b.get("error"):
            print("simbench: %s: traced digest %s != untraced %s" % (b["name"], b["digest"], a["digest"]),
                  file=sys.stderr)
            failed += 1
    # The traced run makes one round, so its run_s is set against the
    # untraced run's first round: the same operations, measured the same
    # way.
    first_round = sum(op["wall_s"][0] for op in base["ops"])
    layers = dict(traced["layers"])
    layers["trace.overhead"] = {"value": traced["metrics"]["run_s"]["value"] / first_round, "unit": "ratio"}
    return {
        "correct": failed == 0 and base["failed"] == 0,
        "attempted": traced["attempted"],
        "failed": failed,
        "metrics": layers,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30,
                    help="nominal timed-phase length; the work is fixed by the seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = measure(args.workload, args.seed, args.trace == 1)
    except BenchError as e:
        print("simbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
