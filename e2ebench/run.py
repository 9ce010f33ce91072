#!/usr/bin/env python3
"""Build the e2ebench harness from source and run one benchmark workload.

    python3 e2ebench/run.py --workload solo-davis|crowd-outage|fleet-4|fleet-8 \
        --seed N --seconds S --trace 0|1

Run from the root of an edgeis source tree. The first call configures and
builds the harness (and the edgeis libraries it links) under
.bench_build/e2ebench; later calls rebuild incrementally. The harness's
stdout is passed through; its last line is the result JSON object
({"correct", "attempted", "failed", "metrics"}). With --trace 1 the host
spans of the traced pass are also written to
.bench_build/e2ebench/trace/<workload>-seed<N>-host.json.

Exit status: 0 when every output check passed, 1 when a check failed or the
harness misbehaved, 2 when the source tree or the build is missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("solo-davis", "crowd-outage", "fleet-4", "fleet-8")
# The harness must finish well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170.0


def fail(code, message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configure (once) and build the harness; returns its path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(2, f"no edgeis source tree here (missing {needed})")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail(2, f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.write("".join(tail))
                fail(2, f"build failed (see {log_path})")
    return os.path.join(out, "e2ebench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    harness = build()
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir(), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}-host.json")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"harness exceeded {HARNESS_TIMEOUT_S:.0f} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(1, f"harness exited {proc.returncode} without a result line")
    want = expected_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if got != want:
        fail(1, f"metric set mismatch: missing {sorted(want - got)}, "
                f"unexpected {sorted(got - want)}")
    print(f"harness wall time: {time.monotonic() - t0:.1f} s")
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(1)


if __name__ == "__main__":
    main()
