#!/usr/bin/env python3
"""Sweep, spread and parent-vs-change comparison for e2ebench results.

  python3 e2ebench/compare.py sweep --workload W --seeds 1-10 \
      [--seconds S] [--trace 0|1] --out runs.jsonl
  python3 e2ebench/compare.py spread runs.jsonl
  python3 e2ebench/compare.py diff parent.jsonl change.jsonl
  python3 e2ebench/compare.py self-test

A results file holds one JSON object per line:
{"workload": W, "seed": N, "trace": 0|1, "result": <run.py's last line>}.

`spread` prints, per workload and end-to-end metric, the median and the
quartile spread (q3 - q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them, against the metric's bound
from BENCHMARK.json. `diff` applies the regression rule: a change
regresses when, on any workload, an end-to-end metric's median is worse
than the parent's median by more than the metric's bound, when its failure
share (failed / attempted) is higher, or when any run fails its output
check. It also lists the per-layer metrics whose medians moved by more
than LAYER_MOVE, which is where a single slower layer shows up, and every
sim-clock metric that changed on a seed both sides ran. `self-test`
checks these rules on synthetic result pairs.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A per-layer metric whose median moves by more than this share is listed.
LAYER_MOVE = 0.25
# End-to-end metrics on the simulated clock: exact per seed, so a change
# that should not touch the simulation must leave them identical.
SIM_METRICS = ("iou_mean", "mobile_ms_p50", "mobile_ms_p95",
               "staleness_ms_mean", "uplink_kb_per_frame",
               "request_answered_rate")


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(runs, trace):
    out = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r["result"])
    return out


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def spread(runs, spec):
    """Rows of (workload, metric, median, spread, bound)."""
    rows = []
    for workload, results in sorted(by_workload(runs, 0).items()):
        for m in spec["end_to_end"]:
            values = metric_values(results, m["name"])
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            rel = (q3 - q1) / abs(med) if med else float("inf")
            rows.append((workload, m["name"], med, rel, m["bound"]))
    return rows


def worse_share(parent, change, better):
    """How much worse `change` is than `parent`, as a share of parent."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (parent - change) if better == "higher" else (change - parent)
    return delta / abs(parent)


def sim_changes(parent_runs, change_runs):
    """Sim-clock metrics that differ between the two sides on a seed both
    ran; readable strings."""
    def index(runs):
        return {(r["workload"], r["seed"]): r["result"]["metrics"]
                for r in runs if r["trace"] == 0}
    p, c = index(parent_runs), index(change_runs)
    out = []
    for key in sorted(set(p) & set(c)):
        for name in SIM_METRICS:
            if name in p[key] and name in c[key] and \
                    p[key][name]["value"] != c[key][name]["value"]:
                out.append(f"{key[0]} seed {key[1]}: {name} "
                           f"{p[key][name]['value']:.6g} -> "
                           f"{c[key][name]['value']:.6g}")
    return out


def diff(parent_runs, change_runs, spec):
    """Returns (regressions, layer_moves): lists of readable strings."""
    regressions = []
    parent_e2e = by_workload(parent_runs, 0)
    change_e2e = by_workload(change_runs, 0)
    for workload in sorted(set(parent_e2e) | set(change_e2e)):
        p, c = parent_e2e.get(workload, []), change_e2e.get(workload, [])
        if not p or not c:
            regressions.append(f"{workload}: missing runs on one side")
            continue
        for results, side in ((p, "parent"), (c, "change")):
            bad = sum(1 for r in results if not r["correct"])
            if bad and side == "change":
                regressions.append(f"{workload}: {bad} change runs failed "
                                   "their output check")
        share = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                 for rs in (p, c)]
        if share[1] > share[0]:
            regressions.append(f"{workload}: failure share {share[1]:.4g} > "
                               f"parent {share[0]:.4g}")
        for m in spec["end_to_end"]:
            pv, cv = metric_values(p, m["name"]), metric_values(c, m["name"])
            if not pv or not cv:
                regressions.append(f"{workload}: {m['name']} missing")
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse = worse_share(pm, cm, m["better"])
            if worse > m["bound"]:
                regressions.append(
                    f"{workload}: {m['name']} {cm:.6g} vs parent {pm:.6g} "
                    f"({worse:+.1%} worse, bound {m['bound']:.0%})")
    moves = []
    parent_layer = by_workload(parent_runs, 1)
    change_layer = by_workload(change_runs, 1)
    for workload in sorted(set(parent_layer) & set(change_layer)):
        for m in spec["per_layer"]:
            pv = metric_values(parent_layer[workload], m["name"])
            cv = metric_values(change_layer[workload], m["name"])
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            if pm == 0 and cm == 0:
                continue
            rel = (cm - pm) / abs(pm) if pm else float("inf")
            if abs(rel) > LAYER_MOVE:
                moves.append(f"{workload}: {m['name']} {pm:.6g} -> {cm:.6g} "
                             f"({rel:+.0%})")
    return regressions, moves


# --------------------------------------------------------------------------
# Synthetic self-test of the comparison rules.

def synthetic_runs(spec, rng, scale=None, layer_scale=None, failed=0,
                   n=10, noise=0.02):
    """n e2e runs and n traced runs per workload, every metric 100 * a
    small multiplicative noise, times `scale[name]` if given."""
    scale = scale or {}
    layer_scale = layer_scale or {}
    runs = []
    for w in spec["workloads"]:
        for seed in range(n):
            for trace, metrics, factors in (
                    (0, spec["end_to_end"], scale),
                    (1, spec["per_layer"], layer_scale)):
                values = {
                    m["name"]: {
                        "value": 100.0 * factors.get(m["name"], 1.0)
                        * (1.0 + rng.uniform(-noise, noise)),
                        "unit": m["unit"]}
                    for m in metrics}
                runs.append({"workload": w["name"], "seed": seed,
                             "trace": trace,
                             "result": {"correct": True, "attempted": 1000,
                                        "failed": failed if trace == 0 else 0,
                                        "metrics": values}})
    return runs


def self_test():
    spec = load_spec()
    rng = random.Random(11)
    ok = True

    def check(cond, what):
        nonlocal ok
        ok &= cond
        print(f"  [{'ok' if cond else 'FAIL'}] {what}")

    parent = synthetic_runs(spec, rng)
    same = synthetic_runs(spec, rng)
    regs, moves = diff(parent, same, spec)
    check(not regs and not moves, "same code: no regression, no layer moves")

    for m in spec["end_to_end"]:
        bound = m["bound"]
        sign = -1.0 if m["better"] == "higher" else 1.0
        past = synthetic_runs(spec, rng,
                              scale={m["name"]: 1.0 + sign * (bound + 0.05)})
        regs, _ = diff(parent, past, spec)
        check(any(m["name"] in r for r in regs),
              f"{m['name']} worse by bound+5% trips")
        within = synthetic_runs(spec, rng,
                                scale={m["name"]: 1.0 + sign * bound / 2})
        regs, _ = diff(parent, within, spec)
        check(not regs, f"{m['name']} worse by half its bound passes")
        better = synthetic_runs(spec, rng,
                                scale={m["name"]: 1.0 - sign * 0.5})
        regs, _ = diff(parent, better, spec)
        check(not regs, f"{m['name']} 50% better passes")

    failing = synthetic_runs(spec, rng, failed=3)
    regs, _ = diff(parent, failing, spec)
    check(any("failure share" in r for r in regs),
          "a higher failure share trips")
    broken = synthetic_runs(spec, rng)
    broken[0]["result"]["correct"] = False
    regs, _ = diff(parent, broken, spec)
    check(any("output check" in r for r in regs),
          "a failed output check trips")

    check(not sim_changes(parent, parent), "identical runs: no sim change")
    check(len(sim_changes(parent, same)) > 0,
          "different sim values on the same seed are listed")

    slow = spec["per_layer"][0]["name"]
    slower = synthetic_runs(spec, rng, layer_scale={slow: 2.0})
    regs, moves = diff(parent, slower, spec)
    check(not regs and len(moves) == len(spec["workloads"])
          and all(slow in mv for mv in moves),
          f"{slow} slowing 2x shows up in that layer only")

    print(f"self-test: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# --------------------------------------------------------------------------

def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                print(f"seed {seed}: no result (exit {proc.returncode})")
                return 1
            out.write(json.dumps({"workload": args.workload, "seed": seed,
                                  "trace": args.trace,
                                  "result": result}) + "\n")
            out.flush()
            print(f"seed {seed}: exit {proc.returncode} "
                  f"correct={result['correct']}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    s.add_argument("--seconds", type=float)
    s.add_argument("--trace", type=int, default=0, choices=(0, 1))
    s.add_argument("--out", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("runs")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    sub.add_parser("self-test")
    args = p.parse_args()

    if args.cmd == "sweep":
        return sweep(args)
    if args.cmd == "self-test":
        return self_test()
    spec = load_spec()
    if args.cmd == "spread":
        print(f"{'workload':<14}{'metric':<24}{'median':>14}{'spread':>9}"
              f"{'bound':>7}")
        for workload, name, med, rel, bound in spread(load_runs(args.runs),
                                                      spec):
            flag = "" if rel <= bound / 3 else (
                "  above bound/3" if rel <= bound else "  ABOVE BOUND")
            print(f"{workload:<14}{name:<24}{med:>14.6g}{rel:>9.2%}"
                  f"{bound:>7.0%}{flag}")
        return 0
    regressions, moves = diff(load_runs(args.parent), load_runs(args.change),
                              spec)
    for line in regressions:
        print(f"REGRESSION {line}")
    for line in moves:
        print(f"layer moved {line}")
    for line in sim_changes(load_runs(args.parent), load_runs(args.change)):
        print(f"sim changed {line}")
    print("verdict:", "regressed" if regressions else "no regression")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
