#!/usr/bin/env python3
"""Validate and summarize a Chrome trace exported by the edgeIS tracer.

The tracer (src/runtime/trace.hpp) promises a handful of structural
invariants; this script is the executable statement of them:

  1. Schema: the file is {"traceEvents": [...]}; every event has ph, pid,
     tid, ts (and name except for E events; dur for X; args.value for C).
  2. Balanced spans: on every (pid, tid) track, B/E events pair up like
     parentheses when replayed in emission order, every E closes the most
     recent open B, no span is left open, and each E timestamp >= its B
     timestamp (monotone within a span).
  3. Non-negative durations on X events.
  4. Frame containment: on the mobile track (pid 1, tid 1) the B/E stage
     spans nested inside each "frame" span have durations that sum to at
     most the frame span's duration (within a small epsilon). X events are
     exempt: they model work that legitimately overlaps frames (e.g. the
     pure-mobile on-device inference).
  5. Critical-path closure: for every answered edge request, the stage
     decomposition recomputed here (mirroring runtime/critpath.cpp:
     uplink wait/transit, GPU wait, compute, chunk-stream tail, downlink,
     pickup) sums to the ledger's send->response span within 1%, and for
     first-attempt requests that span agrees with the rtt_ms the ledger
     itself measured at runtime within 1% — two independent clocks over
     the same interval.
  6. Canvas-delta consistency: edge `canvas_hit` instants carry a sane
     tile economy, edge `canvas_resync` instants justify the refusal
     (cold canvas or epoch mismatch), and every mobile-side ledger
     `canvas_resync` is preceded by a matching edge refusal.

With --check, exit non-zero on the first violated invariant (CI mode).
Otherwise additionally print a per-track event census, a per-stage
duration breakdown like the Fig. 11 table, and the mean critical-path
waterfall.

With --flight-recorder, the positional argument is a postmortem dump (or
a directory of them) written by runtime/flight_recorder.hpp instead of a
full trace: each dump must be valid JSON with complete flightRecorder
metadata, a known trigger name, and a traceEvents array consistent with
the declared ring occupancy (B/E balance is NOT required — a ring buffer
legitimately evicts a span's B while keeping its E).

Usage:
    scripts/trace_summary.py trace.json
    scripts/trace_summary.py --check trace.json
    scripts/trace_summary.py --check --flight-recorder flight/clients-64
"""

import argparse
import collections
import json
import os
import sys

EPS_US = 0.5  # span-sum slack: one export rounding step (0.001 us) per
              # stage would be enough; be generous and still catch bugs

# Anomaly triggers the flight recorder can fire (runtime/flight_recorder).
KNOWN_TRIGGERS = {
    "ledger-abandon", "degraded-entry", "reject-storm", "rto-collapse",
}


def fail(msg):
    print(f"trace_summary: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot parse {path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents must be an array")
    return events


def check_schema(events):
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("B", "E", "X", "i", "C", "M"):
            fail(f"event {i}: unknown ph {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                fail(f"event {i} (ph={ph}): missing integer {key}")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            fail(f"event {i} (ph={ph}): missing numeric ts")
        if ph != "E" and not isinstance(ev.get("name"), str):
            fail(f"event {i} (ph={ph}): missing name")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            fail(f"event {i} (ph=X): missing numeric dur")
        if ph == "X" and ev["dur"] < 0:
            fail(f"event {i} ({ev.get('name')}): negative dur {ev['dur']}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or "value" not in args:
                fail(f"event {i} (ph=C {ev.get('name')}): missing args.value")
        if ph == "i" and ev.get("s") != "t":
            fail(f"event {i} (ph=i {ev.get('name')}): missing scope s=t")


def check_balance(events):
    """Replay B/E per track; return closed spans as (pid, tid, name, ts,
    dur, depth, parent_index_in_result)."""
    stacks = collections.defaultdict(list)  # (pid,tid) -> [open span]
    spans = []
    for i, ev in enumerate(events):
        ph = ev["ph"]
        if ph == "B":
            stacks[(ev["pid"], ev["tid"])].append(
                {"name": ev["name"], "ts": ev["ts"], "index": i})
        elif ph == "E":
            key = (ev["pid"], ev["tid"])
            if not stacks[key]:
                fail(f"event {i}: E with no open span on track {key}")
            b = stacks[key].pop()
            if ev["ts"] < b["ts"] - 1e-9:
                fail(f"event {i}: span {b['name']!r} ends at {ev['ts']} "
                     f"before it begins at {b['ts']}")
            spans.append({
                "pid": key[0], "tid": key[1], "name": b["name"],
                "ts": b["ts"], "dur": ev["ts"] - b["ts"],
                "depth": len(stacks[key]),
            })
    for key, stack in stacks.items():
        if stack:
            names = [s["name"] for s in stack]
            fail(f"track {key}: {len(stack)} unclosed span(s): {names}")
    return spans


def check_frame_containment(spans):
    """On the mobile track, stage spans inside each frame span must not
    outlast it in total."""
    mobile = [s for s in spans if (s["pid"], s["tid"]) == (1, 1)]
    frames = [s for s in mobile if s["name"] == "frame"]
    stages = [s for s in mobile if s["name"] != "frame" and s["depth"] > 0]
    # Stage spans close before their frame (emission order), so a simple
    # interval scan suffices: attribute each stage to the frame containing
    # its start.
    frames.sort(key=lambda s: s["ts"])
    for fr in frames:
        inside = [s for s in stages
                  if fr["ts"] - 1e-9 <= s["ts"]
                  and s["ts"] + s["dur"] <= fr["ts"] + fr["dur"] + 1e-6]
        total = sum(s["dur"] for s in inside
                    if fr["ts"] - 1e-9 <= s["ts"] < fr["ts"] + fr["dur"])
        if total > fr["dur"] + EPS_US:
            fail(f"frame at ts={fr['ts']}: stage spans sum to {total:.3f} "
                 f"us > frame duration {fr['dur']:.3f} us")
    return frames, stages


def arg_num(ev, key, fallback=0.0):
    args = ev.get("args")
    v = args.get(key) if isinstance(args, dict) else None
    return v if isinstance(v, (int, float)) else fallback


def check_critpath(events):
    """Recompute the per-request critical-path decomposition of
    runtime/critpath.cpp from the exported JSON and hard-check its two
    closure properties: stages telescope to the send->response span
    (within 1%), and for attempt-0 requests that span matches the
    rtt_ms arg the request ledger measured independently at runtime
    (within 1%). Timestamps here are export microseconds; rtt_ms stays
    in ms. Returns the per-request stage dicts for summarize()."""
    first_send = {}   # (session, request) -> ts
    responses = {}    # (session, request) -> event (first wins)
    uplinks = collections.defaultdict(list)
    downlinks = collections.defaultdict(list)
    infers = collections.defaultdict(list)       # (session arg, frame)
    chunk_ready = collections.defaultdict(list)  # (session arg, frame)
    for ev in events:
        pid, ph = ev["pid"], ev["ph"]
        if pid == 2:  # shared edge track; session travels as an arg
            key = (int(arg_num(ev, "session", -1)), int(arg_num(ev, "frame", -1)))
            if ph == "X" and ev["name"] == "infer":
                infers[key].append(ev)
            elif ph == "i" and ev["name"] == "chunk_ready":
                chunk_ready[key].append(ev["ts"])
            continue
        mod = pid % 4
        if mod == 1 and ev["tid"] == 2 and ph == "i":
            key = ((pid - 1) // 4, int(arg_num(ev, "request", -1)))
            if ev["name"] == "send" and arg_num(ev, "ping") == 0:
                first_send.setdefault(key, ev["ts"])
            elif ev["name"] == "response":
                responses.setdefault(key, ev)
        elif mod == 3 and ph == "X":
            key = ((pid - 3) // 4, int(arg_num(ev, "request", -1)))
            fault = (ev.get("args") or {}).get("fault")
            usable = fault not in ("dropped", "duplicate-copy")
            if ev["tid"] == 1 and ev["name"] == "uplink":
                uplinks[key].append((ev, usable))
            elif ev["tid"] == 2 and ev["name"] == "downlink":
                downlinks[key].append((ev, usable))

    requests = []
    for key, resp in sorted(responses.items()):
        if key not in first_send:
            continue
        t0, t1 = first_send[key], resp["ts"]
        if t1 < t0:
            fail(f"request {key}: response at {t1} before send at {t0}")
        span_ms = (t1 - t0) / 1000.0
        rtt_ms = arg_num(resp, "rtt_ms")
        if arg_num(resp, "attempt") == 0 and rtt_ms > 0:
            if abs(span_ms - rtt_ms) > 0.01 * rtt_ms + 0.01:
                fail(f"request {key}: trace span {span_ms:.3f} ms disagrees "
                     f"with ledger rtt_ms {rtt_ms:.3f} by >1%")

        up = None
        for ev, usable in uplinks.get(key, ()):
            end = ev["ts"] + ev["dur"]
            if usable and ev["ts"] >= t0 - 1e-6 and end <= t1 + 1e-6:
                if up is None or end > up["ts"] + up["dur"]:
                    up = ev
        arrive = up["ts"] + up["dur"] if up else t0
        cands = infers.get(key, [])
        inside = [x for x in cands
                  if x["ts"] >= arrive - 1e-6
                  and x["ts"] + x["dur"] <= t1 + 1e-6]
        inf = min(inside, key=lambda x: x["ts"]) if inside else None
        if inf is None:
            done = [x for x in cands if x["ts"] + x["dur"] <= t1 + 1e-6]
            inf = max(done, key=lambda x: x["ts"] + x["dur"]) if done else None
        lo = inf["ts"] if inf else arrive
        chunks = [ts for ts in chunk_ready.get(key, ())
                  if lo - 1e-6 <= ts <= t1 + 1e-6]
        down = None
        for ev, usable in downlinks.get(key, ()):
            end = ev["ts"] + ev["dur"]
            if usable and end <= t1 + 1e-6:
                if down is None or end > down["ts"] + down["dur"]:
                    down = ev

        prev = t0
        marks = []
        for t in (up["ts"] if up else t0,
                  up["ts"] + up["dur"] if up else t0,
                  inf["ts"] if inf else t0,
                  min(chunks) if chunks else t0,
                  max(chunks) if chunks else t0,
                  down["ts"] if down else t0,
                  down["ts"] + down["dur"] if down else t0):
            prev = min(max(prev, t), t1)
            marks.append(prev)
        m1, m2, m3, m4, m5, m6, m7 = marks
        queue = min(arg_num(up, "queue_wait_ms") * 1000.0 if up else 0.0,
                    m1 - t0)
        stages = {
            "retry": m1 - t0 - queue, "upQ": queue, "upTx": m2 - m1,
            "gpuWait": m3 - m2, "compute": m4 - m3, "stream": m5 - m4,
            "dnQ": m6 - m5, "dnTx": m7 - m6, "pickup": t1 - m7,
        }
        total = sum(stages.values())
        if abs(total - (t1 - t0)) > 0.01 * max(t1 - t0, 1.0):
            fail(f"request {key}: stages sum to {total:.3f} us but span is "
                 f"{t1 - t0:.3f} us (>1% apart)")
        requests.append(stages)
    return requests


def check_canvas(events):
    """Canvas-delta uplink instants (core/edge_server.cpp): every edge
    `canvas_hit` must carry a sane tile economy (sent+reused > 0, quality
    in [0,1]); every edge `canvas_resync` must justify the refusal (cold
    canvas, or base_epoch != canvas_epoch); and every mobile-side ledger
    `canvas_resync` must be preceded by an edge refusal for the same
    (session, frame) — the mobile never invents a resync the edge did not
    send. Returns (hits, edge_resyncs, ledger_resyncs) for summarize()."""
    hits = 0
    edge_resyncs = collections.defaultdict(list)  # (session, frame) -> ts
    ledger_resyncs = []
    for i, ev in enumerate(events):
        if ev["ph"] != "i":
            continue
        pid, name = ev["pid"], ev["name"]
        if pid == 2 and name == "canvas_hit":
            sent = arg_num(ev, "sent", -1)
            reused = arg_num(ev, "reused", -1)
            quality = arg_num(ev, "quality", -1)
            if sent < 0 or reused < 0 or sent + reused <= 0:
                fail(f"event {i}: canvas_hit with empty tile economy "
                     f"(sent={sent}, reused={reused})")
            if not 0.0 <= quality <= 1.0 + 1e-9:
                fail(f"event {i}: canvas_hit quality {quality} outside "
                     f"[0, 1]")
            hits += 1
        elif pid == 2 and name == "canvas_resync":
            base = arg_num(ev, "base_epoch", -1)
            canvas = arg_num(ev, "canvas_epoch", -1)
            cold = (ev.get("args") or {}).get("cold")
            if not cold and base == canvas:
                fail(f"event {i}: canvas_resync on a warm canvas with "
                     f"matching epochs (base={base})")
            key = (int(arg_num(ev, "session", -1)),
                   int(arg_num(ev, "frame", -1)))
            edge_resyncs[key].append(ev["ts"])
        elif pid % 4 == 3 and name == "canvas_resync":
            ledger_resyncs.append(
                ((pid - 3) // 4, int(arg_num(ev, "request", -1)),
                 ev["ts"], i))
    for session, request, ts, i in ledger_resyncs:
        cands = edge_resyncs.get((session, request), [])
        if not any(t <= ts + 1e-6 for t in cands):
            fail(f"event {i}: ledger canvas_resync for request "
                 f"({session}, {request}) has no earlier edge refusal")
    n_edge = sum(len(v) for v in edge_resyncs.values())
    if len(ledger_resyncs) > n_edge:
        fail(f"{len(ledger_resyncs)} ledger canvas_resync instants but "
             f"only {n_edge} edge refusals")
    return hits, n_edge, len(ledger_resyncs)


def summarize_critpath(requests):
    if not requests:
        return
    names = ["retry", "upQ", "upTx", "gpuWait", "compute", "stream",
             "dnQ", "dnTx", "pickup"]
    print(f"\ncritical-path waterfall over {len(requests)} answered "
          f"requests (mean ms):")
    total = 0.0
    for name in names:
        mean_ms = sum(r[name] for r in requests) / len(requests) / 1000.0
        total += mean_ms
        print(f"  {name:<12} {mean_ms:8.3f}")
    print(f"  {'(span)':<12} {total:8.3f}")


def lint_flight_dump(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"flight dump {path}: cannot parse: {e}")
    meta = doc.get("flightRecorder")
    if not isinstance(meta, dict):
        fail(f"flight dump {path}: missing flightRecorder metadata object")
    for key, kind in (("session", int), ("trigger", str),
                      ("ts_ms", (int, float)), ("events", int),
                      ("capacity", int)):
        if not isinstance(meta.get(key), kind):
            fail(f"flight dump {path}: metadata field {key!r} missing or "
                 f"mistyped")
    if meta["trigger"] not in KNOWN_TRIGGERS:
        fail(f"flight dump {path}: unknown trigger {meta['trigger']!r}")
    if meta["events"] > meta["capacity"]:
        fail(f"flight dump {path}: {meta['events']} events exceed ring "
             f"capacity {meta['capacity']}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or len(events) != meta["events"]:
        fail(f"flight dump {path}: traceEvents length "
             f"{len(events) if isinstance(events, list) else '?'} != "
             f"declared events {meta['events']}")
    # Schema only: a ring buffer evicts oldest-first, so a span's B may be
    # gone while its E survives — balance is not an invariant of a dump.
    check_schema(events)
    return meta


def lint_flight(path, check_only):
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name)
                       for name in os.listdir(path)
                       if name.endswith(".json"))
        if not files:
            fail(f"flight dir {path}: no .json dumps")
    else:
        files = [path]
    by_trigger = collections.Counter()
    for f in files:
        by_trigger[lint_flight_dump(f)["trigger"]] += 1
    print(f"trace_summary: OK: {len(files)} flight dump(s) valid")
    if not check_only:
        for trigger, n in sorted(by_trigger.items()):
            print(f"  {trigger:<16} {n}")


def summarize(events, spans, frames, stages):
    track_names = {}
    for ev in events:
        if ev["ph"] == "M" and ev.get("name") == "thread_name":
            track_names[(ev["pid"], ev["tid"])] = ev["args"]["name"]

    census = collections.Counter(
        (ev["pid"], ev["tid"], ev["ph"]) for ev in events)
    print(f"{len(events)} events, {len(spans)} B/E spans, "
          f"{len(frames)} frames")
    print("\nper-track census (B/E X i C):")
    tracks = sorted({(ev["pid"], ev["tid"]) for ev in events})
    for key in tracks:
        label = track_names.get(key, f"pid{key[0]}/tid{key[1]}")
        counts = " ".join(
            f"{ph}={census.get((key[0], key[1], ph), 0)}"
            for ph in ("B", "E", "X", "i", "C"))
        print(f"  {label:<28} {counts}")

    if frames:
        frame_total = sum(f["dur"] for f in frames)
        print(f"\nmobile stage breakdown over {len(frames)} frames "
              f"(mean ms/frame):")
        by_name = collections.defaultdict(float)
        for s in stages:
            by_name[s["name"]] += s["dur"]
        stage_sum = 0.0
        for name in sorted(by_name, key=by_name.get, reverse=True):
            per_frame_ms = by_name[name] / len(frames) / 1000.0
            stage_sum += by_name[name]
            print(f"  {name:<12} {per_frame_ms:8.3f}")
        print(f"  {'(stages)':<12} {stage_sum / len(frames) / 1000.0:8.3f}")
        print(f"  {'frame':<12} {frame_total / len(frames) / 1000.0:8.3f}")

    x_by_track = collections.defaultdict(float)
    for ev in events:
        if ev["ph"] == "X":
            x_by_track[(ev["pid"], ev["tid"], ev["name"])] += ev["dur"]
    if x_by_track:
        print("\nX-event busy time (total ms):")
        for (pid, tid, name), dur in sorted(x_by_track.items()):
            label = track_names.get((pid, tid), f"pid{pid}/tid{tid}")
            print(f"  {label:<20} {name:<14} {dur / 1000.0:10.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace",
                    help="Chrome trace-event JSON file, or with "
                         "--flight-recorder a postmortem dump file/dir")
    ap.add_argument("--check", action="store_true",
                    help="validate only; no summary output")
    ap.add_argument("--flight-recorder", action="store_true",
                    help="lint flight-recorder dump(s) instead of a trace")
    args = ap.parse_args()

    if args.flight_recorder:
        lint_flight(args.trace, args.check)
        return

    events = load(args.trace)
    if not events:
        fail("empty trace")
    check_schema(events)
    spans = check_balance(events)
    frames, stages = check_frame_containment(spans)
    requests = check_critpath(events)
    hits, edge_rs, ledger_rs = check_canvas(events)
    if args.check:
        print(f"trace_summary: OK: {len(events)} events, "
              f"{len(spans)} spans balanced, {len(frames)} frames, "
              f"{len(requests)} critical paths closed, "
              f"{hits + edge_rs} canvas instants consistent")
        return
    summarize(events, spans, frames, stages)
    if hits or edge_rs:
        print(f"\ncanvas-delta uplink: {hits} reconstructions, "
              f"{edge_rs} edge refusals, {ledger_rs} acknowledged resyncs")
    summarize_critpath(requests)


if __name__ == "__main__":
    main()
