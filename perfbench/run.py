#!/usr/bin/env python3
"""Build and run the repository benchmark; print one result line.

    python3 perfbench/run.py --workload sap_200k --seed 1 --seconds 25 --trace 0

Builds the driver (perfbench/CMakeLists.txt) into .bench_build/perfbench
under the repository root, runs one workload, checks its outputs and
prints, as the last stdout line, one JSON object with the keys
correct / attempted / failed / metrics. With --trace 0 the metrics are
the end_to_end list of BENCHMARK.json; with --trace 1 they are the
per_layer list, and the Chrome trace of the run is written to
.bench_build/traces/<workload>-seed<N>.json and reduced to per-span
self times. Lines before the last one are a human summary and a
"detail" JSON line (sample counts, stamps, span self times, which
metrics are computed estimates).

Exit code: 0 when every correctness check passed, 1 when a check failed
(the result line then says correct: false), 2 when the benchmark cannot
build or run at all (no result line).

Extra flags after the four standard ones are passed to the driver
(--devices N, --rounds N, --inject-fault); the self-test uses them to
run tiny swarms and to plant a forged token.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER_DIR = os.path.join(BUILD, "perfbench")
DRIVER = os.path.join(DRIVER_DIR, "perfbench")
DRIVER_TIMEOUT_S = 170

# Per-layer metrics read from the Chrome trace: the program's own spans,
# taken where the benchmark's enclosing span says which phase they are.
SPAN_METRICS = {
    "sap.round_span_s": ("sap.round", "bench.round.warm"),
    "seda.round_span_s": ("seda.round", "bench.round.warm"),
    "seda.join_span_s": ("seda.join", "bench.join"),
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the driver target (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no repository sources next to %s; nothing to build" % HERE)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(DRIVER_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", DRIVER_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", DRIVER_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def span_tree(trace_path):
    """Wall-clock complete events with their parent and self time."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X" and e.get("pid") == 1]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            end = e["ts"] + e["dur"]
            while stack and stack[-1]["ts"] + stack[-1]["dur"] < end:
                stack.pop()
            e["parent"] = stack[-1] if stack else None
            e["child_us"] = 0.0
            if stack:
                stack[-1]["child_us"] += e["dur"]
            stack.append(e)
    return events


def trace_report(trace_path):
    """Per-span totals and self times, and the span-derived metrics."""
    events = span_tree(trace_path)
    spans = {}
    for e in events:
        s = spans.setdefault(e["name"], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        s["count"] += 1
        s["total_s"] += e["dur"] * 1e-6
        s["self_s"] += max(0.0, e["dur"] - e["child_us"]) * 1e-6
    metrics = {}
    for name, (span, parent) in SPAN_METRICS.items():
        durs = [e["dur"] * 1e-6 for e in events if e["name"] == span and
                e["parent"] is not None and e["parent"]["name"] == parent]
        if durs:
            metrics[name] = {"value": statistics.median(durs), "unit": "s",
                             "samples": len(durs), "computed": False}
    return spans, metrics


def summary(workload, seed, trace, raw, metrics, spans):
    out = ["perfbench %s seed %d trace %d: correct=%s attempted=%d "
           "failed=%d" % (workload, seed, trace, raw["correct"],
                          raw["attempted"], raw["failed"])]
    stamp = raw.get("stamp", {})
    out.append("  " + " ".join("%s=%s" % (k, stamp[k]) for k in sorted(stamp)))
    for name in sorted(metrics):
        m = metrics[name]
        note = " (computed)" if m.get("computed") else ""
        if m.get("samples", 1) == 0:
            note = " (layer not exercised)"
        out.append("  %-34s %14.6g %-6s n=%d%s" % (
            name, m["value"], m["unit"], m.get("samples", 1), note))
    if spans:
        out.append("  span self times (s):")
        for name in sorted(spans, key=lambda n: -spans[n]["self_s"]):
            s = spans[name]
            out.append("  %-34s total %10.4f self %10.4f n=%d" % (
                name, s["total_s"], s["self_s"], s["count"]))
    for f in raw.get("failures", []):
        out.append("  FAILED: " + f)
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at " + bench_json)
    with open(bench_json) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    trace_path = None
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", BUILD] + extra
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", "%s-seed%d.json" % (
            args.workload, args.seed))
        cmd += ["--trace-out", trace_path]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver exited %d without a result" % proc.returncode)

    produced = dict(raw["metrics"])
    spans = {}
    if trace_path:
        spans, span_metrics = trace_report(trace_path)
        produced.update(span_metrics)

    # The result carries exactly the metrics BENCHMARK.json lists for this
    # mode. A per-layer metric of a layer this workload does not run reads
    # 0 with no samples; a missing end-to-end metric is a failure.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            if not args.trace:
                raw["correct"] = False
                raw["failed"] += 1
                raw.setdefault("failures", []).append(
                    "end-to-end metric %s missing" % m["name"])
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (
                m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got

    print(summary(args.workload, args.seed, args.trace, raw, metrics, spans))
    print(json.dumps({"detail": {
        "stamp": raw.get("stamp", {}),
        "metrics": produced,
        "spans": spans,
        "trace_file": os.path.relpath(trace_path, ROOT) if trace_path else None,
        "driver_exit": proc.returncode,
        "wall_s": time.monotonic() - t0,
        "failures": raw.get("failures", []),
    }}, sort_keys=True))
    correct = bool(raw["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
