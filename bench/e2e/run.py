#!/usr/bin/env python3
"""End-to-end checkpointing benchmark: build, run, check, report.

One workload per call:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds bench_e2e (CMake, into build-e2e), runs the workload in its own
process (QNNCKPT_THREADS=2, MALLOC_ARENA_MAX=1), checks its outputs and
prints every metric by name and unit. The last stdout line is one JSON
object:

    {"correct": true, "attempted": A, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, folded from the Chrome trace the run
writes and validated with bench/check_trace.py. The exit status is
non-zero when any correctness gate failed.

Other modes:

    run.py --workload NAME --repeat N [--out FILE]  same seed N times:
        median and quartiles per metric; asserts the deterministic counts
        repeat exactly
    run.py --calibrate [--workload NAME] [--out FILE]  5 seeds per
        workload: observed spread per metric across seeds, the bound it
        suggests, and the metrics to demote to per-layer
    run.py compare A.json B.json  the pair rule and per-metric bounds
        over two --repeat/--calibrate outputs, one row per workload
    run.py --self-test  unit checks of the percentile, the trace fold and
        the compare rule, plus a run whose expected state is deliberately
        wrong and must fail
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-e2e"  # ignored by the root .gitignore's build*/
BINARY = BUILD / "bench_e2e"

DEFAULT_SEED = 2025  # seed 7 is the validation seed (see README)
DEFAULT_SECONDS = 15.0
CALIBRATION_RUNS = 5
# Calibration: a bound is 3x the worst spread across seeds, at least the
# floor of its kind and at most 0.25. A metric whose spread needs more is
# flagged for demotion to per-layer.
MAX_BOUND = 0.25
MEASURED_FLOOR = 0.05
# Counted, not measured: exact for a seed; across seeds they move only
# with the generated values.
COUNTED = ("bytes_per_ckpt", "read_bytes_per_recover", "space_amp")
COUNTED_FLOOR = 0.001
# 2 simulator pool workers; train-async adds 1 encode thread + 1 writer.
# One malloc arena: with glibc's per-thread arenas, a run's peak RSS
# landed on one of several multiples of its largest buffer.
CHILD_ENV = {"QNNCKPT_THREADS": "2", "MALLOC_ARENA_MAX": "1"}
BENCH_TIMEOUT_S = 170

# Bench-owned spans (the per-layer attribution from outside the library)
# and the layer their self time belongs to. Wrapper spans around a call
# whose inside the library traces itself: their self time is the
# unattributed residual.
BENCH_SPANS = {
    "qnn.step_once": "qnn",
    "sim.snapshot": "sim",
    "ckpt.call": "unattributed",
    "ckpt.flush": "unattributed",
    "recovery.recover_latest": "unattributed",
}
SELF_LAYERS = ("qnn", "sim", "ckpt", "gc", "recovery", "unattributed")
IO_CLASSES = ("append", "sync", "install", "pread", "remove", "meta")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ------------------------------------------------------------ statistics

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it (p=0 gives the minimum)."""
    s = sorted(values)
    if not s:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def hist_percentile_us(buckets, p):
    """LatencyHistogram's estimate: upper edge (2^i us) of the bucket
    holding the p-th sample; 0 when empty."""
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * total))
    seen = 0
    for i, n in enumerate(buckets):
        seen += n
        if seen >= rank:
            return float(1 << i)
    return float(1 << (len(buckets) - 1))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------- tracing

def fold(events):
    """Pairs B/E events per thread and computes each span's self time:
    its duration minus the part its same-thread children cover. Instant
    events mark every span open on their thread. Returns (spans,
    instants); times stay in the trace's microseconds."""
    spans, instants, stacks = [], [], {}
    for ev in events:
        if ev["ph"] == "i":
            instants.append(ev)
            for open_span in stacks.get(ev["tid"], []):
                open_span["marks"].add(ev["name"])
            continue
        stack = stacks.setdefault(ev["tid"], [])
        if ev["ph"] == "B":
            args = ev.get("args", {})
            stack.append({"name": ev["name"], "cat": ev.get("cat", ""),
                          "tid": ev["tid"], "start": ev["ts"],
                          "id": args.get("span"),
                          "parent": args.get("parent"),
                          "covered": 0, "marks": set()})
            continue
        span = stack.pop()
        span["end"] = ev["ts"]
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - span["covered"]
        if stack:
            stack[-1]["covered"] += span["dur"]
        spans.append(span)
    return spans, instants


def layer_of(span):
    return BENCH_SPANS.get(span["name"], span["cat"])


def trace_metrics(events, timed_ops):
    """Per-layer timings from the traced phase's spans (those that begin
    at or after the bench's timed.begin marker)."""
    spans, instants = fold(events)
    begin = max((i["ts"] for i in instants if i["name"] == "timed.begin"),
                default=0)
    spans = [s for s in spans if s["start"] >= begin]

    def ms(name, p, pred=None):
        durs = [s["dur"] / 1e3 for s in spans
                if s["name"] == name and (pred is None or pred(s))]
        return percentile(durs, p)

    stages = {}  # checkpoint span id -> {stage name: span}
    for s in spans:
        if s["cat"] == "ckpt" and s["parent"] is not None:
            stages.setdefault(s["parent"], {})[s["name"]] = s
    def gaps(first, then):
        return [(g[then]["start"] - g[first]["end"]) / 1e3
                for g in stages.values() if first in g and then in g]


    caller = next((s["tid"] for s in spans if s["name"] in BENCH_SPANS), None)
    self_ms = dict.fromkeys(SELF_LAYERS, 0.0)
    background = 0.0
    for s in spans:
        if s["tid"] != caller:
            background += s["self"] / 1e3
        elif layer_of(s) in self_ms:
            self_ms[layer_of(s)] += s["self"] / 1e3
    caller_total = sum(self_ms.values())

    def is_wal_call(s):
        return "wal.append" in s["marks"]

    m = {
        "qnn.step_ms_p50": ms("qnn.step_once", 50),
        "sim.snapshot_ms_p50": ms("sim.snapshot", 50),
        "ckpt.call_ms_p50": ms("ckpt.call", 50),
        "ckpt.call_ms_p90": ms("ckpt.call", 90),
        "ckpt.flush_ms": sum(s["dur"] / 1e3 for s in spans
                             if s["name"] == "ckpt.flush"),
        "ckpt.snapshot_ms_p50": ms("snapshot", 50),
        "ckpt.encode_ms_p50": ms("encode", 50),
        "ckpt.install_ms_p50": ms("install", 50),
        "ckpt.install_ms_p90": ms("install", 90),
        "ckpt.encode_wait_ms_p50": percentile(gaps("snapshot", "encode"), 50),
        "ckpt.writer_wait_ms_p50": percentile(gaps("encode", "install"), 50),
        "ckpt.unattributed_ms_p50": percentile(
            [s["self"] / 1e3 for s in spans if s["name"] == "ckpt.call"], 50),
        "gc.collect_ms_p50": ms("gc.collect", 50),
        "wal.append_ms_p50": ms("ckpt.call", 50, is_wal_call),
        "wal.call_ms_p99": ms("ckpt.call", 99, is_wal_call),
        "recovery.candidate_ms_p50": ms("candidate", 50),
        "self.unattributed_share": ratio(self_ms["unattributed"],
                                         caller_total),
        "self.background_ms_per_op": ratio(background, timed_ops),
    }
    for layer in SELF_LAYERS:
        m[f"self.{layer}_ms_per_op"] = ratio(self_ms[layer], timed_ops)
    return m


def check_trace(path):
    """Validates a trace with the repository's bench/check_trace.py."""
    checker = ROOT / "bench" / "check_trace.py"
    proc = subprocess.run([sys.executable, str(checker), str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
    return proc.returncode == 0


# --------------------------------------------------------------- metrics

def end_to_end_metrics(raw):
    phase = raw["phases"][0]
    w = phase["window"]
    return {
        "setup_s": statistics.median(phase["setup_s"]),
        "bytes_per_ckpt": ratio(w["bytes_written"],
                                w["checkpoints"] + w["journal_records"]),
        "read_bytes_per_recover": ratio(w["recover_bytes_read"],
                                        w["recovers"]),
        "space_amp": w["space_amp"],
        "peak_rss_mb": w["peak_rss_kb"] / 1024.0,
    }


def per_layer_metrics(raw, events):
    untraced, traced = raw["phases"]
    ops = traced["ops"]
    ck = traced["ckpt"]
    ckpts = ck["checkpoints"]
    m = trace_metrics(events, ops)
    m.update({
        # The trainer-visible timings, from the untraced half: demoted
        # from end-to-end because they varied 10-22% between runs.
        # wall_s ends after the final flush.
        "e2e.ops_per_s": ratio(untraced["ops"], untraced["wall_s"]),
        "e2e.op_ms_p50": percentile(untraced["op_ms"], 50),
        "e2e.op_ms_p90": percentile(untraced["op_ms"], 90),
        "ckpt.submit_blocked_s": ck["submit_blocked_s"],
        "ckpt.peak_encode_buffer_bytes": ck["peak_encode_buffer_bytes"],
        "ckpt.dropped_writes": ck["dropped_writes"],
        "cas.dedup_hit_ratio": ratio(ck["chunks_deduped"], ck["chunk_refs"]),
        "cas.chunk_misses_per_ckpt": ratio(
            ck["chunk_refs"] - ck["chunks_deduped"], ckpts),
        "cas.pack_bytes_per_ckpt": ratio(ck["pack_bytes_written"], ckpts),
        "gc.files_deleted_per_ckpt": ratio(ck["gc_files_deleted"], ckpts),
        "gc.manifest_rewrites_per_ckpt": ratio(ck["gc_manifest_rewrites"],
                                               ckpts),
        "wal.bytes_per_record": ratio(ck["wal_bytes"], ck["wal_records"]),
        "wal.compactions": ck["wal_compactions"],
        "recovery.chain_depth": traced["flight"]["chain_depth"],
        "recovery.wal_records_replayed":
            traced["flight"]["wal_records_replayed"],
        "recovery.candidates_per_recover": traced["flight"]["candidates"],
        "codec.lz_encode_MBps": traced["kernels"]["lz_encode_MBps"],
        "codec.lz_decode_MBps": traced["kernels"]["lz_decode_MBps"],
        "util.crc32c_MBps": traced["kernels"]["crc32c_MBps"],
        "obs.trace_overhead_x": ratio(untraced["ops"] / untraced["wall_s"],
                                      ops / traced["wall_s"]),
    })
    for cls in IO_CLASSES:
        m[f"io.{cls}.ops_per_op"] = ratio(traced["io"][cls]["ops"], ops)
    for cls in ("append", "pread"):
        m[f"io.{cls}.bytes_per_op"] = ratio(traced["io"][cls]["bytes"], ops)
    for cls in ("sync", "install", "pread"):
        buckets = traced["io"][cls]["buckets"]
        m[f"io.{cls}.latency_us_p50"] = hist_percentile_us(buckets, 50)
        m[f"io.{cls}.latency_us_p99"] = hist_percentile_us(buckets, 99)
    return m


# ------------------------------------------------------------- the runs

def build():
    """Configures once, then builds bench_e2e (a no-op when current).
    Exits non-zero without a result when the sources are not there."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: the library sources (CMakeLists.txt, src/) are "
                 "missing; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, check=False,
                              timeout=850).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, traced, corrupt=False):
    """Runs bench_e2e once; returns (raw result, trace path or None)."""
    scratch = BUILD / "scratch" / f"{workload}-{os.getpid()}"
    trace = BUILD / "traces" / f"{workload}-s{seed}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--dir", str(scratch)]
    if traced:
        trace.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced", "--trace-out", str(trace)]
    if corrupt:
        cmd.append("--corrupt-expected")
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              check=False, timeout=BENCH_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("E2E ")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: bench_e2e failed (exit {proc.returncode})")
    return json.loads(lines[-1][4:]), (trace if traced else None)


def measure(workload, seed, seconds, traced, corrupt=False):
    """One benchmark run: the result object run.py prints last."""
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        sys.exit(f"run.py: unknown workload {workload!r}; one of {names}")
    declared = bench["per_layer" if traced else "end_to_end"]
    raw, trace = run_bench(workload, seed, seconds, traced, corrupt)
    attempted = sum(p["attempted"] for p in raw["phases"])
    failed = sum(p["failed"] for p in raw["phases"])
    for p in raw["phases"]:
        for err in p["errors"]:
            print(f"FAILED: {err}", file=sys.stderr)
    if traced:
        attempted += 1
        if not check_trace(trace):
            failed += 1
        with open(trace, encoding="utf-8") as f:
            values = per_layer_metrics(raw, json.load(f)["traceEvents"])
    else:
        values = end_to_end_metrics(raw)
    if set(values) != {m["name"] for m in declared}:
        sys.exit("run.py: computed metrics differ from BENCHMARK.json: "
                 f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    for m in declared:
        v = values[m["name"]]
        bad = not math.isfinite(v) or (not traced and v <= 0)
        if bad:
            print(f"FAILED: metric {m['name']} = {v}", file=sys.stderr)
            attempted += 1
            failed += 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, raw


def deterministic_counts(raw):
    """The accounting window's counts: must repeat exactly for one seed.
    Peak RSS is read there too but is a measurement, not a count."""
    window = dict(raw["phases"][0]["window"])
    del window["peak_rss_kb"]
    return window


def summarize(runs):
    """metric -> (q1, median, q3, spread) over a list of metric dicts."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, med, q3 = quartiles(values)
        out[name] = (q1, med, q3, spread(values))
    return out


def print_summary(workload, runs, units):
    print(f"\n{workload}  ({len(runs)} runs)")
    print(f"  {'metric':34} {'q1':>14} {'median':>14} {'q3':>14} "
          f"{'spread':>7}")
    for name, (q1, med, q3, sp) in summarize(runs).items():
        print(f"  {name:34} {q1:14.6g} {med:14.6g} {q3:14.6g} {sp:7.2%}"
              f"  {units[name]}")


def cmd_repeat(args):
    bench = load_benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    build()
    runs, counts = [], []
    for _ in range(args.repeat):
        result, raw = measure(args.workload, args.seed, args.seconds,
                              args.trace)
        if not result["correct"]:
            sys.exit("run.py: a repeat failed its correctness gates")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        counts.append(deterministic_counts(raw))
    print_summary(args.workload, runs, units)
    drift = [c for c in counts if c != counts[0]]
    print("deterministic counts: " + ("identical across repeats" if not drift
                                      else "DIFFER across repeats"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({args.workload: {"seed": args.seed, "runs": runs}}, f,
                      indent=1)
    return 1 if drift else 0


def cmd_calibrate(args):
    bench = load_benchmark()
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in bench["workloads"]])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    build()
    results, worst = {}, {}
    for workload in workloads:
        runs = []
        for i in range(CALIBRATION_RUNS):
            result, _ = measure(workload, args.seed + i, args.seconds, False)
            if not result["correct"]:
                sys.exit(f"run.py: {workload} failed its correctness gates")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        results[workload] = {"seed": args.seed, "runs": runs}
        print_summary(workload, runs, units)
        for name, (_, _, _, sp) in summarize(runs).items():
            worst[name] = max(worst.get(name, 0.0), sp)
    print(f"\n{'metric':26} {'worst spread':>12} {'suggested bound':>16}")
    for m in bench["end_to_end"]:
        sp = worst[m["name"]]
        setup = m["name"] == "setup_s"  # gated on its median only
        floor = COUNTED_FLOOR if m["name"] in COUNTED else MEASURED_FLOOR
        bound = MAX_BOUND if setup else min(MAX_BOUND, max(floor, 3 * sp))
        flag = ("  DEMOTE to per-layer" if 3 * sp > MAX_BOUND and not setup
                else "")
        print(f"{m['name']:26} {sp:12.2%} {bound:16.2f}  "
              f"(declared {m['bound']}){flag}")
    out = args.out or BUILD / "calibration.json"
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    print(f"calibration runs written to {out}")
    return 0


def compare_metric(a, b, better, bound):
    """Verdict for one metric over paired run lists A (parent) and B
    (change): 'gain' needs B to win >= 90% of pairs and the medians to
    differ by more than A's interquartile distance; 'regression' is a
    median worse by more than the bound; 'unresolved' is A's own spread
    above the bound unless every B run beats every A run. Returns the
    verdict and B's median relative to A's."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1_a, _, q3_a = quartiles(a)
    change = ratio(med_b - med_a, med_a)
    worse = sign * change
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3_a - q1_a:
        return "gain", change
    if worse > bound:
        return "regression", change
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > bound and not all_better:
        return "unresolved", change
    return "same", change


def cmd_compare(path_a, path_b):
    bench = load_benchmark()
    with open(path_a, encoding="utf-8") as f:
        data_a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        data_b = json.load(f)
    regressions = 0
    for workload in sorted(set(data_a) & set(data_b)):
        runs_a, runs_b = data_a[workload]["runs"], data_b[workload]["runs"]
        cells = []
        for m in bench["end_to_end"]:
            verdict, change = compare_metric([r[m["name"]] for r in runs_a],
                                             [r[m["name"]] for r in runs_b],
                                             m["better"], m["bound"])
            regressions += verdict == "regression"
            cells.append(f"{m['name']}={verdict}({change:+.1%})")
        print(f"{workload:16} " + " ".join(cells))
    return 1 if regressions else 0


# ------------------------------------------------------------- self-test

def self_test():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    xs = list(range(1, 11))
    expect(percentile(xs, 50) == 5, "p50 of 1..10 is 5")
    expect(percentile(xs, 90) == 9, "p90 of 1..10 is 9")
    expect(percentile(xs, 99) == 10, "p99 of 1..10 is 10")
    expect(percentile(xs, 0) == 1, "p0 is the minimum")
    expect(percentile(list(reversed(xs)), 50) == 5, "percentile sorts")
    expect(percentile([7.0], 90) == 7.0, "one sample")
    expect(hist_percentile_us([0, 3, 1] + [0] * 29, 50) == 2.0,
           "histogram p50 is its bucket's upper edge")
    expect(hist_percentile_us([0, 3, 1] + [0] * 29, 99) == 4.0,
           "histogram p99 lands in the last occupied bucket")

    # Caller thread: a ckpt.call wrapper over checkpoint > snapshot, with
    # a wal.append instant; the encode stage runs on thread 2.
    def ev(ph, name, ts, tid=1, cat="ckpt", **args):
        return {"ph": ph, "name": name, "cat": cat, "ts": ts, "tid": tid,
                "pid": 1, "args": args}
    events = [
        ev("i", "timed.begin", 0, cat="bench"),
        ev("B", "ckpt.call", 0, span=1),
        ev("B", "checkpoint", 2, span=2),
        ev("B", "snapshot", 3, span=3, parent=2),
        ev("E", "snapshot", 5),
        ev("E", "checkpoint", 6),
        ev("i", "wal.append", 7, cat="wal"),
        ev("E", "ckpt.call", 10),
        ev("B", "encode", 8, tid=2, span=4, parent=2),
        ev("E", "encode", 12, tid=2),
    ]
    spans, _ = fold(events)
    by = {s["name"]: s for s in spans}
    expect(by["ckpt.call"]["self"] == 6, "wrapper self = 10 - 4 covered")
    expect(by["checkpoint"]["self"] == 2, "checkpoint self = 4 - 2")
    expect(by["encode"]["self"] == 4, "cross-thread child keeps its time")
    expect("wal.append" in by["ckpt.call"]["marks"], "instant marks span")
    m = trace_metrics(events, timed_ops=1)
    expect(math.isclose(m["self.unattributed_ms_per_op"], 0.006),
           "unattributed residual per op")
    expect(math.isclose(m["self.ckpt_ms_per_op"], 0.004),
           "in-program ckpt self time per op")
    expect(math.isclose(m["self.background_ms_per_op"], 0.004),
           "background self time per op")
    expect(math.isclose(m["ckpt.encode_wait_ms_p50"], 0.003),
           "encode wait = encode begin - snapshot end")
    expect(math.isclose(m["wal.append_ms_p50"], 0.010),
           "wal call = ckpt.call holding a wal.append")

    a = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7]
    expect(compare_metric(a, [x * 0.9 for x in a], "lower", 0.05)[0]
           == "gain", "10% faster on every pair is a gain")
    expect(compare_metric(a, [x * 1.1 for x in a], "lower", 0.05)[0]
           == "regression", "10% slower past a 5% bound is a regression")
    expect(compare_metric(a, list(a), "lower", 0.05)[0] == "same",
           "identical runs are the same")
    expect(compare_metric(a, [x * 0.9 for x in a], "higher", 0.05)[0]
           == "regression", "direction is honoured")
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    expect(compare_metric(noisy, [x * 1.02 for x in noisy], "lower", 0.05)[0]
           == "unresolved", "spread wider than the bound is unresolved")

    # The gates must fail a run whose expected state is wrong.
    build()
    result, _ = measure("wal-journal", DEFAULT_SEED, 0.5, False, corrupt=True)
    expect(not result["correct"] and result["failed"] > 0,
           "a deliberately wrong expected state fails the run")

    for f in failures:
        print(f"FAIL {f}")
    print("self-test: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


# ------------------------------------------------------------------ main

def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        return cmd_compare(sys.argv[2], sys.argv[3])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    args.trace = bool(args.trace)
    if args.self_test:
        return self_test()
    if args.calibrate:
        return cmd_calibrate(args)
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat:
        return cmd_repeat(args)
    build()
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:34} {m['value']:16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
