#!/usr/bin/env python3
"""Benchmark for the `detcirc` command.

One closed-loop client on one thread: each op is one `detcirc` verb run
in-process through `cli.main([...])` on a generated file, parse included,
and the next op starts when the previous one has answered.  Stdout of
every op is captured and checked against a reference computed by another
route (see workloads.py).

    python3 detbench/run.py --workload eval-exact --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
alternates untraced and traced passes over the same ops and reports the
per-layer metrics: self times, shape counts, garbage-collector pauses,
and the traced/untraced wall ratio.  Spans of a traced run are written to
.detbench/spans-<workload>-<seed>.jsonl.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".detbench")

SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
MAX_MEASURE_S = 120.0  # stop after the pass that crosses this, whatever the counts
CAL_EVERY_S = 0.04
CAL_NEIGHBOURS = 11  # kernel runs per local speed estimate, about 0.5 s of them
CAL_REF_S = 0.002  # times are reported for a machine where the kernel takes 2 ms
PCT_BAND = 0.05  # a percentile is the mean of the ops ranked within this of it


def _import_program() -> float:
    """Import detcircuits from this checkout's src/; return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "detcircuits", "__init__.py")):
        raise ImportError(f"no detcircuits package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import detcircuits.cli  # noqa: F401
    elapsed = perf_counter() - t0
    import detcircuits
    if os.path.dirname(os.path.dirname(os.path.abspath(detcircuits.__file__))) != SRC:
        raise ImportError(f"detcircuits imported from {detcircuits.__file__}, not {SRC}")
    return elapsed


def run_op(cli, op) -> tuple[bool, float]:
    """Run one verb in-process; return (output correct, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            code = None
        dt = perf_counter() - t0
    return code == 0 and op.check(out.getvalue()), dt


def _percentile(sorted_values: list[float], q: float) -> float:
    """Mean of the values ranked within PCT_BAND of the q-th quantile.

    A single nearest-rank op moves with the seed's draw of that one op;
    the band's mean is the same percentile, carried by about a tenth of
    the ops.
    """
    n = len(sorted_values)
    lo = max(0, math.ceil(n * (q - PCT_BAND)) - 1)
    hi = min(n, math.ceil(n * (q + PCT_BAND)))
    return statistics.mean(sorted_values[lo:hi])


def calibration_kernel():
    """Fixed pure-Python work shaped like the program's two hot loops.

    A 7x7 product of Fractions (the interpreter, integer and gcd work of
    the exact paths) and a 26x26 complex elimination (the float paths),
    about 1.1 and 0.9 ms on an idle core of an Intel Xeon under Python
    3.11.  It calls none of the program's code, so a change to the program
    cannot move it.  Contention from other tenants slows the two halves by
    different amounts, as it does the exact and the complex ops.
    """
    a = [[Fraction(i * 7 + j - 20, j + 2) for j in range(7)] for i in range(7)]
    [[sum(a[i][k] * a[k][j] for k in range(7)) for j in range(7)] for i in range(7)]
    n = 26
    m = [[complex((i * 7 + j * 3) % 11 - 5, (i * 5 + j) % 9 - 4) / 9 + (n if i == j else 0)
          for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            row, piv = m[i], m[k]
            for j in range(k + 1, n):
                row[j] -= f * piv[j]


class Calibrator:
    """Times the calibration kernel between units of work.

    On cores shared with other tenants the speed drifts by up to 2x within
    seconds.  A change to the program moves its ops and not the kernel, so
    dividing a time by the kernel's time around it, over CAL_REF_S, gives
    the time on a machine where the kernel takes 2 ms (about an idle core
    here) and still shows the change in full.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.secs: list[float] = []
        self.last = perf_counter()

    def run(self) -> None:
        t0 = perf_counter()
        calibration_kernel()
        self.last = perf_counter()
        self.starts.append(t0)
        self.secs.append(self.last - t0)

    def tick(self) -> None:
        """Run the kernel if CAL_EVERY_S has gone since it last ran."""
        if perf_counter() - self.last >= CAL_EVERY_S:
            self.run()

    def slowdown(self, t: float | None = None) -> float:
        """Median kernel time over CAL_REF_S: of the CAL_NEIGHBOURS runs
        nearest to time t, or of all runs when t is None."""
        if t is None:
            return statistics.median(self.secs) / CAL_REF_S
        k = min(CAL_NEIGHBOURS, len(self.secs))
        lo = min(max(0, bisect.bisect(self.starts, t) - k // 2), len(self.secs) - k)
        return statistics.median(self.secs[lo:lo + k]) / CAL_REF_S


def setup(workloads, name: str, seed: int, workdir: str, cli, import_s: float):
    """Build the workload SETUP_REPEATS times.

    Return it and the median raw and scaled seconds of import plus one
    build.  The kernel runs between inputs; its own time is taken out, and
    a build's time is divided by the median slowdown during that build.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        cal = Calibrator()
        cal.run()
        t0 = perf_counter()
        wl = workloads.build(name, seed, workdir, cal.tick)
        for op in wl.warmup:
            run_op(cli, op)
        elapsed = import_s + perf_counter() - t0 - sum(cal.secs[1:])
        cal.run()
        raw.append(elapsed)
        scaled.append(elapsed / cal.slowdown())
    return wl, statistics.median(raw), statistics.median(scaled)


def run_pass(cli, ops, cal: Calibrator | None = None,
             tracer=None) -> tuple[list[float], list[bool], list[float]]:
    """Run every op once, in order; return per-op seconds, correctness and end times.

    With `cal`, the calibration kernel ticks after every op.
    """
    lat, ok, ends = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        good, dt = run_op(cli, op)
        lat.append(dt)
        ok.append(good)
        ends.append(perf_counter())
        if cal is not None:
            cal.tick()
    return lat, ok, ends


def end_to_end(cli, wl, seconds: float, setup_raw_s: float, setup_s: float):
    """Whole passes until `seconds` have gone and MIN_PASSES ran.

    Each op's time is divided by the slowdown around it (Calibrator), an
    op's latency is its median over the passes, and percentiles are over
    the distinct ops.  Raw values and the run's median slowdown are
    printed too.
    """
    lats, oks, ends = [], [], []
    cal = Calibrator()
    t0 = perf_counter()
    while len(lats) < MIN_PASSES or perf_counter() - t0 < seconds:
        lat, ok, end = run_pass(cli, wl.ops, cal)
        lats.append(lat)
        oks.append(ok)
        ends.append(end)
        if perf_counter() - t0 >= MAX_MEASURE_S:
            break
    cal.run()
    raw = [statistics.median(xs) for xs in zip(*lats)]
    scaled = [[x / cal.slowdown(t) for x, t in zip(lat, end)]
              for lat, end in zip(lats, ends)]
    per_op = [statistics.median(xs) for xs in zip(*scaled)]
    good = sum(all(xs) for xs in zip(*oks))
    attempted = len(lats) * len(wl.ops)
    failed = attempted - sum(map(sum, oks))
    ranked = sorted(per_op)
    p90 = _percentile(ranked, 0.9)
    report = [
        ("setup_s", setup_s, "s"),
        ("ops_per_s", good / sum(per_op), "1/s"),
        ("op_p50_ms", _percentile(ranked, 0.5) * 1e3, "ms"),
        ("op_p90_ms", p90 * 1e3, "ms"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    ]
    extra = [
        ("fail_ratio", failed / attempted, "-"),
        ("ops", len(per_op), "count"),
        ("ops_beyond_p90", len(ranked) - math.ceil(len(ranked) * 0.9), "count"),
        ("passes", len(lats), "count"),
        ("machine_slowdown", cal.slowdown(), "x"),
        ("calibration_samples", len(cal.secs), "count"),
        ("raw_setup_s", setup_raw_s, "s"),
        ("raw_ops_per_s", good / sum(raw), "1/s"),
        ("raw_op_p50_ms", _percentile(sorted(raw), 0.5) * 1e3, "ms"),
        ("raw_op_p90_ms", _percentile(sorted(raw), 0.9) * 1e3, "ms"),
    ]
    per_verb: dict[str, list[float]] = {}
    sweep: dict[int, list[float]] = {}
    for op, x in zip(wl.ops, per_op):
        per_verb.setdefault(op.verb, []).append(x)
        if op.sweep_depth:
            sweep.setdefault(op.sweep_depth, []).append(x / op.sweep_depth)
    for verb, xs in per_verb.items():
        extra.append((f"{verb}_p50_ms", statistics.median(xs) * 1e3, "ms"))
    for depth, xs in sorted(sweep.items()):
        extra.append((f"eval_ms_per_stack_w8_d{depth}", statistics.median(xs) * 1e3, "ms"))
    return report, extra, attempted, failed


def traced(cli, wl, seconds: float, spans_path: str):
    """Pairs of (untraced pass, traced pass) over the same ops.

    Shape counts and garbage-collector figures come from the first pair
    only, so they repeat exactly for a seed; self times are per-pass means
    over all traced passes.  The overhead ratio compares the sums of the
    ops' median traced and median untraced latencies.
    """
    from tracer import COUNT_UNITS, SPAN_NAMES, Tracer

    gc_stats = {"pause": 0.0, "collections": 0, "t": 0.0}

    def on_gc(phase, info):
        if phase == "start":
            gc_stats["t"] = perf_counter()
        else:
            gc_stats["pause"] += perf_counter() - gc_stats["t"]
            gc_stats["collections"] += 1

    tracers, untraced, traced_lat, oks = [], [], [], []
    gc_pass = None
    t_start = perf_counter()
    while len(tracers) < MIN_TRACE_PAIRS or perf_counter() - t_start < seconds:
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            lat, ok, _ = run_pass(cli, wl.ops)
        finally:
            gc.callbacks.remove(on_gc)
        if gc_pass is None:
            gc_pass = (gc_stats["pause"], gc_stats["collections"])
        untraced.append(lat)
        oks.append(ok)
        tracer = Tracer()
        tracer.install()
        try:
            lat, ok, _ = run_pass(cli, wl.ops, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_lat.append(lat)
        oks.append(ok)
        tracers.append(tracer)
        if perf_counter() - t_start >= MAX_MEASURE_S:
            break

    passes = len(tracers)
    wall_t = sum(map(sum, traced_lat)) / passes
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    for tr in tracers:
        for name, s in tr.self_times().items():
            self_s[name] += s / passes
    counts = tracers[0].counts
    mults = counts["labeled.compose.scalar_mults"]
    useful = counts["labeled.compose.useful_mults"] / mults if mults else 0.0
    overhead = (sum(statistics.median(xs) for xs in zip(*traced_lat))
                / sum(statistics.median(xs) for xs in zip(*untraced)))

    report = [(f"{n}.self_share", s / wall_t, "share") for n, s in self_s.items()]
    report += [(n, v, COUNT_UNITS[n]) for n, v in counts.items()
               if n != "labeled.compose.useful_mults"]
    report += [
        ("labeled.compose.useful_ratio", useful, "ratio"),
        ("gc.pause_s", gc_pass[0], "s"),
        ("gc.collections", gc_pass[1], "count"),
        ("trace.wall_s", wall_t, "s"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]
    extra = [(f"{n}.self_s", s, "s") for n, s in self_s.items()]
    extra.append(("trace.passes", passes, "count"))

    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "[pass, op]", "cover"],
                             "passes": passes}) + "\n")
        for p, tr in enumerate(tracers):
            for span in tr.spans:
                fh.write(json.dumps([*span[:4], [p, span[4]], span[5]]) + "\n")
    attempted = len(oks) * len(wl.ops)
    return report, extra, attempted, attempted - sum(map(sum, oks))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"detbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import detcircuits.cli as cli
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"detbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        wl, setup_raw_s, setup_s = setup(workloads, args.workload, args.seed, workdir,
                                         cli, import_s)
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
            report, extra, attempted, failed = traced(cli, wl, args.seconds, spans)
        else:
            report, extra, attempted, failed = end_to_end(
                cli, wl, args.seconds, setup_raw_s, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value, unit in report + extra:
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in report},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
