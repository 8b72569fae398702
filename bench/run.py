"""tricurves benchmark: end-to-end metrics per workload, per-layer spans.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-all --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Workloads run one at a time in this process, one client, closed loop, no
threads or worker processes.  ``--trace 0`` times whole passes and ops, as
many passes as last about ``--seconds`` on the reference host (a fixed
number for given ``--seconds``, so a seed always gives the same ops), and
prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of passes with every layer wrapped in spans and prints the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units printed are checked against ``BENCHMARK.json`` at the
repository root.  See ``bench/README.md`` for the workloads, the metrics
and the calibration of times.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from clock import Recorder, timed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("kernel", "linalg", "centers", "curves", "scenarios", "render", "cli")
SETUP_REPEATS = 5
MIN_PASSES = 3
# op_p90_ms needs ten samples beyond the 90th percentile
MIN_OPS = 100
# stop measuring at this age of the process, however many passes are left
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CALLS_AND_SELF = (
    "kernel.Metric", "kernel.canonical_ints",
    "linalg.nullspace_vector", "linalg.rank_profile_int", "linalg.det_int",
    "centers.eval_center", "centers.derived_triangle", "centers.eval_center_in",
    "centers.isogonal_in", "centers.eval_expr", "centers.parse_center",
    "centers.random_triangle",
    "curves.conic_through", "curves.cubic_through", "curves.transform_conic",
    "curves.transform_cubic", "curves.line_component", "curves.hessian",
    "curves.pivotal_membership",
    "scenarios.run_scenario", "render.trace_segments", "cli.report_json",
)
PER_LAYER = tuple(
    (f"{fn}.{what}", unit) for fn in CALLS_AND_SELF
    for what, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("kernel.Metric.rot.calls", "count"),
    ("kernel.bits_max", "bits"),
    ("centers.eval_center.distinct_ratio", "ratio"),
    ("centers.derived_triangle.distinct_ratio", "ratio"),
    ("curves.fit.distinct_ratio", "ratio"),
    ("curves.fit.degenerate_ratio", "ratio"),
    ("scenarios.setup_s", "s"),
    ("scenarios.claims_s", "s"),
    ("scenarios.skipped", "count"),
    ("scenarios.slowest_ms", "ms"),
    ("scenarios.build_figure.self_s", "s"),
    ("render.segments", "count"),
    ("render.rows", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def load_modules() -> SimpleNamespace:
    """Import tricurves afresh (every cached tricurves module is dropped)."""
    for name in [n for n in sys.modules
                 if n == "tricurves" or n.startswith("tricurves.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"tricurves.{name}") for name in MODULES})


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


class Tally:
    """Attempted/failed/wrong op counts, layer counts and failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.counts = Counter()
        self.notes: list[str] = []

    def add(self, checked) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.wrong += checked.wrong
        self.counts.update(checked.counts)
        self.notes.extend(checked.notes)


def set_up(cls, seed: int):
    """Imports, inputs of pass 0 and one untimed warm-up op, timed together."""

    def once():
        mods = load_modules()
        workload = cls(mods, seed, OUT_DIR)
        inputs = workload.inputs(0)
        workload.warmup(inputs)
        return mods, workload, inputs

    times = []
    for _ in range(SETUP_REPEATS):
        (mods, workload, inputs), seconds = timed(once)
        times.append(seconds)
    return statistics.median(times), mods, workload, inputs


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile, or None with fewer than 10 samples beyond it."""
    n = len(sorted_values)
    rank = max(1, (pct * n + 99) // 100)
    if n - rank < 10:
        return None
    return sorted_values[rank - 1]


def run_pass(workload, inputs, per_op: bool):
    """(outputs, Recorder) of one pass over ``inputs``."""
    rec = Recorder(per_op)
    out = workload.run(inputs, rec)
    rec.finish()
    return out, rec


def pass_count(workload, seconds: float) -> int:
    """Passes of a run: about ``seconds`` of it on the reference host.

    The count depends on ``seconds`` alone, not on the clock, so a seed
    always gives the same ops and the same failures, however fast the host.
    """
    return max(MIN_PASSES, math.ceil(seconds * workload.passes_per_s))


def measure(workload, inputs0, seconds: float, tally: Tally) -> dict:
    """``pass_count`` passes, then more until ``MIN_OPS`` ops completed.

    Times are calibrated (clock.py).
    """
    lat: list[float] = []
    walls: list[float] = []
    rates: list[float] = []
    raw_walls: list[float] = []
    passes = pass_count(workload, seconds)
    k = 0
    while True:
        inputs = inputs0 if k == 0 else workload.inputs(k)
        out, rec = run_pass(workload, inputs, workload.per_op)
        walls.append(rec.wall)
        rates.append(len(rec.lat) / rec.wall)
        raw_walls.append(rec.raw_wall)
        lat.extend(rec.lat)
        tally.add(workload.check(k, inputs, out))
        k += 1
        if k >= passes and len(lat) >= MIN_OPS:
            break
        if time.perf_counter() - PROCESS_START >= HARD_LIMIT_S:
            tally.notes.append(f"stopped at the {HARD_LIMIT_S:.0f} s limit")
            break
    lat.sort()
    metrics = {
        "wall_s": statistics.median(walls),
        "throughput_per_s": statistics.median(rates),
        "op_p50_ms": 1000 * statistics.median(lat),
    }
    p90 = percentile(lat, 90)
    if p90 is not None:
        metrics["op_p90_ms"] = 1000 * p90
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.notes.insert(0, f"{k} passes, {len(lat)} completed-op latency samples; "
                          f"raw median pass {statistics.median(raw_walls):.4f} s")
    return metrics


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: tracing.Tracer, counts: Counter, bits: list[int],
                  overheads: list[float], factor: float) -> dict:
    """Per-layer metrics; seconds are calibrated by ``factor``."""
    m = {}
    for fn in CALLS_AND_SELF:
        m[f"{fn}.calls"] = tr.calls[fn]
        m[f"{fn}.self_s"] = tr.self_s[fn] * factor
    m["kernel.Metric.rot.calls"] = tr.calls["kernel.Metric.rot"]
    m["kernel.bits_max"] = max(bits)
    for fn in ("centers.eval_center", "centers.derived_triangle"):
        m[f"{fn}.distinct_ratio"] = _ratio(tr.distinct[fn], tr.calls[fn])
    fits = ("curves.conic_through", "curves.cubic_through")
    attempted = sum(tr.calls[fn] for fn in fits)
    m["curves.fit.distinct_ratio"] = _ratio(
        sum(tr.distinct[fn] for fn in fits), attempted)
    m["curves.fit.degenerate_ratio"] = _ratio(
        sum(tr.errors[(fn, "DegeneratePointSet")] for fn in fits), attempted)
    m["scenarios.setup_s"] = tr.total_s["scenarios.setup"] * factor
    m["scenarios.claims_s"] = tr.total_s["scenarios.claims"] * factor
    m["scenarios.skipped"] = counts["scenarios.skipped"]
    m["scenarios.slowest_ms"] = 1000 * tr.max_s["scenarios.run_scenario"] * factor
    m["scenarios.build_figure.self_s"] = tr.self_s["scenarios.build_figure"] * factor
    m["render.segments"] = tr.returned["render.trace_segments"]
    m["render.rows"] = counts["render.rows"]
    m["cli.main.self_s"] = tr.self_s["cli.main"] * factor
    m["trace.overhead_s"] = statistics.median(overheads)
    return m


def traced_run(workload, mods, inputs0, seed: int, tally: Tally) -> dict:
    """A fixed number of passes, each run untraced and then traced.

    The call counts repeat exactly for a given seed; pass 0 is traced once
    more at the end and its counts and bit high water are compared.
    """
    tracer = tracing.Tracer()
    tracing.install(tracer, mods)
    kernel = mods.kernel
    layer_counts = Counter()
    overheads, bits, factors = [], [], []
    first_calls = None

    def traced_pass(inputs):
        # calibration runs only at the ends of the pass, outside every span
        kernel.reset_bit_high_water()
        tracer.active = True
        try:
            out, rec = run_pass(workload, inputs, per_op=False)
        finally:
            tracer.active = False
        tracer.end_pass()
        return out, rec, kernel.bit_high_water()

    try:
        for k in range(workload.trace_passes):
            inputs = inputs0 if k == 0 else workload.inputs(k)
            out, untraced = run_pass(workload, inputs, per_op=False)
            tally.add(workload.check(k, inputs, out))
            out, traced, high = traced_pass(inputs)
            checked = workload.check(k, inputs, out)
            tally.add(checked)
            layer_counts.update(checked.counts)
            overheads.append(traced.wall - untraced.wall)
            factors.append(traced.wall / traced.raw_wall)
            bits.append(high)
            if k == 0:
                first_calls = Counter(tracer.calls)
        metrics = layer_metrics(tracer, layer_counts, bits, overheads,
                                statistics.median(factors))
        spans = tracer.write_spans(OUT_DIR / f"spans-{workload.name}-{seed}.tsv")
        before = Counter(tracer.calls)
        out, _, high = traced_pass(inputs0)
        tally.add(workload.check(0, inputs0, out))
    finally:
        tracer.restore()
    repeat_calls = Counter(tracer.calls)
    repeat_calls.subtract(before)
    if +repeat_calls != first_calls or high != bits[0]:
        tally.failed += 1
        tally.wrong += 1
        tally.notes.append("steadiness: a repeated traced pass gave other call "
                           "counts or another bit high water")
    if hasattr(workload, "steady_check"):
        tally.add(workload.steady_check())
    tally.notes.insert(0, f"{workload.trace_passes} traced passes, {spans} spans "
                          f"written; tracing overhead per pass "
                          f"{metrics['trace.overhead_s']:.4f} s (median)")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    cls = WORKLOADS[name]
    setup_s, mods, workload, inputs0 = set_up(cls, seed)
    tally = Tally()
    if trace:
        metrics = traced_run(workload, mods, inputs0, seed, tally)
    else:
        metrics = {"setup_s": setup_s, **measure(workload, inputs0, seconds, tally)}
    if hasattr(workload, "report_sha256"):
        sha = workload.report_sha256 or "none (the command aborted)"
        tally.notes.append(f"report sha256 {sha} (elapsed_ms stripped, "
                           f"trials {workload.trials}, seed {seed}) "
                           f"at commit {git_commit()}")
    return metrics, tally


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_workload(name: str, seed: int, trace: int, spec: dict,
                   metrics: dict, tally: Tally) -> None:
    print(f"== {name} (seed {seed}, trace {trace}) ==")
    notes = Counter(tally.notes)
    for note, times in list(notes.items())[:12]:
        print(f"  {note}" + (f"  (x{times})" if times > 1 else ""))
    if len(notes) > 12:
        print(f"  ... {len(notes) - 12} more distinct notes")
    for count, value in sorted(tally.counts.items()):
        print(f"  count {count}: {value}")
    for metric, unit in spec.items():
        value = metrics.get(metric)
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {metric:44s} {shown} {unit}")
    print(f"  {'fail_ratio':44s} {_ratio(tally.failed, tally.attempted):.6g} "
          f"({tally.failed} failed, {tally.wrong} of them wrong, "
          f"/ {tally.attempted} attempted)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tricurves" / "__init__.py").is_file():
        print(f"bench: no tricurves package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        declared = declared_metrics()[args.trace]
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec = dict(PER_LAYER if args.trace else END_TO_END)
    if declared != spec:
        print("bench: metrics in BENCHMARK.json differ from the ones this "
              "benchmark prints", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        metrics, tally = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = (metrics, tally)
        print_workload(name, args.seed, args.trace, spec, metrics, tally)

    if len(names) == 1:
        metrics, tally = results[names[0]]
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in spec.items() if name in metrics}
    else:
        out = {f"{w}.{name}": {"value": m[name], "unit": unit}
               for w, (m, _) in results.items()
               for name, unit in spec.items() if name in m}
    attempted = sum(t.attempted for _, t in results.values())
    failed = sum(t.failed for _, t in results.values())
    wrong = sum(t.wrong for _, t in results.values())
    complete = all(len(m) == len(spec) for m, _ in results.values())
    print(json.dumps({"correct": wrong == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
