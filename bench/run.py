"""vknot benchmark: closed-loop, in-process, one caller.

Run from the root of a checkout:

    python3 bench/run.py --workload tabulate --seed 1 --seconds 25 --trace 0

Inputs come from ``--seed`` only.  One caller drives vknot's public entry
points; the next call starts when the previous one returns.  The run
repeats whole rounds of ops until the timed calls add up to ``--seconds``,
checks every op's output outside the timed region, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` replays a fixed prefix of the rounds, alternately untraced
and under the span tracer, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from itertools import cycle
from time import perf_counter, perf_counter_ns

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10       # op_tail_ms has at least this many samples above it
TAIL_LADDER = (99, 95, 90, 50)
MAX_REPORTED_FAILURES = 3


class Stats:
    """Outcome of a sequence of timed ops, grouped in rounds."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.round_rates: list[float] = []   # items per second of each round
        self.items = 0
        self.attempted = 0
        self.failed = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy_s if self.items else 0.0

    def tail(self, percentile: float) -> tuple[float, float, int]:
        """(latency in ms, percentile, samples beyond) by nearest rank, at the
        highest of ``percentile`` and the lower TAIL_LADDER steps that
        leaves at least TAIL_BEYOND samples above it."""
        ordered = sorted(self.latencies_ns)
        n = len(ordered)
        for pct in [percentile] + [p for p in TAIL_LADDER if p < percentile]:
            rank = math.ceil(pct / 100 * n)
            if n - rank >= TAIL_BEYOND:
                return ordered[rank - 1] / 1e6, pct, n - rank
        return ordered[-1] / 1e6, 100.0, 0


def run_op(op, stats: Stats, tracer=None) -> None:
    """Time one op, then check its output; failures are counted, not raised."""
    stats.attempted += 1
    raised = None
    if tracer is not None:
        tracer.enabled = True
        root = tracer.open("bench.op")
    start = perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:   # the loop keeps going; the op counts as failed
        raised = exc
    stats.latencies_ns.append(perf_counter_ns() - start)
    if tracer is not None:
        tracer.close(root)
        tracer.enabled = False
        tracer.fold()
    if raised is None:
        try:
            op.check(result)
        except Exception as exc:
            raised = exc
    if raised is None:
        stats.items += op.items
        return
    stats.failed += 1
    if stats.failed <= MAX_REPORTED_FAILURES:
        traceback.print_exception(raised, file=sys.stderr)


def run_rounds(rounds, seconds: float, stats: Stats, tracer=None) -> Stats:
    """Run whole rounds, cycling the pool, until the timed calls reach
    ``seconds``; ``seconds=0`` runs every round once."""
    source = cycle(rounds) if seconds > 0 else iter(rounds)
    for ops in source:
        items, done = stats.items, len(stats.latencies_ns)
        for op in ops:
            run_op(op, stats, tracer)
        round_ns = sum(stats.latencies_ns[done:])
        stats.round_rates.append((stats.items - items) * 1e9 / round_ns)
        if seconds > 0 and stats.busy_s >= seconds:
            break
    return stats


def set_up(workload, seed: int, workdir: str):
    """Import vknot afresh, generate the inputs and run one warm-up op."""
    rounds = workload.build(workloads.Program(SRC), seed, workdir,
                            workload.pool_rounds)
    warm = Stats()
    run_op(rounds[0][0], warm)
    if warm.failed:
        raise SystemExit("warm-up op failed")
    return rounds


def end_to_end(stats: Stats, setup_s: float, tail_percentile: float):
    """Info for the log line, and the end-to-end metrics.  ``items_per_s``
    is the median over rounds, so a burst of load on the machine moves it
    less than it moves the mean."""
    tail_ms, tail_pct, beyond = stats.tail(tail_percentile)
    info = {"ops": stats.attempted, "items": stats.items,
            "rounds": len(stats.round_rates),
            "failed_ratio": stats.failed / stats.attempted,
            "items_per_s_mean": stats.items_per_s,
            "op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond,
            "timed_s": stats.busy_s}
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(stats.round_rates), "1/s"),
        "op_p50_ms": (statistics.median(stats.latencies_ns) / 1e6, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return info, metrics


# per-layer metric -> (kind, span or counter name, unit); per item unless
# the kind is a ratio
PER_LAYER = {
    **{f"{layer}.self_ms": ("module_ms", layer, "ms/item")
       for layer in spans.LAYERS},
    "gauss_code.canonicalize.self_ms": ("self_ms", "gauss_code.canonicalize", "ms/item"),
    "gauss_code.canonicalize.calls": ("calls", "gauss_code.canonicalize", "calls/item"),
    "gauss_code.canonicalize.search_space":
        ("counter", "gauss_code.canonicalize.search_space", "cands/item"),
    "gauss_code.parse_signed.self_ms": ("self_ms", "gauss_code.parse_signed", "ms/item"),
    "coloring.lambda_coloring.calls": ("calls", "coloring.lambda_coloring", "calls/item"),
    "invariant.crossing_weights.calls": ("calls", "invariant.crossing_weights", "calls/item"),
    "invariant.crossing_weights.self_ms":
        ("self_ms", "invariant.crossing_weights", "ms/item"),
    "gauss_code.resolutions.codes": ("counter", "gauss_code.resolutions.codes", "codes/item"),
    "invariant.flat_nontriviality_certificate.self_ms":
        ("self_ms", "invariant.flat_nontriviality_certificate", "ms/item"),
    "moves.find_move_sites.self_ms": ("self_ms", "moves.find_move_sites", "ms/item"),
    "moves.find_move_sites.sites": ("counter", "moves.find_move_sites.sites", "sites/item"),
    "moves.apply_move.calls": ("calls", "moves.apply_move", "calls/item"),
    "moves.sites_found_per_apply":
        ("ratio", ("moves.find_move_sites.sites", "moves.apply_move"), "sites/apply"),
    "biquandle.search_affine.tuples":
        ("counter", "biquandle.search_affine.tuples", "tuples/item"),
    "biquandle.search_affine.found_ratio":
        ("ratio", ("biquandle.search_affine.found", "biquandle.search_affine.tuples"),
         "found/tuple"),
    "biquandle.enumerate_colorings_fast.self_ms":
        ("self_ms", "biquandle.enumerate_colorings_fast", "ms/item"),
    "biquandle.enumerate_colorings_fast.colorings":
        ("counter", "biquandle.enumerate_colorings_fast.colorings", "colorings/item"),
    "cli.execute.self_ms": ("self_ms", "cli.execute", "ms/item"),
    "cli.execute.output_bytes": ("counter", "cli.execute.output_bytes", "bytes/item"),
}


def per_layer(tracer, counts, traced: Stats, untraced: Stats) -> dict:
    """Per-item layer metrics.  Times come from every traced pass; counts
    from the first, so two runs with one seed report identical counts."""
    calls, counters, items_first = counts

    def tally(name):   # a counter, or the call count of a span
        return counters.get(name, calls.get(name, 0))

    metrics = {}
    for metric, (kind, key, unit) in PER_LAYER.items():
        if kind == "module_ms":
            ns = sum(v for k, v in tracer.self_ns.items() if k.startswith(key + "."))
            value = ns / 1e6 / traced.items
        elif kind == "self_ms":
            value = tracer.self_ns.get(key, 0) / 1e6 / traced.items
        elif kind == "calls":
            value = calls.get(key, 0) / items_first
        elif kind == "counter":
            value = counters.get(key, 0) / items_first
        else:
            num, den = (tally(k) for k in key)
            value = num / den if den else 0.0
        metrics[metric] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced.items_per_s / untraced.items_per_s,
                                       "ratio")
    return metrics


def traced_run(rounds, seconds: float):
    """Alternate untraced and traced passes over a fixed prefix of rounds
    until ``seconds`` of timed calls have run (at least one pair).  The
    wrappers are installed only for the traced passes."""
    untraced, traced = Stats(), Stats()
    tracer = spans.Tracer()
    counts = None
    while counts is None or untraced.busy_s + traced.busy_s < seconds:
        run_rounds(rounds, 0, untraced)
        with tracer:
            run_rounds(rounds, 0, traced, tracer)
        if counts is None:
            counts = (dict(tracer.calls), dict(tracer.counters), traced.items)
    return untraced, traced, per_layer(tracer, counts, traced, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vknot", "__init__.py")):
        print(f"no vknot sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            rounds = set_up(workload, args.seed, workdir)
            setups.append(perf_counter() - start)
        setup_s = statistics.median(setups)
        if args.trace:
            untraced, traced, metrics = traced_run(
                rounds[:workload.traced_rounds], args.seconds)
            parts = (untraced, traced)
            info = {"traced_items": traced.items, "traced_s": traced.busy_s,
                    "untraced_s": untraced.busy_s}
        else:
            parts = (run_rounds(rounds, args.seconds, Stats()),)
            info, metrics = end_to_end(parts[0], setup_s, workload.tail_percentile)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                python=platform.python_version(), nproc=os.cpu_count(),
                setup_repeats_s=setups)
    print(json.dumps(info))
    failed = sum(part.failed for part in parts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(part.attempted for part in parts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
