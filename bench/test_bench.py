"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import inspect
import os
import random
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(run.SRC)


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 100] -> a [10, 60] -> c [20, 30], c [35, 45]
    #               -> b [70, 90]
    tree = [
        ("root", 0, 100, -1),
        ("a", 10, 60, 0),
        ("c", 20, 30, 1),
        ("c", 35, 45, 1),
        ("b", 70, 90, 0),
    ]
    assert spans.self_times(tree) == {"root": 30, "a": 30, "c": 20, "b": 20}
    assert sum(spans.self_times(tree).values()) == 100


@pytest.mark.parametrize("make", [
    lambda rng: inputs.knot_code(rng, 12),
    lambda rng: inputs.link_code(rng, 6, 3),
    lambda rng: inputs.flat_knot(rng, 8),
    lambda rng: inputs.scramble(rng, inputs.link_code(rng, 5, 2)),
])
def test_generators_are_deterministic_per_seed(make):
    def draw(seed):
        rng = random.Random(seed)
        return [inputs.to_text(make(rng)) for _ in range(20)]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_generated_codes_are_valid_and_include_empty_components(prog):
    rng = random.Random(3)
    gc = prog.gauss_code
    empties = 0
    for _ in range(200):
        code = inputs.link_code(rng, 4, 3)
        empties += sum(1 for comp in code if not comp)
        text = inputs.to_text(code)
        assert gc.serialize(gc.parse_signed(text)) == text
        flat = inputs.forget(code)
        assert inputs.to_text(flat) == gc.serialize(
            gc.forget(gc.parse_signed(text)))
        canonical = gc.serialize(gc.canonicalize(gc.parse_signed(text)))
        assert inputs.to_text(inputs.canonical(code)) == canonical
        scrambled = inputs.to_text(inputs.scramble(rng, code))
        assert gc.serialize(gc.canonicalize(gc.parse_signed(scrambled))) == canonical
    assert empties > 0


def test_workload_rounds_are_deterministic(prog, tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        def inputs_of(seed):
            rounds = workload.build(prog, seed, str(tmp_path), 2)
            return [[(op.call.__defaults__, op.check.__defaults__) for op in ops]
                    for ops in rounds]
        assert inputs_of(5) == inputs_of(5), name
        assert inputs_of(5) != inputs_of(6), name


def _bindings():
    """Every function or method object reachable from vknot's modules and
    the classes they define, by (owner, attribute)."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "vknot" or name.startswith("vknot."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if inspect.isclass(value):
                    for mattr, raw in vars(value).items():
                        out[(name, attr, mattr)] = raw
    return out


def test_tracer_restores_every_patched_function(prog):
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert prog.moves.canonicalize is not before[("vknot.moves", "canonicalize")]
        assert prog.gauss_code.canonicalize is prog.moves.canonicalize
        assert prog.vknot.canonicalize is prog.moves.canonicalize
        tracer.enabled = True
        str(prog.vknot.affine_index_polynomial(
            prog.gauss_code.parse_signed("O1+ O2+ U1+ U2+")))
        tracer.enabled = False
        tracer.fold()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert tracer.calls["invariant.affine_index_polynomial"] == 1
    assert tracer.calls["laurent.LaurentPolynomial.__str__"] == 1
    assert tracer.calls["gauss_code.flat_role"] > 0


def test_tracer_restores_after_an_exception(prog):
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_traced_counts_repeat_for_one_seed(prog, tmp_path):
    def counts():
        rounds = workloads.links_rounds(prog, 11, str(tmp_path), 1)
        _untraced, _traced, metrics = run.traced_run(rounds, 0)
        return {k: v for k, (v, unit) in metrics.items()
                if not unit.startswith("ms") and k != "trace.overhead_ratio"}
    first = counts()
    assert first == counts()
    assert first["gauss_code.canonicalize.calls"] == 1.0
    assert first["gauss_code.canonicalize.search_space"] > 0


def test_corrupted_result_is_counted_as_failed(prog, tmp_path):
    rounds = workloads.tabulate_rounds(prog, 2, str(tmp_path), 2)
    good, bad = rounds[0][0], rounds[1][0]

    def corrupted():
        rc, out = bad.call()
        return rc, out.replace('"polynomial": "', '"polynomial": "1 + ', 1)

    bad = workloads.Op(bad.items, corrupted, bad.check)
    stats = run.run_rounds([[good], [bad]], 0, run.Stats())
    assert (stats.attempted, stats.failed) == (2, 1)
    assert stats.items == good.items
    info, _metrics = run.end_to_end(stats, 0.0, 95)
    assert info["failed_ratio"] == 0.5


def test_a_raising_op_is_counted_as_failed():
    def boom():
        raise ValueError("program error")

    stats = run.run_rounds([[workloads.Op(1, boom, lambda res: None)]], 0,
                           run.Stats())
    assert (stats.attempted, stats.failed, stats.items) == (1, 1, 0)


def test_value_at_one():
    assert inputs.value_at_one("0") == 0
    assert inputs.value_at_one("t^-1 - 2 + t") == 0
    assert inputs.value_at_one("-2t^-3 + 5 - t^2") == 2
