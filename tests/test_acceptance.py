"""Acceptance suite: one test per criterion, exact values, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import random
import time
from fractions import Fraction

from vknot import (
    affine_index_polynomial,
    all_flat_knot_codes,
    basic_preflat,
    closed_form_affine,
    crossing_weights,
    enumerate_colorings,
    enumerate_colorings_fast,
    flat_nontriviality_certificate,
    flat_random_walk,
    forget,
    graph_polynomial,
    invariance_report,
    lambda_coloring,
    link_pair_polynomial,
    make_affine,
    make_singular,
    mirror,
    parse_flat,
    parse_signed,
    propagate_coloring,
    resolutions,
    reverse,
    search_affine,
    skein_difference,
    switch_crossings,
    symbolic_link_weights,
    unary_affine_params,
    vassiliev_invariant,
    vassiliev_of_polynomial,
    weight_condition,
    writhe,
)
from vknot import moves
from vknot.diagram_ops import virtualize
from vknot.laurent import LaurentPolynomial

from conftest import CLASSICAL_BRAIDS, braid_closure, random_knot_code

VT = "O1+ O2+ U1+ U2+"


def poly(d):
    return LaurentPolynomial.from_dict(d)


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


class Timer:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def test_criterion_01_virtual_trefoil():
    with Timer() as t:
        code = parse_signed(VT)
        assert lambda_coloring(code).labels == ((1, 0, 1, 2),)
        table = crossing_weights(code)
        assert [(e.crossing, e.weight) for e in table.entries] == [(1, 1), (2, -1)]
        assert all(e.sign == 1 for e in table.entries)
        assert affine_index_polynomial(code) == poly({1: 1, -1: 1, 0: -2})
    assert t.elapsed < 1.0
    report(1, f"virtual trefoil P = t + t^-1 - 2, lambda = [1,0,1,2] ({t.elapsed:.3f}s)")


def test_criterion_02_classical_corpus():
    with Timer() as t:
        corpus = {"trefoil_table": parse_signed("O1+ U2+ O3+ U1+ O2+ U3+")}
        corpus.update({name: braid_closure(word, strands)
                       for name, (word, strands) in CLASSICAL_BRAIDS.items()})
        for name, code in corpus.items():
            assert len(code.components) == 1, name
            table = crossing_weights(code)
            assert all(e.weight == 0 for e in table.entries), name
            assert affine_index_polynomial(code).is_zero(), name
    assert t.elapsed < 1.0
    report(2, f"classical corpus (3_1, 4_1, 5_1, 5_2): all weights 0, P = 0 "
              f"({t.elapsed:.3f}s)")


def test_criterion_03_move_invariance_and_mutation(monkeypatch):
    with Timer() as t:
        seeds = [parse_signed(s) for s in (
            VT,
            "O1+ U2+ O3+ U1+ O2+ U3+",
            "O1- U2+ O3+ U1- O2+ U3+",
            "O1+ O2+ U1+ O3+ U2+ U3+",
            "O1+ U1+",
        )]
        rep = invariance_report(seeds, steps=20, trials=200, seed=2024)
        assert rep.trials == 1000
        assert rep.passed == 1000
        assert rep.ok

        real_apply = moves.apply_move

        def corrupted(code, site):
            out = real_apply(code, site)
            if site.kind == moves.R3:
                ci, i = site.pairs[0]
                out = virtualize(out, {code.components[ci][i].crossing})
            return out

        monkeypatch.setattr(moves, "apply_move", corrupted)
        bad = invariance_report([parse_signed("O1+ O2+ U1+ O3+ U2+ U3+")],
                                steps=10, trials=40, seed=7)
        assert bad.failures
        monkeypatch.undo()
    assert t.elapsed < 30.0
    report(3, f"1000/1000 walks preserve P; corrupted R3 caught "
              f"({bad.passed}/{bad.trials} under mutation, {t.elapsed:.1f}s)")


def test_criterion_04_symmetry_identities():
    with Timer() as t:
        rng = random.Random(40404)
        corpus = [random_knot_code(rng, rng.randrange(1, 8)) for _ in range(60)]
        for code in corpus:
            p = affine_index_polynomial(code)
            assert affine_index_polynomial(mirror(code)) == -(p.invert_variable())
            assert affine_index_polynomial(reverse(code)) == p.invert_variable()
            lam = lambda_coloring(code).labels[0]
            bar = lambda_coloring(reverse(code)).labels[0]
            w = writhe(code)
            n = len(lam)
            assert all(lam[i] + bar[(n - 2 - i) % n] == w for i in range(n))
            table = crossing_weights(code)
            assert all(e.w_minus == -e.w_plus for e in table.entries)
            assert sum(e.sign * e.weight for e in table.entries) == 0
    assert t.elapsed < 5.0
    report(4, f"symmetry identities exact on {len(corpus)} random codes "
              f"({t.elapsed:.2f}s)")


def test_criterion_05_skein_identity():
    with Timer() as t:
        rng = random.Random(50505)
        corpus = [parse_signed(VT), parse_signed("O1+ U2+ O3+ U1+ O2+ U3+"),
                  parse_signed("O1+ U1+")]
        corpus += [random_knot_code(rng, rng.randrange(1, 7)) for _ in range(40)]
        checked = 0
        for code in corpus:
            for cid in sorted(code.crossing_ids()):
                sign = next(p.sign for _c, _i, p in code.passages()
                            if p.crossing == cid)
                plus = code if sign > 0 else switch_crossings(code, {cid})
                w = crossing_weights(plus).by_id()[cid].w_plus
                expected = poly({w: 1}) + poly({-w: 1}) - poly({0: 2})
                assert skein_difference(code, cid) == expected
                checked += 1
    report(5, f"skein identity exact at {checked} crossings ({t.elapsed:.2f}s)")


def test_criterion_06_vassiliev():
    with Timer() as t:
        weights = [(-1, 2), (1, 1), (-1, -1)]
        assert vassiliev_invariant(weights, 1) == 0
        assert vassiliev_invariant(weights, 3) == Fraction(-1)
        rng = random.Random(60606)
        for _ in range(50):
            code = random_knot_code(rng, rng.randrange(2, 7))
            ids = sorted(code.crossing_ids())
            for m in (1, 2):
                chosen = set(rng.sample(ids, m))
                pg = graph_polynomial(make_singular(code, chosen))
                for n in range(1, 2 * m):
                    assert vassiliev_of_polynomial(pg, n) == 0
    assert t.elapsed < 5.0
    report(6, f"v1 = 0, v3 = -1 on the weight list; order bound v_n(G) = 0 "
              f"for n < 2m, m in {{1,2}}, 50 codes ({t.elapsed:.2f}s)")


def test_graph_polynomial_single_node_value():
    # criterion 06 holds for any value that is 0 at m = 2 and has v_1 = 0 at
    # m = 1; this pins the one-node value to P(K+) - P(K-) of two full
    # resolutions, which is nonzero whenever the node's weight is
    nonzero = 0
    rng = random.Random(60607)
    for _ in range(50):
        code = random_knot_code(rng, rng.randrange(1, 7))
        cid = rng.choice(sorted(code.crossing_ids()))
        pg = graph_polynomial(make_singular(code, {cid}))
        assert pg == skein_difference(code, cid)
        nonzero += not pg.is_zero()
    assert nonzero >= 10


def test_criterion_07_affine_search():
    with Timer() as t:
        found5 = search_affine(5)
        assert len(found5) == 20
        assert set(found5) == closed_form_affine(5)
        found7 = search_affine(7)
        assert len(found7) == 42
        assert set(found7) == closed_form_affine(7)
        for n in (5, 7):
            for q in range(1, n):
                if (1 - q) % n == 0 or (1 + q) % n == 0:
                    continue
                from vknot import check_axioms
                rep = check_axioms(basic_preflat(n, q, 0))
                assert rep.axiom1 is None and rep.axiom2 is None
                assert rep.axiom3 is not None
    assert t.elapsed < 60.0
    report(7, f"search_affine: 20 tuples at N=5, 42 at N=7, equal to closed "
              f"form; q != 0 preflats fail exactly axiom 3 ({t.elapsed:.1f}s)")


def test_criterion_08_weight_condition():
    with Timer() as t:
        for n in (5, 7):
            for q in range(n):
                if (1 - q) % n == 0 or (1 + q) % n == 0:
                    continue
                for k in range(n):
                    assert weight_condition(basic_preflat(n, q, k)) is None
            for alpha in range(1, n):
                table = make_affine(unary_affine_params(n, alpha, 1))
                witness = weight_condition(table)
                if alpha == 1:
                    assert witness is None
                else:
                    assert witness is not None
                    a, bb = witness
                    assert (a + bb) % n != \
                        (table.star[bb][a] + table.sharp[a][bb]) % n
    assert t.elapsed < 5.0
    report(8, f"weight condition: all basic preflats pass over Z/5, Z/7; "
              f"unary tables pass iff alpha = 1 ({t.elapsed:.2f}s)")


def test_criterion_09_coloring_counts():
    with Timer() as t:
        flat = parse_flat("R1 R2 L1 L2")
        inc = make_affine(unary_affine_params(5, 1, 1))
        brute = enumerate_colorings(flat, inc)  # 5^4 oracle
        assert len(brute) == 5
        assert enumerate_colorings_fast(flat, inc) == brute
        base = len(brute)
        for trial in range(100):
            walked = flat_random_walk(flat, 1 + trial % 3, seed=trial)
            assert len(enumerate_colorings_fast(walked, inc)) == base
    assert t.elapsed < 10.0
    report(9, f"flat trefoil has 5 colorings over Z/5 (brute force over 5^4); "
              f"count stable across 100 transported flat moves ({t.elapsed:.1f}s)")


def test_criterion_10_flat_certificates():
    with Timer() as t:
        cert = flat_nontriviality_certificate(parse_flat("R1 R2 L1 L2"))
        assert not cert.certified
        assert cert.witness is not None
        assert affine_index_polynomial(cert.witness).is_zero()
        assert forget(cert.witness) == parse_flat("R1 R2 L1 L2")

        certified_count = 0
        scanned = 0
        for n in range(0, 5):
            for flat in all_flat_knot_codes(n):
                scanned += 1
                result = flat_nontriviality_certificate(flat)
                recheck = [link_pair_polynomial(r, propagate_coloring(r))
                           for r in resolutions(flat)]
                if result.certified:
                    certified_count += 1
                    assert all(not p.is_zero() for p in recheck)
                else:
                    assert any(p.is_zero() for p in recheck)
    assert t.elapsed < 300.0
    report(10, f"scanned {scanned} flat knots with <= 4 crossings; "
               f"{certified_count} certified nontrivial, all re-verified "
               f"({t.elapsed:.1f}s)")


def test_criterion_11_link_pair():
    with Timer() as t:
        hopf = parse_signed("O1+ U2+ ; U1+ O2+")
        coloring = propagate_coloring(hopf, (0, 0))
        assert link_pair_polynomial(hopf, coloring) == poly({1: 1, -1: 1, 0: -2})
        symbolic = {w.crossing: w for w in symbolic_link_weights(hopf)}
        assert (symbolic[1].constant, symbolic[1].plus_component,
                symbolic[1].minus_component) == (-1, 0, 1)
        assert (symbolic[2].constant, symbolic[2].plus_component,
                symbolic[2].minus_component) == (1, 1, 0)
        assert link_pair_polynomial(
            hopf, propagate_coloring(hopf, (1, 0))).is_zero()
    assert t.elapsed < 1.0
    report(11, f"Hopf pair: P(0,0) = t + t^-1 - 2, symbolic weights "
               f"(-1 + off_0 - off_1, 1 + off_1 - off_0), P(1,0) = 0 "
               f"({t.elapsed:.3f}s)")
