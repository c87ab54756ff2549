"""Closed-form flat weights against independent oracles.

flat_weights() reads every crossing's W_plus off one label propagation, and
flat_nontriviality_certificate() derives all 2^n resolution polynomials and
its witness from those weights.  The oracles here are the Gauss-diagram
chord index, weight tables of actually resolved codes, and the exhaustive
sweep that colors every resolution.
"""

import random

import pytest

from vknot import (
    FlatCertificate,
    affine_index_polynomial,
    colorability,
    crossing_weights,
    flat_nontriviality_certificate,
    flat_role,
    forget,
    parse_flat,
    resolutions,
    symbolic_link_weights,
)
from vknot.gauss_code import LEFT, RIGHT, resolve
from vknot.invariant import flat_weights

from conftest import random_knot_code, random_link_code


def random_flat_knot(rng, n):
    return forget(random_knot_code(rng, n))


def chord_index(word):
    """Signed count of L minus R passages strictly inside each chord of one
    component's word, oriented from the L end to the R end.  Only crossings
    met twice in the word have a chord."""
    where = {(p.crossing, flat_role(p)): i for i, p in enumerate(word)}
    out = {}
    for cid in sorted({p.crossing for p in word}):
        if (cid, LEFT) not in where or (cid, RIGHT) not in where:
            continue
        i, j = where[cid, LEFT], where[cid, RIGHT]
        inside = word[min(i, j) + 1:max(i, j)]
        total = sum(1 if flat_role(p) == LEFT else -1 for p in inside)
        out[cid] = total if i < j else -total
    return out


def reference_certificate(flat):
    """The exhaustive sweep: color and weigh every resolution."""
    polys = []
    witness = None
    for resolution in resolutions(flat):
        p = affine_index_polynomial(resolution)
        polys.append(p)
        if p.is_zero() and witness is None:
            witness = resolution
    return FlatCertificate(witness is None, witness, tuple(polys))


class TestFlatWeights:
    def test_flat_trefoil(self):
        assert flat_weights(parse_flat("R1 R2 L1 L2")) == {1: 1, 2: -1}

    def test_empty(self):
        assert flat_weights(parse_flat("()")) == {}

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            flat_weights(parse_flat("R1 R2 ; L1 L2"))

    def test_equals_chord_index(self):
        rng = random.Random(1211)
        for _ in range(400):
            flat = random_flat_knot(rng, rng.randrange(0, 10))
            assert flat_weights(flat) == chord_index(flat.components[0])
        # a link self-crossing's symbolic weight is a constant, and
        # sign * constant is its flat W_plus
        self_crossings = 0
        for _ in range(400):
            code = random_link_code(rng, rng.randrange(1, 9),
                                    rng.randrange(2, 4))
            if not colorability(code).colorable:
                continue
            got = {w.crossing: w.sign * w.constant
                   for w in symbolic_link_weights(code)
                   if w.plus_component == w.minus_component}
            expected = {}
            for comp in code.components:
                expected.update(chord_index(comp))
            assert got == expected
            self_crossings += len(got)
        assert self_crossings >= 100

    def test_signed_code_gives_w_plus(self, rng):
        for _ in range(50):
            code = random_knot_code(rng, rng.randrange(1, 9))
            table = crossing_weights(code).by_id()
            assert flat_weights(code) == {cid: e.w_plus
                                          for cid, e in table.items()}

    def test_resolution_weights_are_signed_flat_weights(self):
        rng = random.Random(1601)
        for _ in range(200):
            flat = random_flat_knot(rng, rng.randrange(1, 10))
            w = flat_weights(flat)
            signs = {cid: rng.choice((1, -1)) for cid in w}
            table = crossing_weights(resolve(flat, signs)).by_id()
            assert {cid: e.weight for cid, e in table.items()} == \
                {cid: signs[cid] * w[cid] for cid in w}


class TestCertificateAgainstSweep:
    def test_seeded_flat_knots(self):
        rng = random.Random(2012)
        outcomes = set()
        for n in range(0, 10):
            for _ in range(4):
                flat = random_flat_knot(rng, n)
                got = flat_nontriviality_certificate(flat)
                assert got == reference_certificate(flat)
                outcomes.add(got.certified)
        assert outcomes == {True, False}

    def test_all_three_crossing_flat_knots(self):
        from vknot import all_flat_knot_codes
        for flat in all_flat_knot_codes(3):
            assert flat_nontriviality_certificate(flat) == \
                reference_certificate(flat)

    def test_ten_and_eleven_crossings(self):
        rng = random.Random(1111)
        flats = [random_flat_knot(rng, n) for n in (10, 11, 11)]
        weights = [list(flat_weights(flat).values()) for flat in flats]
        assert sum(0 in w for w in weights) == 2
        assert all(len(set(w)) < len(w) for w in weights)
        outcomes = set()
        for flat in flats:
            got = flat_nontriviality_certificate(flat)
            assert got == reference_certificate(flat)
            outcomes.add(got.certified)
        assert outcomes == {True, False}
