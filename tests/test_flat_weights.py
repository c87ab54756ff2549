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
    crossing_weights,
    flat_nontriviality_certificate,
    forget,
    parse_flat,
    resolutions,
)
from vknot.gauss_code import LEFT, RIGHT, resolve
from vknot.invariant import flat_weights

from conftest import random_knot_code


def random_flat_knot(rng, n):
    return forget(random_knot_code(rng, n))


def chord_index(flat):
    """Signed count of L minus R passages strictly inside each chord,
    oriented from the L end to the R end."""
    word = flat.components[0]
    where = {(p.crossing, p.role): i for i, p in enumerate(word)}
    out = {}
    for cid in sorted(flat.crossing_ids()):
        i, j = where[cid, LEFT], where[cid, RIGHT]
        inside = word[min(i, j) + 1:max(i, j)]
        total = sum(1 if p.role == LEFT else -1 for p in inside)
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
            assert flat_weights(flat) == chord_index(flat)

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
