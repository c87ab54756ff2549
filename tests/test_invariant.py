from fractions import Fraction

import pytest

from vknot import (
    affine_index_polynomial,
    crossing_weights,
    flat_nontriviality_certificate,
    forget,
    graph_polynomial,
    lambda_coloring,
    link_pair_polynomial,
    make_singular,
    mirror,
    parse_flat,
    parse_signed,
    propagate_coloring,
    reverse,
    serialize,
    skein_difference,
    switch_crossings,
    symbolic_link_weights,
    vassiliev_invariant,
    vassiliev_of_polynomial,
    writhe,
)
from vknot.errors import UncolorableError, ValidationError
from vknot.coloring import ChengColoring
from vknot.invariant import validate_singular
from vknot.laurent import LaurentPolynomial

from conftest import random_knot_code, random_link_code

VT = "O1+ O2+ U1+ U2+"


def poly(d):
    return LaurentPolynomial.from_dict(d)


class TestCrossingWeights:
    def test_virtual_trefoil(self):
        table = crossing_weights(parse_signed(VT))
        by_id = table.by_id()
        assert (by_id[1].weight, by_id[2].weight) == (1, -1)
        assert all(e.sign == 1 for e in table.entries)

    def test_kink(self):
        table = crossing_weights(parse_signed("O1+ U1+"))
        assert table.by_id()[1].weight == 0

    def test_switched_virtual_trefoil(self):
        table = crossing_weights(parse_signed("U1- O2+ O1- U2+"))
        by_id = table.by_id()
        assert (by_id[1].weight, by_id[2].weight) == (-1, -1)

    def test_w_minus_is_negated_w_plus(self, rng):
        for _ in range(40):
            code = random_knot_code(rng, rng.randrange(1, 8))
            for e in crossing_weights(code).entries:
                assert e.w_minus == -e.w_plus

    def test_invalid_coloring_rejected(self):
        code = parse_signed(VT)
        with pytest.raises(ValidationError):
            crossing_weights(code, ChengColoring(((0, 0, 0, 0),)))

    def test_reversal_negates_weights(self, rng):
        for _ in range(30):
            code = random_knot_code(rng, rng.randrange(1, 7))
            w = {e.crossing: e.weight for e in crossing_weights(code).entries}
            w_rev = {e.crossing: e.weight
                     for e in crossing_weights(reverse(code)).entries}
            assert w_rev == {cid: -v for cid, v in w.items()}

    def test_signed_weight_sum_vanishes(self, rng):
        for _ in range(30):
            code = random_knot_code(rng, rng.randrange(1, 8))
            assert sum(e.sign * e.weight
                       for e in crossing_weights(code).entries) == 0


class TestAffineIndexPolynomial:
    def test_virtual_trefoil(self):
        assert affine_index_polynomial(parse_signed(VT)) == poly({1: 1, -1: 1, 0: -2})

    def test_classical_trefoil_zero(self):
        assert affine_index_polynomial(
            parse_signed("O1+ U2+ O3+ U1+ O2+ U3+")).is_zero()

    def test_kink_zero(self):
        assert affine_index_polynomial(parse_signed("O1+ U1+")).is_zero()

    def test_unknot_zero(self):
        assert affine_index_polynomial(parse_signed("()")).is_zero()

    def test_virtualized_trefoil(self):
        # one virtualized crossing in the (2,3) torus code
        code = parse_signed("O1- U2+ O3+ U1- O2+ U3+")
        assert affine_index_polynomial(code) == poly({2: 1, -2: 1, 0: -2})

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            affine_index_polynomial(parse_signed("O1+ U2+ ; U1+ O2+"))

    def test_symmetry_identities(self, rng):
        for _ in range(40):
            code = random_knot_code(rng, rng.randrange(1, 8))
            p = affine_index_polynomial(code)
            assert affine_index_polynomial(reverse(code)) == p.invert_variable()
            assert affine_index_polynomial(mirror(code)) == -(p.invert_variable())


class TestLinkPairPolynomial:
    def test_hopf_zero_offsets(self):
        code = parse_signed("O1+ U2+ ; U1+ O2+")
        coloring = propagate_coloring(code, (0, 0))
        assert link_pair_polynomial(code, coloring) == poly({1: 1, -1: 1, 0: -2})

    def test_hopf_offsets_one_zero(self):
        code = parse_signed("O1+ U2+ ; U1+ O2+")
        coloring = propagate_coloring(code, (1, 0))
        assert link_pair_polynomial(code, coloring).is_zero()

    def test_knot_offset_invariant(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 7))
            k = rng.randrange(-4, 5)
            assert link_pair_polynomial(code, propagate_coloring(code, (k,))) \
                == affine_index_polynomial(code)


class TestSymbolicWeights:
    def test_hopf(self):
        weights = symbolic_link_weights(parse_signed("O1+ U2+ ; U1+ O2+"))
        by_id = {w.crossing: w for w in weights}
        w1, w2 = by_id[1], by_id[2]
        assert (w1.constant, w1.plus_component, w1.minus_component) == (-1, 0, 1)
        assert (w2.constant, w2.plus_component, w2.minus_component) == (1, 1, 0)

    def test_knot_weights_are_constants(self, rng):
        for _ in range(15):
            code = random_knot_code(rng, rng.randrange(1, 6))
            table = crossing_weights(code).by_id()
            for w in symbolic_link_weights(code):
                assert w.plus_component == w.minus_component == 0
                assert w.constant == table[w.crossing].weight

    def test_uncolorable(self):
        with pytest.raises(UncolorableError):
            symbolic_link_weights(parse_signed("O1+ O2+ ; U1+ U2+"))

    def test_evaluation_matches_weight_table(self, rng):
        checked = 0
        while checked < 20:
            code = random_link_code(rng, rng.randrange(1, 6), 2)
            try:
                symbolic = symbolic_link_weights(code)
            except UncolorableError:
                continue
            checked += 1
            offsets = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            table = crossing_weights(code, propagate_coloring(code, offsets))
            concrete = {e.crossing: e.weight for e in table.entries}
            for w in symbolic:
                assert w.evaluate(offsets) == concrete[w.crossing]


class TestVassiliev:
    def test_paper_weight_list(self):
        weights = [(-1, 2), (1, 1), (-1, -1)]
        assert vassiliev_invariant(weights, 1) == 0
        assert vassiliev_invariant(weights, 2) == -2
        assert vassiliev_invariant(weights, 3) == -1

    def test_code_overload(self):
        code = parse_signed(VT)
        values = [vassiliev_invariant(code, n) for n in (1, 2, 3, 4)]
        assert values == [0, 1, 0, Fraction(1, 12)]

    def test_v1_always_zero(self, rng):
        for _ in range(30):
            code = random_knot_code(rng, rng.randrange(1, 8))
            assert vassiliev_invariant(code, 1) == 0

    def test_matches_polynomial_expansion(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 7))
            p = affine_index_polynomial(code)
            for n in (1, 2, 3):
                assert vassiliev_of_polynomial(p, n) == vassiliev_invariant(code, n)

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            vassiliev_invariant([(1, 1)], 0)

    def test_weight_list_polynomial_arithmetic(self):
        # sum of sign * (t^W - 1) over the weight list [(-,2), (+,1), (-,-1)]
        weights = [(-1, 2), (1, 1), (-1, -1)]
        total = LaurentPolynomial.zero()
        for sign, w in weights:
            total = total + (poly({w: 1}) - poly({0: 1})).scaled(sign)
        assert total == poly({2: -1, 1: 1, -1: -1, 0: 1})
        assert str(total) == "-t^-1 + 1 + t - t^2"
        for n in (1, 2, 3):
            assert vassiliev_of_polynomial(total, n) == \
                vassiliev_invariant(weights, n)


class TestSkein:
    def test_virtual_trefoil(self):
        assert skein_difference(parse_signed(VT), 1) == poly({1: 1, -1: 1, 0: -2})

    def test_kink(self):
        assert skein_difference(parse_signed("O1+ U1+"), 1).is_zero()

    def test_identity_on_random_corpus(self, rng):
        for _ in range(25):
            code = random_knot_code(rng, rng.randrange(1, 7))
            for cid in sorted(code.crossing_ids()):
                plus = code if crossing_weights(code).by_id()[cid].sign > 0 \
                    else switch_crossings(code, {cid})
                w = crossing_weights(plus).by_id()[cid].w_plus
                expected = poly({w: 1}) + poly({-w: 1}) - poly({0: 2})
                assert skein_difference(code, cid) == expected

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            skein_difference(parse_signed(VT), 7)


class TestGraphPolynomial:
    def test_one_singular_node(self):
        g = make_singular(parse_signed(VT), {1})
        assert graph_polynomial(g) == poly({1: 1, -1: 1, 0: -2})

    def test_no_singular_nodes(self):
        g = make_singular(parse_signed(VT), set())
        assert graph_polynomial(g) == affine_index_polynomial(parse_signed(VT))

    def test_singular_kink(self):
        g = make_singular(parse_signed("O1+ U1+"), {1})
        assert graph_polynomial(g).is_zero()

    def test_two_nodes_vanish_identically(self, rng):
        # switching one crossing never changes the flat diagram, so second
        # differences cancel exactly
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(2, 7))
            ids = sorted(code.crossing_ids())
            chosen = set(rng.sample(ids, 2))
            assert graph_polynomial(make_singular(code, chosen)).is_zero()

    def test_expansion_order_independent(self, rng):
        # the 2^m expansion, node by node from the highest id, is the
        # oracle for the closed form
        from vknot.gauss_code import LEFT, RIGHT, OVER, UNDER, FlatPassage, Passage, SignedGaussCode
        from vknot.invariant import SingularCode

        def resolve_one(g, cid, s):
            def convert(p):
                if isinstance(p, FlatPassage) and p.crossing == cid:
                    if s > 0:
                        return Passage(cid, OVER if p.role == RIGHT else UNDER, s)
                    return Passage(cid, OVER if p.role == LEFT else UNDER, s)
                return p
            return SingularCode(tuple(tuple(convert(p) for p in comp)
                                      for comp in g.components))

        def recursive(g):
            ids = sorted(g.singular_ids())
            if not ids:
                plain = SignedGaussCode(g.components)
                return affine_index_polynomial(plain)
            cid = ids[-1]
            out = LaurentPolynomial.zero()
            for s in (1, -1):
                out = out + recursive(resolve_one(g, cid, s)).scaled(s)
            return out

        for m in (1, 2, 3):
            for _ in range(10):
                code = random_knot_code(rng, rng.randrange(m, 7))
                chosen = set(rng.sample(sorted(code.crossing_ids()), m))
                g = make_singular(code, chosen)
                assert graph_polynomial(g) == recursive(g)

    def test_validation(self):
        g = make_singular(parse_signed(VT), {1})
        assert validate_singular(g) == []
        with pytest.raises(ValueError):
            make_singular(parse_signed(VT), {9})

    def test_validation_rejects_bad_singular_roles(self):
        from vknot.gauss_code import FlatPassage, Passage, LEFT, OVER, UNDER
        from vknot.invariant import SingularCode
        bad = SingularCode(((FlatPassage(1, LEFT), Passage(2, OVER, 1),
                             FlatPassage(1, LEFT), Passage(2, UNDER, 1)),))
        assert any("one L and one R" in v for v in validate_singular(bad))
        mixed = SingularCode(((FlatPassage(1, LEFT), Passage(1, OVER, 1)),))
        assert any("both singular and signed" in v
                   for v in validate_singular(mixed))

    def test_vassiliev_order_bound(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(2, 7))
            ids = sorted(code.crossing_ids())
            for m in (1, 2):
                chosen = set(rng.sample(ids, m))
                pg = graph_polynomial(make_singular(code, chosen))
                for n in range(1, 2 * m):
                    assert vassiliev_of_polynomial(pg, n) == 0


class TestFlatCertificate:
    def test_flat_trefoil_not_certified(self):
        cert = flat_nontriviality_certificate(parse_flat("R1 R2 L1 L2"))
        assert not cert.certified
        assert cert.witness is not None
        assert affine_index_polynomial(cert.witness).is_zero()
        assert forget(cert.witness) == parse_flat("R1 R2 L1 L2")
        assert len(cert.polynomials) == 4

    def test_empty_flat_not_certified(self):
        cert = flat_nontriviality_certificate(parse_flat("()"))
        assert not cert.certified

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            flat_nontriviality_certificate(parse_flat("R1 R2 ; L1 L2"))

    def test_certified_true_means_all_nonzero(self):
        # scan 3-crossing flat knots; re-verify any certified result
        from vknot import all_flat_knot_codes, resolutions
        for flat in all_flat_knot_codes(3):
            cert = flat_nontriviality_certificate(flat)
            recheck = [affine_index_polynomial(r) for r in resolutions(flat)]
            if cert.certified:
                assert all(not p.is_zero() for p in recheck)
            else:
                assert any(p.is_zero() for p in recheck)
