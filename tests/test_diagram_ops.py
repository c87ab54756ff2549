import pytest

from vknot import (
    affine_index_polynomial,
    canonicalize,
    forget,
    lambda_coloring,
    mirror,
    parse_signed,
    reverse,
    serialize,
    smooth_oriented,
    smooth_zero_weight,
    switch_crossings,
    verify_coloring,
    virtualize,
    writhe,
)
from vknot.coloring import ChengColoring
from vknot.errors import ValidationError
from vknot.gauss_code import LEFT, RIGHT
from vknot.laurent import LaurentPolynomial

from conftest import random_knot_code

VT = "O1+ O2+ U1+ U2+"


class TestReverse:
    def test_virtual_trefoil(self):
        assert serialize(reverse(parse_signed(VT))) == "U2+ U1+ O2+ O1+"

    def test_empty(self):
        empty = parse_signed("()")
        assert reverse(empty) == empty

    def test_involution(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 7))
            assert reverse(reverse(code)) == code

    def test_polynomial_inverts_variable(self, rng):
        for _ in range(25):
            code = random_knot_code(rng, rng.randrange(1, 6))
            p = affine_index_polynomial(code)
            assert affine_index_polynomial(reverse(code)) == p.invert_variable()

    def test_commutes_with_canonicalize(self, rng):
        for _ in range(15):
            code = random_knot_code(rng, rng.randrange(1, 6))
            lhs = canonicalize(reverse(canonicalize(code)))
            rhs = canonicalize(reverse(code))
            assert lhs == rhs


class TestMirror:
    def test_virtual_trefoil(self):
        assert serialize(mirror(parse_signed(VT))) == "U1- U2- O1- O2-"

    def test_polynomial(self):
        p = affine_index_polynomial(mirror(parse_signed(VT)))
        assert p == LaurentPolynomial.from_dict({0: 2, 1: -1, -1: -1})
        q = affine_index_polynomial(parse_signed(VT))
        assert p == -(q.invert_variable())

    def test_writhe_negates(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 7))
            assert writhe(mirror(code)) == -writhe(code)

    def test_involution(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 7))
            assert mirror(mirror(code)) == code

    def test_commutes_with_canonicalize(self, rng):
        for _ in range(15):
            code = random_knot_code(rng, rng.randrange(1, 6))
            lhs = canonicalize(mirror(canonicalize(code)))
            rhs = canonicalize(mirror(code))
            assert lhs == rhs


class TestSwitchAndVirtualize:
    def test_switch_one(self):
        assert serialize(switch_crossings(parse_signed(VT), {1})) == "U1- O2+ O1- U2+"

    def test_switch_all_is_mirror(self):
        code = parse_signed(VT)
        assert switch_crossings(code, {1, 2}) == mirror(code)

    def test_switch_none_is_identity(self):
        code = parse_signed(VT)
        assert switch_crossings(code, set()) == code

    def test_switch_unknown_id(self):
        with pytest.raises(ValueError, match="unknown"):
            switch_crossings(parse_signed(VT), {9})

    def test_virtualize_one(self):
        assert serialize(virtualize(parse_signed(VT), {1})) == "O1- O2+ U1- U2+"

    def test_virtualize_twice_is_identity(self):
        code = parse_signed(VT)
        assert virtualize(virtualize(code, {1, 2}), {1, 2}) == code

    def test_virtualize_unknown_id(self):
        with pytest.raises(ValueError, match="unknown"):
            virtualize(parse_signed(VT), {3})

    def test_virtualize_swaps_flat_roles(self, rng):
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 6))
            ids = {cid for cid in code.crossing_ids() if rng.random() < 0.5}
            before = forget(code)
            after = forget(virtualize(code, ids))
            for comp_b, comp_a in zip(before.components, after.components):
                for pb, pa in zip(comp_b, comp_a):
                    if pb.crossing in ids:
                        assert {pb.role, pa.role} == {LEFT, RIGHT}
                    else:
                        assert pb.role == pa.role

    def test_fully_virtualized_classical_trefoil(self):
        # recorded value: virtualizing every crossing of the (2,3) torus code
        # kills the polynomial again
        code = virtualize(parse_signed("O1+ U2+ O3+ U1+ O2+ U3+"), {1, 2, 3})
        assert affine_index_polynomial(code).is_zero()


class TestWrithe:
    def test_values(self):
        assert writhe(parse_signed(VT)) == 2
        assert writhe(parse_signed("O1+ U1+")) == 1
        assert writhe(mirror(parse_signed(VT))) == -2

    def test_reverse_preserves(self, rng):
        for _ in range(10):
            code = random_knot_code(rng, rng.randrange(1, 7))
            assert writhe(reverse(code)) == writhe(code)


class TestSmoothOriented:
    def test_self_crossing_splits(self):
        assert serialize(smooth_oriented(parse_signed(VT), 1)) == "O2+ ; U2+"

    def test_kink_gives_empty_component(self):
        code = parse_signed("O3+ U3+ O1+ O2+ U1+ U2+")
        assert serialize(smooth_oriented(code, 3)) == "() ; O1+ O2+ U1+ U2+"

    def test_mixed_crossing_merges(self):
        out = smooth_oriented(parse_signed("O1+ ; U1+"), 1)
        assert serialize(out) == "()"
        assert len(out.components) == 1

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown"):
            smooth_oriented(parse_signed(VT), 5)

    def test_passage_and_component_counts(self, rng):
        for _ in range(30):
            code = random_knot_code(rng, rng.randrange(2, 7))
            cid = rng.choice(sorted(code.crossing_ids()))
            out = smooth_oriented(code, cid)
            n_before = sum(len(c) for c in code.components)
            n_after = sum(len(c) for c in out.components)
            assert n_after == n_before - 2
            assert abs(len(out.components) - len(code.components)) == 1


class TestSmoothZeroWeight:
    def test_kinked_virtual_trefoil(self):
        code = parse_signed("O3+ U3+ O1+ O2+ U1+ U2+")
        out, coloring = smooth_zero_weight(code, lambda_coloring(code))
        assert serialize(out) == "() ; O1+ O2+ U1+ U2+"
        assert coloring.labels == ((2,), (2, 1, 2, 3))
        assert verify_coloring(out, coloring)

    def test_no_zero_weights_unchanged(self):
        code = parse_signed(VT)
        coloring = lambda_coloring(code)
        out, out_coloring = smooth_zero_weight(code, coloring)
        assert out == code
        assert out_coloring == coloring

    def test_classical_trefoil_fully_smoothed(self):
        code = parse_signed("O1+ U2+ O3+ U1+ O2+ U3+")
        out, coloring = smooth_zero_weight(code, lambda_coloring(code))
        assert out.n_crossings() == 0
        assert len(out.components) == 2
        assert all(comp == () for comp in out.components)
        assert verify_coloring(out, coloring)

    def test_wrong_coloring_rejected(self):
        code = parse_signed(VT)
        assert lambda_coloring(code).labels == ((1, 0, 1, 2),)
        with pytest.raises(ValidationError,
                           match="^coloring does not satisfy the labeling rule$"):
            smooth_zero_weight(code, ChengColoring(((1, 0, 1, 3),)))
