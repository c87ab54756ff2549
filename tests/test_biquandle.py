import hashlib
import itertools
import random

import pytest

from vknot import (
    AffineParams,
    FiniteFlatBiquandle,
    basic_preflat,
    check_axioms,
    check_coloring,
    closed_form_affine,
    doodle_invariant_sum,
    doodle_pre_invariant,
    enumerate_colorings,
    enumerate_colorings_fast,
    find_move_sites,
    flat_random_walk,
    forget,
    lambda_coloring,
    make_affine,
    parse_flat,
    parse_signed,
    search_affine,
    serialize,
    table_from_text,
    table_to_text,
    transport_coloring,
    unary_affine_params,
    weight_condition,
)
from vknot.biquandle import _affine_table, _axiom1_witness, \
    _axiom2_witness, _axiom3_witness
from vknot.errors import ValidationError
from vknot.moves import ANTIPARALLEL, COHERENT, MoveSite, R1_DELETE, \
    R1_INSERT, R2_DELETE, R2_INSERT

from conftest import random_knot_code


def increment_biquandle(n=5):
    return make_affine(AffineParams(n, 1, 0, 1, 1, 0, n - 1))


class TestMakeAffine:
    def test_increment_decrement(self):
        b = increment_biquandle()
        assert b.star[2][4] == 3  # a*b = a + 1
        assert b.sharp[2][4] == 1  # a#b = a - 1

    def test_unary_alpha_two(self):
        b = make_affine(unary_affine_params(5, 2, 0))
        assert all(b.star[a][0] == (2 * a) % 5 for a in range(5))
        assert all(b.sharp[a][0] == (3 * a) % 5 for a in range(5))

    def test_constant_zero(self):
        b = make_affine(AffineParams(2, 0, 0, 0, 0, 0, 0))
        assert b.star == ((0, 0), (0, 0)) and b.sharp == ((0, 0), (0, 0))


class TestCheckAxioms:
    def test_increment_is_flat_biquandle(self):
        report = check_axioms(increment_biquandle())
        assert report.axiom1 is None
        assert report.axiom2 is None
        assert report.axiom3 is None
        assert report.is_flat_biquandle

    def test_unary_alpha_two_is_flat_biquandle(self):
        assert check_axioms(make_affine(unary_affine_params(5, 2, 0))).is_flat_biquandle

    def test_basic_preflat_fails_exactly_axiom3(self):
        report = check_axioms(basic_preflat(5, 2, 0))
        assert report.is_preflat
        assert report.axiom3 is not None
        a, b, c = report.axiom3
        table = basic_preflat(5, 2, 0)
        star, sharp = table.star, table.sharp
        identities = (
            sharp[sharp[a][b]][c] == sharp[sharp[a][star[c][b]]][sharp[b][c]],
            star[star[c][b]][a] == star[star[c][sharp[a][b]]][star[b][a]],
            star[sharp[b][c]][sharp[a][star[c][b]]]
            == sharp[star[b][a]][star[c][sharp[a][b]]],
        )
        assert not all(identities)

    def test_all_admissible_nonzero_q_fail_axiom3(self):
        for n in (5, 7):
            for q in range(1, n):
                if ((1 - q) % n == 0 or (1 + q) % n == 0):
                    continue
                report = check_axioms(basic_preflat(n, q, 0))
                assert report.is_preflat
                if q % n == 0:
                    assert report.axiom3 is None
                else:
                    assert report.axiom3 is not None


class TestBasicPreflat:
    def test_q_zero_is_increment(self):
        assert basic_preflat(5, 0, 1) == increment_biquandle()

    def test_q_two_tables(self):
        b = basic_preflat(5, 2, 0)
        assert b.star[1][1] == (4 * 1 + 3 * 1) % 5
        assert b.sharp[1][1] == (3 * 1 + 2 * 1) % 5

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            basic_preflat(5, 4, 0)
        with pytest.raises(ValueError):
            basic_preflat(5, 1, 0)


def scan_affine(n):
    """Reference search: table-check all n^6 affine tuples, in lexicographic
    (r, s, k, p, q, l) order."""
    rng = range(n)
    tables = {(c1, c2, c0): _affine_table(n, c1, c2, c0)
              for c1 in rng for c2 in rng for c0 in rng}
    found = []
    for r, s, k in itertools.product(rng, repeat=3):
        star = tables[(r, s, k)]
        for p, q, l in itertools.product(rng, repeat=3):
            sharp = tables[(p, q, l)]
            if _axiom1_witness(n, star, sharp) is not None:
                continue
            if _axiom2_witness(n, star, sharp) is not None:
                continue
            if _axiom3_witness(n, star, sharp) is not None:
                continue
            found.append(AffineParams(n, r, s, k, p, q, l))
    return found


class TestSearchAffine:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equals_exhaustive_scan(self, n):
        assert search_affine(n) == scan_affine(n)

    @pytest.mark.parametrize("n, count", [(8, 64), (9, 162)])
    def test_composite_eight_and_nine(self, n, count):
        found = search_affine(n)
        assert len(found) == count
        assert all(check_axioms(make_affine(p)).is_flat_biquandle
                   for p in found)
        assert closed_form_affine(n) <= set(found)

    def test_counts_small(self):
        assert len(search_affine(2)) == 2
        assert len(search_affine(3)) == 6
        assert len(search_affine(5)) == 20

    def test_matches_closed_form_primes(self):
        for n in (2, 3, 5):
            assert set(search_affine(n)) == closed_form_affine(n)

    def test_composite_four_superset_with_zero_divisor_extras(self):
        found = set(search_affine(4))
        closed = closed_form_affine(4)
        assert closed <= found
        extras = found - closed
        assert len(extras) == 8
        assert all(p.q == 2 and p.s == 2 for p in extras)

    def test_composite_six_matches_closed_form(self):
        assert set(search_affine(6)) == closed_form_affine(6)


class TestWeightCondition:
    def test_increment_passes(self):
        assert weight_condition(increment_biquandle()) is None

    def test_basic_preflats_pass(self):
        for n in (5, 7):
            for q in range(n):
                if ((1 - q) % n == 0 or (1 + q) % n == 0):
                    continue
                for k in range(n):
                    assert weight_condition(basic_preflat(n, q, k)) is None

    def test_unary_fails_unless_alpha_one(self):
        for n in (5, 7):
            for alpha in range(1, n):
                try:
                    params = unary_affine_params(n, alpha, 0)
                except ValueError:
                    continue
                witness = weight_condition(make_affine(params))
                if alpha == 1:
                    assert witness is None
                else:
                    assert witness is not None
                    a, bb = witness
                    table = make_affine(params)
                    assert (a + bb) % n != (table.star[bb][a] + table.sharp[a][bb]) % n


class TestEnumerateColorings:
    def test_flat_trefoil_increment(self):
        colorings = enumerate_colorings(parse_flat("R1 R2 L1 L2"),
                                        increment_biquandle())
        assert len(colorings) == 5

    def test_flat_trefoil_alpha_two(self):
        colorings = enumerate_colorings(parse_flat("R1 R2 L1 L2"),
                                        make_affine(unary_affine_params(5, 2, 0)))
        assert len(colorings) == 5

    def test_two_component_alpha_two(self):
        colorings = enumerate_colorings(parse_flat("R1 R2 ; L1 L2"),
                                        make_affine(unary_affine_params(5, 2, 0)))
        assert colorings == [((0, 0), (0, 0))]

    def test_fast_agrees_with_brute(self, rng):
        tables = [increment_biquandle(3), basic_preflat(5, 2, 0),
                  make_affine(unary_affine_params(5, 2, 1))]
        flats = [parse_flat("()"), parse_flat("R1 L1"),
                 parse_flat("R1 R2 L1 L2"), parse_flat("R1 L1 R2 L2"),
                 parse_flat("R1 R2 ; L1 L2"), parse_flat("R1 L2 R3 L1 R2 L3")]
        for table in tables:
            for flat in flats:
                assert enumerate_colorings_fast(flat, table) \
                    == enumerate_colorings(flat, table)

    def test_empty_circle(self):
        assert len(enumerate_colorings(parse_flat("()"),
                                       increment_biquandle())) == 5

    def test_forced_labels_at_eight_crossings(self):
        # random Z/2 tables, two of them not even preflats; an arc leaving a
        # crossing whose incoming arcs come first takes its forced label
        flat = forget(random_knot_code(random.Random(808), 8))
        assert flat.n_crossings() == 8
        tables = []
        for seed in (2, 3, 4):
            rng = random.Random(seed)
            star, sharp = ([[rng.randrange(2) for _ in range(2)]
                            for _ in range(2)] for _ in range(2))
            tables.append(FiniteFlatBiquandle(
                2, tuple(map(tuple, star)), tuple(map(tuple, sharp))))
        assert [check_axioms(t).is_preflat for t in tables] == \
            [False, True, False]
        counts = []
        for table in tables:
            brute = enumerate_colorings(flat, table)
            assert enumerate_colorings_fast(flat, table) == brute
            counts.append(len(brute))
        assert counts == [2, 2, 6]


class TestDoodle:
    def test_virtual_trefoil_vector(self):
        code = parse_signed("O1+ O2+ U1+ U2+")
        labels = tuple(tuple(x % 5 for x in comp)
                       for comp in lambda_coloring(code).labels)
        vec = doodle_pre_invariant(code, increment_biquandle(), labels)
        assert vec == (-2, 1, 0, 0, 1)

    def test_empty_knot(self):
        vec = doodle_pre_invariant(parse_signed("()"), increment_biquandle(),
                                   ((0,),))
        assert vec == (0, 0, 0, 0, 0)

    def test_kink_zero_vector_for_preflat(self):
        code = parse_signed("O1+ U1+")
        table = basic_preflat(5, 2, 0)
        for labels in enumerate_colorings(forget(code), table):
            assert doodle_pre_invariant(code, table, labels) == (0, 0, 0, 0, 0)

    def test_weight_condition_required(self):
        bad = make_affine(unary_affine_params(5, 2, 0))
        code = parse_signed("O1+ U1+")
        labels = enumerate_colorings(forget(code), bad)[0]
        with pytest.raises(ValueError):
            doodle_pre_invariant(code, bad, labels)

    def test_invalid_coloring_rejected(self):
        code = parse_signed("O1+ U1+")
        with pytest.raises(ValidationError):
            doodle_pre_invariant(code, increment_biquandle(), ((0, 3),))

    def test_sum_over_colorings(self):
        code = parse_signed("O1+ O2+ U1+ U2+")
        total = doodle_invariant_sum(code, increment_biquandle())
        assert total == (-10, 5, 0, 0, 5)


def _r1r2_walk(code, labels, table, steps, seed):
    """Seeded R1/R2 moves with the coloring transported through each one;
    yields (site, (code, labels) before, (code, labels) after) per move."""
    rng = random.Random(seed)
    for _ in range(steps):
        gaps = [(ci, slot) for ci, comp in enumerate(code.components)
                for slot in range(max(len(comp), 1))]
        options = [R1_INSERT, R2_INSERT]
        deletions = {kind: find_move_sites(code, kind)
                     for kind in (R1_DELETE, R2_DELETE)}
        options += [k for k, sites in deletions.items() if sites]
        kind = rng.choice(options)
        if kind == R1_INSERT:
            site = MoveSite(R1_INSERT, gaps=(rng.choice(gaps),),
                            sign=rng.choice((1, -1)))
        elif kind == R2_INSERT:
            site = MoveSite(R2_INSERT, gaps=(rng.choice(gaps), rng.choice(gaps)),
                            sign=rng.choice((1, -1)),
                            variant=rng.choice((COHERENT, ANTIPARALLEL)))
        else:
            site = rng.choice(deletions[kind])
        after = transport_coloring(code, labels, site, table)
        yield site, (code, labels), after
        code, labels = after


class TestTransport:
    @pytest.mark.parametrize("q", [0, 2, 3])
    def test_doodle_invariant_under_r1_r2(self, q):
        table = basic_preflat(5, q, 1)
        for text in ("O1+ O2+ U1+ U2+", "O1+ U1+", "() ; O1+ U2+ ; O2+ U1+",
                     "O1+ O2- ; U1+ U2-"):
            code = parse_signed(text)
            for labels in enumerate_colorings_fast(code, table)[:2]:
                base = doodle_pre_invariant(code, table, labels)
                for _, _, (new_code, new_labels) in _r1r2_walk(
                        code, labels, table, steps=25, seed=13 + q):
                    assert check_coloring(new_code, table, new_labels)
                    assert doodle_pre_invariant(new_code, table,
                                                new_labels) == base

    def test_r3_rejected(self):
        table = increment_biquandle()
        code = parse_signed("O1+ O2+ U1+ O3+ U2+ U3+")
        labels = enumerate_colorings_fast(forget(code), table)[0]
        site = find_move_sites(code, "R3")[0]
        with pytest.raises(ValueError):
            transport_coloring(code, labels, site, table)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_axiom1_failure_rejects_a_curl(self, sign):
        table = make_affine(AffineParams(5, 0, 0, 0, 0, 0, 0))
        assert check_axioms(table).axiom1 is not None
        site = MoveSite(R1_INSERT, gaps=((0, 0),), sign=sign)
        with pytest.raises(ValueError, match="R1_insert .*: 0 colorings"):
            transport_coloring(parse_signed("()"), ((1,),), site, table)

    def test_axiom2_uniqueness_failure_rejects_an_antiparallel_poke(self):
        # a*b = b, a#b = a - b: axiom 1 and both identities of axiom 2 hold
        table = make_affine(AffineParams(5, 0, 1, 0, 1, 4, 0))
        star, sharp = table.star, table.sharp
        assert all(star[sharp[a][b]][star[b][a]] == a
                   and sharp[star[b][a]][sharp[a][b]] == b
                   for a in range(5) for b in range(5))
        report = check_axioms(table)
        assert report.axiom1 is None and report.axiom2 is not None
        site = MoveSite(R2_INSERT, gaps=((0, 0), (0, 0)), sign=1,
                        variant=ANTIPARALLEL)
        with pytest.raises(ValueError, match="antiparallel: 5 colorings"):
            transport_coloring(parse_signed("()"), ((2,),), site, table)

    def test_r1_delete_empties_a_component(self):
        table = basic_preflat(5, 2, 1)
        code = parse_signed("O1+ U1+")
        for labels in enumerate_colorings_fast(code, table):
            site = MoveSite(R1_DELETE, pairs=((0, 0),))
            new_code, new_labels = transport_coloring(code, labels, site, table)
            assert new_code == parse_signed("()")
            assert new_labels == ((labels[0][1],),)

    def test_r2_delete_empties_two_components(self):
        table = basic_preflat(7, 3, 1)
        code = parse_signed("O1+ O2- ; U1+ U2-")
        site = MoveSite(R2_DELETE, pairs=((0, 0), (1, 0)), variant=COHERENT)
        for labels in enumerate_colorings_fast(code, table):
            new_code, new_labels = transport_coloring(code, labels, site, table)
            assert new_code == parse_signed("() ; ()")
            assert new_labels == ((labels[0][1],), (labels[1][1],))

    def test_inserted_arcs_against_brute_force(self):
        # the surviving passages' fixed labels meet the labels the
        # backtracker forces inside each inserted pattern
        def sides(code, labels):
            return {(p.crossing, p.role): (labels[ci][pi - 1], labels[ci][pi])
                    for ci, pi, p in code.passages()}

        table = make_affine(unary_affine_params(3, 2, 1))
        code = parse_signed("O1+ U1+")
        sites = find_move_sites(code, R1_INSERT) + find_move_sites(code, R2_INSERT)
        assert len(sites) > 10
        for labels in enumerate_colorings_fast(code, table):
            old = sides(code, labels).items()
            for site in sites:
                new_code, new_labels = transport_coloring(code, labels, site, table)
                assert [c for c in enumerate_colorings(new_code, table)
                        if old <= sides(new_code, c).items()] == [new_labels]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_curl_round_trip_on_a_circle(self, sign):
        table = basic_preflat(5, 3, 1)
        circle = parse_signed("()")
        for x in range(table.n):
            code, labels = transport_coloring(
                circle, ((x,),), MoveSite(R1_INSERT, gaps=((0, 0),), sign=sign),
                table)
            assert labels[0][-1] == x
            site, = find_move_sites(code, R1_DELETE)
            assert transport_coloring(code, labels, site, table) \
                == (circle, ((x,),))


# Tables and starts of the parity walks: preflats that fail axiom 3 for
# q = 2, 3, and flat biquandles of the closed-form unary family.
PARITY_TABLES = (
    [basic_preflat(n, q, 1) for n in (5, 7) for q in (0, 2, 3)]
    + [make_affine(unary_affine_params(n, alpha, k))
       for n in (5, 7) for alpha, k in ((1, 2), (2, 0), (3, 1))])
PARITY_STARTS = ("O1+ O2+ U1+ U2+", "O1- U2- O3- U1- O2- U3-", "O1+ U1+",
                 "()", "O1+ O2- ; U1+ U2-", "() ; O1+ U2+ ; O2+ U1+", "() ; ()")
# sha256 of the transported (code, labels) at every pinned step, recorded
# from the earlier transport that replayed each move's geometry by hand
PARITY_DIGEST = ("f8a801f0c436efe3c0d405d1688efb96"
                 "436008c59b349520b7d086af22a052c4")


def _empties_varied_component(before, after):
    """True if the move leaves a component without passages whose labels
    were not all equal; the earlier transport raised on such moves, so
    they are outside the pinned digest."""
    (code, labels), (new_code, _) = before, after
    return any(old and not new and len(set(comp_labels)) > 1
               for old, new, comp_labels
               in zip(code.components, new_code.components, labels))


class TestTransportParity:
    def test_pinned_results_and_doodle_vectors(self):
        digest = hashlib.sha256()
        pinned = emptied = 0
        for ti, table in enumerate(PARITY_TABLES):
            weighted = weight_condition(table) is None
            for si, text in enumerate(PARITY_STARTS):
                code = parse_signed(text)
                for labels in enumerate_colorings_fast(code, table)[:2]:
                    base = weighted and doodle_pre_invariant(code, table, labels)
                    for _, before, after in _r1r2_walk(
                            code, labels, table, steps=20, seed=100 * ti + si):
                        if weighted:
                            assert doodle_pre_invariant(after[0], table,
                                                        after[1]) == base
                        if _empties_varied_component(before, after):
                            emptied += 1
                            continue
                        pinned += 1
                        digest.update(f"{serialize(after[0])} {after[1]}\n".encode())
        assert (pinned, emptied) == (3225, 135)
        assert digest.hexdigest() == PARITY_DIGEST


class TestColoringCountInvariance:
    def test_counts_stable_under_flat_moves(self):
        flat = parse_flat("R1 R2 L1 L2")
        table = increment_biquandle()
        base = len(enumerate_colorings_fast(flat, table))
        for seed in range(10):
            walked = flat_random_walk(flat, 3, seed)
            assert len(enumerate_colorings_fast(walked, table)) == base


class TestTableFile:
    def test_round_trip(self):
        b = basic_preflat(5, 2, 3)
        assert table_from_text(table_to_text(b)) == b

    def test_format_shape(self):
        text = table_to_text(increment_biquandle(2))
        lines = text.splitlines()
        assert lines[0] == "2"
        assert lines[3] == ""

    def test_bad_file_rejected(self):
        with pytest.raises(ValidationError):
            table_from_text("3\n0 1 2\n")
        with pytest.raises(ValidationError):
            table_from_text("2\n0 5\n0 1\n\n0 1\n1 0\n")
