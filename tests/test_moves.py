import pytest

from vknot import (
    affine_index_polynomial,
    apply_move,
    canonicalize,
    find_move_sites,
    flat_random_walk,
    forget,
    invariance_report,
    parse_flat,
    parse_signed,
    random_walk,
    serialize,
    writhe,
)
from vknot import moves
from vknot.errors import StaleSiteError
from vknot.moves import (
    ANTIPARALLEL,
    COHERENT,
    MoveSite,
    R1_DELETE,
    R1_INSERT,
    R2_DELETE,
    R2_INSERT,
    R3,
)
from vknot.gauss_code import SignedGaussCode

from conftest import random_knot_code

VT = "O1+ O2+ U1+ U2+"


def _swap_pairs(code: SignedGaussCode, pairs) -> SignedGaussCode:
    """Swap each adjacent pair in place, without pattern checks.

    Applying the same pairs twice restores the code; used to exercise the
    involution property of the triangle move.
    """
    components = [list(comp) for comp in code.components]
    for ci, i in pairs:
        comp = components[ci]
        j = (i + 1) % len(comp)
        comp[i], comp[j] = comp[j], comp[i]
    return SignedGaussCode(tuple(tuple(comp) for comp in components))


class TestFindSites:
    def test_r2_delete_across_seam(self):
        sites = find_move_sites(parse_signed("U1- O2+ O1- U2+"), R2_DELETE)
        assert len(sites) == 1
        assert sites[0].variant == COHERENT
        assert sites[0].pairs == ((0, 1), (0, 3))

    def test_r1_delete(self):
        sites = find_move_sites(parse_signed("O1+ U1+ O2+ O3+ U2+ U3+"), R1_DELETE)
        assert [s.pairs for s in sites] == [((0, 0),)]

    def test_r3(self):
        sites = find_move_sites(parse_signed("O1+ O2+ U1+ O3+ U2+ U3+"), R3)
        assert [s.pairs for s in sites] == [((0, 0), (0, 2), (0, 4))]

    def test_r3_needs_positive_signs(self):
        code = parse_signed("O1- O2+ U1- O3+ U2+ U3+")
        assert find_move_sites(code, R3) == []

    def test_insert_sites_cover_gaps(self):
        code = parse_signed(VT)
        r1 = find_move_sites(code, R1_INSERT)
        assert len(r1) == 8  # 4 gaps x 2 signs
        r2 = find_move_sites(code, R2_INSERT)
        assert len(r2) == 64  # 16 gap pairs x 2 signs x 2 variants

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            find_move_sites(parse_signed(VT), "R4")


class TestApplyMove:
    def test_r2_delete_to_empty(self):
        code = parse_signed("U1- O2+ O1- U2+")
        site = find_move_sites(code, R2_DELETE)[0]
        assert serialize(apply_move(code, site)) == "()"

    def test_r1_delete(self):
        code = parse_signed("O1+ U1+ O2+ O3+ U2+ U3+")
        site = find_move_sites(code, R1_DELETE)[0]
        assert serialize(apply_move(code, site)) == "O2+ O3+ U2+ U3+"

    def test_r3_swap_and_invariance(self):
        code = parse_signed("O1+ O2+ U1+ O3+ U2+ U3+")
        site = find_move_sites(code, R3)[0]
        out = apply_move(code, site)
        assert serialize(out) == "O2+ O1+ O3+ U1+ U3+ U2+"
        assert affine_index_polynomial(out) == affine_index_polynomial(code)

    def test_r3_double_swap_restores(self):
        code = parse_signed("O1+ O2+ U1+ O3+ U2+ U3+")
        site = find_move_sites(code, R3)[0]
        assert _swap_pairs(_swap_pairs(code, site.pairs), site.pairs) == code

    def test_stale_site_rejected(self):
        # a site is a position plus a pattern: it applies wherever the
        # pattern matches there, and is stale where it does not
        code = parse_signed("O1+ U1+ O2+ O3+ U2+ U3+")
        site = find_move_sites(code, R1_DELETE)[0]
        relabeled = parse_signed("O3+ U3+ O1+ O2+ U1+ U2+")
        assert serialize(apply_move(relabeled, site)) == "O1+ O2+ U1+ U2+"
        rotated = parse_signed("O2+ O3+ U2+ U3+ O1+ U1+")
        with pytest.raises(StaleSiteError):
            apply_move(rotated, site)

    def test_hand_built_sites_are_matched(self):
        code = parse_signed(VT)
        with pytest.raises(StaleSiteError):
            apply_move(code, MoveSite(R1_DELETE, pairs=((0, 0),)))
        with pytest.raises(StaleSiteError):
            apply_move(code, MoveSite(R1_DELETE, pairs=((0, 7),)))
        with pytest.raises(StaleSiteError):
            apply_move(code, MoveSite(R3, pairs=((0, 0), (0, 1), (0, 2))))
        poke = parse_signed("U1- O2+ O1- U2+")
        site = find_move_sites(poke, R2_DELETE)[0]
        assert site.variant == COHERENT
        with pytest.raises(StaleSiteError):
            apply_move(poke, MoveSite(R2_DELETE, pairs=site.pairs,
                                      variant=ANTIPARALLEL))
        for kind in (R1_INSERT, R2_INSERT):
            with pytest.raises(ValueError):
                apply_move(code, MoveSite(kind, gaps=((0, 0), (0, 1)),
                                          variant=COHERENT))
        # a one-passage component has no adjacent pair to delete
        link = parse_signed("O1+ ; U1+")
        with pytest.raises(StaleSiteError):
            apply_move(link, MoveSite(R1_DELETE, pairs=((0, 0),)))

    def test_r1_insert_then_delete_is_identity(self):
        code = parse_signed(VT)
        for sign in (1, -1):
            for slot in range(4):
                site = MoveSite(R1_INSERT, gaps=((0, slot),), sign=sign)
                bigger = apply_move(code, site)
                deletions = find_move_sites(bigger, R1_DELETE)
                assert deletions
                restored = apply_move(bigger, deletions[0])
                assert canonicalize(restored) == canonicalize(code)

    def test_r2_insert_then_delete_is_identity(self):
        code = parse_signed(VT)
        for variant in (COHERENT, ANTIPARALLEL):
            site = MoveSite(R2_INSERT, gaps=((0, 1), (0, 3)), sign=1,
                            variant=variant)
            bigger = apply_move(code, site)
            assert bigger.n_crossings() == 4
            deletions = find_move_sites(bigger, R2_DELETE)
            assert deletions
            restored = apply_move(bigger, deletions[0])
            assert canonicalize(restored) == canonicalize(code)

    def test_insert_into_empty_component(self):
        code = parse_signed("()")
        site = MoveSite(R1_INSERT, gaps=((0, 0),), sign=1)
        assert serialize(apply_move(code, site)) == "O1+ U1+"

    def test_moves_preserve_polynomial_and_structure(self, rng):
        from vknot import validate
        for _ in range(30):
            code = random_knot_code(rng, rng.randrange(1, 6))
            p = affine_index_polynomial(code)
            w = writhe(code)
            for kind in (R1_DELETE, R2_DELETE, R3):
                for site in find_move_sites(code, kind):
                    out = apply_move(code, site)
                    assert validate(out) == []
                    assert affine_index_polynomial(out) == p
                    assert len(out.components) == len(code.components)
                    if kind == R1_DELETE:
                        assert abs(writhe(out) - w) == 1
                    else:
                        assert writhe(out) == w

    def test_insertions_produce_valid_codes(self, rng):
        from vknot import validate
        for _ in range(20):
            code = random_knot_code(rng, rng.randrange(1, 5))
            p = affine_index_polynomial(code)
            gaps = [(0, slot) for slot in range(max(len(code.components[0]), 1))]
            r1 = MoveSite(R1_INSERT, gaps=(rng.choice(gaps),),
                          sign=rng.choice((1, -1)))
            out = apply_move(code, r1)
            assert validate(out) == [] and affine_index_polynomial(out) == p
            r2 = MoveSite(R2_INSERT, gaps=(rng.choice(gaps), rng.choice(gaps)),
                          sign=rng.choice((1, -1)),
                          variant=rng.choice((COHERENT, ANTIPARALLEL)))
            out = apply_move(code, r2)
            assert validate(out) == [] and affine_index_polynomial(out) == p


class TestRandomWalk:
    def test_zero_steps(self):
        code = parse_signed(VT)
        result = random_walk(code, 0, 5)
        assert result.code == code
        assert result.trace == ()

    def test_deterministic(self):
        a = random_walk(parse_signed(VT), 25, 99)
        b = random_walk(parse_signed(VT), 25, 99)
        assert a == b

    def test_polynomial_invariance(self):
        code = parse_signed(VT)
        expected = affine_index_polynomial(code)
        for seed in range(6):
            result = random_walk(code, 20, seed)
            assert affine_index_polynomial(result.code) == expected

    def test_trace_length(self):
        result = random_walk(parse_signed(VT), 12, 3)
        assert len(result.trace) == 12


class TestInvarianceReport:
    def test_small_sweep_passes(self):
        seeds = [parse_signed(VT), parse_signed("O1+ U1+")]
        report = invariance_report(seeds, steps=10, trials=15, seed=4)
        assert report.ok
        assert report.trials == 30
        assert report.passed == 30

    def test_empty_seed_list(self):
        report = invariance_report([], steps=5, trials=5, seed=0)
        assert report.trials == 0 and report.ok

    def test_rejects_links(self):
        with pytest.raises(ValueError):
            invariance_report([parse_signed("O1+ U2+ ; U1+ O2+")], 5, 5, 0)

    def test_mutation_is_caught(self, monkeypatch):
        # a deliberately wrong triangle move: swap the pairs but also flip
        # the first crossing's sign
        from vknot.diagram_ops import virtualize
        real_apply = moves.apply_move

        def corrupted(code, site):
            out = real_apply(code, site)
            if site.kind == R3:
                ci, i = site.pairs[0]
                first = code.components[ci][i].crossing
                out = virtualize(out, {first})
            return out

        monkeypatch.setattr(moves, "apply_move", corrupted)
        seeds = [parse_signed("O1+ O2+ U1+ O3+ U2+ U3+")]
        report = invariance_report(seeds, steps=10, trials=40, seed=1)
        assert report.failures
        assert report.passed < report.trials
        failure = report.failures[0]
        assert any(line.startswith(R3) for line in failure.trace)


class TestFlatWalk:
    def test_flat_moves_preserve_crossing_parity_of_nothing_but_are_flat(self):
        flat = parse_flat("R1 R2 L1 L2")
        walked = flat_random_walk(flat, 10, 21)
        # the walk returns a genuine flat code related by flat moves
        assert walked.n_crossings() >= 0
        from vknot import validate
        assert validate(walked) == []

    def test_deterministic(self):
        flat = parse_flat("R1 R2 L1 L2")
        assert flat_random_walk(flat, 8, 2) == flat_random_walk(flat, 8, 2)
