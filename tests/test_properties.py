"""Randomized and property-based checks of the structural invariants."""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from vknot import (
    SignedGaussCode,
    affine_index_polynomial,
    apply_move,
    canonicalize,
    colorability,
    crossing_weights,
    find_move_sites,
    forget,
    lambda_coloring,
    mirror,
    parse_signed,
    random_walk,
    resolutions,
    reverse,
    serialize,
    switch_crossings,
    validate,
    verify_coloring,
    writhe,
)
from vknot.moves import R1_DELETE, R1_INSERT, R2_DELETE, R2_INSERT, R3
from conftest import braid_closure, random_knot_code, random_link_code, \
    with_triangle

settings.register_profile("suite", deadline=None, derandomize=True,
                          max_examples=60)
settings.load_profile("suite")


@st.composite
def knot_codes(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    return random_knot_code(random.Random(seed), n) if n else \
        SignedGaussCode(((),))


@st.composite
def link_codes(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    code = random_link_code(random.Random(seed), n, k)
    return forget(code) if draw(st.booleans()) else code


@st.composite
def walked_links(draw):
    """Signed links with 1-3 components after a short random walk, so that
    delete sites occur, and half of them with an R3 site spliced in."""
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**30))
    rng = random.Random(seed)
    code = random_link_code(rng, n, k)
    code = random_walk(code, draw(st.integers(min_value=0, max_value=6)),
                       seed).code
    return with_triangle(rng, code) if draw(st.booleans()) else code


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=1, max_value=8))
    letters = st.integers(min_value=1, max_value=strands - 1)
    word = [draw(letters) * draw(st.sampled_from((1, -1)))
            for _ in range(length)]
    return word, strands


@given(knot_codes())
def test_parse_serialize_round_trip(code):
    assert parse_signed(serialize(code)) == code


@given(knot_codes())
def test_canonicalize_idempotent(code):
    canon = canonicalize(code)
    assert canonicalize(canon) == canon


@given(knot_codes(), st.integers(min_value=0, max_value=100))
def test_canonicalize_rotation_invariant(code, rot):
    comp = code.components[0]
    if not comp:
        return
    r = rot % len(comp)
    rotated = SignedGaussCode((comp[r:] + comp[:r],))
    assert canonicalize(rotated) == canonicalize(code)


@given(link_codes(), st.randoms(use_true_random=False))
def test_canonicalize_scramble_invariant_on_links(code, rnd):
    comps = list(code.components)
    rnd.shuffle(comps)
    comps = [c[r:] + c[:r] for c, r in
             ((c, rnd.randrange(max(len(c), 1))) for c in comps)]
    ids = sorted(code.crossing_ids())
    new_ids = rnd.sample(range(1, 10 * len(ids) + 2), len(ids))
    mapping = dict(zip(ids, new_ids))
    scrambled = type(code)(tuple(
        tuple(replace(p, crossing=mapping[p.crossing]) for p in comp)
        for comp in comps))
    assert canonicalize(scrambled) == canonicalize(code)


@given(knot_codes())
def test_involutions(code):
    assert mirror(mirror(code)) == code
    assert reverse(reverse(code)) == code


@given(knot_codes())
def test_switch_all_is_flat_identity(code):
    assert forget(switch_crossings(code, code.crossing_ids())) == forget(code)


@given(knot_codes())
def test_resolutions_partition(code):
    flat = forget(code)
    res = resolutions(flat)
    assert len(res) == 2 ** code.n_crossings()
    assert all(forget(r) == flat for r in res)
    assert serialize(code) in {serialize(r) for r in res}


@given(knot_codes())
def test_lambda_is_a_coloring_and_weights_balance(code):
    coloring = lambda_coloring(code)
    assert verify_coloring(code, coloring)
    table = crossing_weights(code, coloring)
    assert all(e.w_minus == -e.w_plus for e in table.entries)
    assert sum(e.sign * e.weight for e in table.entries) == 0


@given(knot_codes())
def test_symmetry_identities(code):
    p = affine_index_polynomial(code)
    assert affine_index_polynomial(reverse(code)) == p.invert_variable()
    assert affine_index_polynomial(mirror(code)) == -(p.invert_variable())
    assert writhe(mirror(code)) == -writhe(code)


@given(braid_words())
def test_braid_closures_are_classical(word_and_strands):
    """Planar diagrams have all weights zero, hence zero polynomial."""
    word, strands = word_and_strands
    code = braid_closure(word, strands)
    assert validate(code) == []
    if len(code.components) != 1:
        return
    table = crossing_weights(code)
    assert all(e.weight == 0 for e in table.entries)
    assert affine_index_polynomial(code).is_zero()


@given(st.integers(min_value=0, max_value=2**30),
       st.integers(min_value=1, max_value=5))
def test_random_walk_preserves_polynomial(seed, n):
    code = random_knot_code(random.Random(seed), n)
    expected = affine_index_polynomial(code)
    walked = random_walk(code, steps=8, seed=seed)
    assert affine_index_polynomial(walked.code) == expected


def test_scrambled_braid_closures_still_classical(rng):
    # rotating and relabeling a planar code keeps it planar
    for _ in range(20):
        length = rng.randrange(1, 9)
        strands = rng.randrange(2, 5)
        word = [rng.randrange(1, strands) * rng.choice((1, -1))
                for _ in range(length)]
        code = braid_closure(word, strands)
        if len(code.components) != 1:
            continue
        comp = code.components[0]
        r = rng.randrange(len(comp)) if comp else 0
        rotated = SignedGaussCode((comp[r:] + comp[:r],))
        assert all(e.weight == 0
                   for e in crossing_weights(rotated).entries)


def test_propagation_closure_equals_zero_imbalance(rng):
    from vknot import colorability, propagate_coloring
    from vknot.errors import UncolorableError
    from conftest import random_link_code
    for _ in range(40):
        code = random_link_code(rng, rng.randrange(1, 6), rng.randrange(1, 4))
        if validate(code):
            continue
        report = colorability(code)
        try:
            propagate_coloring(code)
            assert report.colorable
        except UncolorableError:
            assert not report.colorable


@given(walked_links(), st.randoms(use_true_random=False))
def test_apply_move_keeps_links_valid(code, rnd):
    """Every delete and R3 site, and sampled insert sites, give a valid code
    with the same components and per-component role imbalances."""
    imbalances = colorability(code).imbalances
    sites = [site for kind in (R1_DELETE, R2_DELETE, R3)
             for site in find_move_sites(code, kind)]
    for kind in (R1_INSERT, R2_INSERT):
        found = find_move_sites(code, kind)
        sites += rnd.sample(found, min(len(found), 4))
    for site in sites:
        moved = apply_move(code, site)
        assert validate(moved) == []
        assert len(moved.components) == len(code.components)
        assert colorability(moved).imbalances == imbalances
