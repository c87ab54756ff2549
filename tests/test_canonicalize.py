"""Independent oracles for canonicalize and the flat knot census."""

import itertools
import random
from dataclasses import replace

import pytest

from vknot import Passage, canonicalize, forget, parse_signed, serialize
from vknot.gauss_code import LEFT, OVER, all_flat_knot_codes
from conftest import random_knot_code, random_link_code


def _token_key(p) -> tuple[int, int, int]:
    # O and L sort before U and R; '+' before '-'
    if isinstance(p, Passage):
        return (1 if p.role == OVER else 2, p.crossing, 0 if p.sign > 0 else 1)
    return (1 if p.role == LEFT else 2, p.crossing, 0)


_SEPARATOR_KEY = (0, 0, 0)


def reference_canonicalize(code):
    """Brute-force canonical form: relabel and key every rotation of every
    component order, and keep the smallest token stream."""
    comps = code.components
    if not comps:
        return code
    best_key = None
    best_comps = None
    for perm in itertools.permutations(range(len(comps))):
        ranges = [range(max(len(comps[ci]), 1)) for ci in perm]
        for rots in itertools.product(*ranges):
            relabel: dict[int, int] = {}
            key = []
            new_comps = []
            for ci, r in zip(perm, rots):
                comp = comps[ci]
                rotated = comp[r:] + comp[:r]
                new_comp = []
                for p in rotated:
                    cid = relabel.setdefault(p.crossing, len(relabel) + 1)
                    np = replace(p, crossing=cid)
                    new_comp.append(np)
                    key.append(_token_key(np))
                key.append(_SEPARATOR_KEY)
                new_comps.append(tuple(new_comp))
            tkey = tuple(key)
            if best_key is None or tkey < best_key:
                best_key = tkey
                best_comps = tuple(new_comps)
    return type(code)(best_comps)


TIE_CASES = (
    "O1+ U1+ ; O2+ U2+ ; O3+ U3+",
    "() ; () ; O1+ U1+",
    "O1+ U1+ ; () ; O2- U2-",
    "() ; ()",
    "()",
    "O1+ U2+ ; O2+ U1+",
    "O1+ U2+ ; O2+ U3+ ; O3+ U1+",
    "O1+ O2+ U1+ U2+ ; O3+ O4+ U3+ U4+",
)


def _seeded_codes():
    rng = random.Random(4242)
    codes = [random_knot_code(rng, n) for n in range(13) for _ in range(12)]
    codes += [random_link_code(rng, n, k) for k in (2, 3, 4)
              for n in range(9) for _ in range(4)]
    return codes + [parse_signed(text) for text in TIE_CASES]


@pytest.mark.parametrize("flat", [False, True], ids=["signed", "flat"])
def test_matches_reference(flat):
    for code in _seeded_codes():
        if flat:
            code = forget(code)
        assert canonicalize(code) == reference_canonicalize(code), \
            serialize(code)


def _oriented_matchings(points: int):
    """Every oriented chord diagram on points 0..points-1, as a tuple whose
    entry i is (offset of i's partner, 1 if i is the chord's tail else 0)."""
    def matchings(free):
        if not free:
            yield []
            return
        first = free[0]
        for i in range(1, len(free)):
            for rest in matchings(free[1:i] + free[i + 1:]):
                yield [(first, free[i])] + rest
    for pairs in matchings(list(range(points))):
        for tails in itertools.product((0, 1), repeat=len(pairs)):
            word = [None] * points
            for (a, b), tail_first in zip(pairs, tails):
                word[a] = ((b - a) % points, tail_first)
                word[b] = ((a - b) % points, 1 - tail_first)
            yield tuple(word)


def burnside_flat_census(n: int) -> int:
    """Flat one-component codes with n crossings up to rotation and
    relabeling: oriented chord diagrams on 2n cyclic points, counted by
    Burnside as (1 / 2n) * sum over rotations of the fixed diagrams."""
    if n == 0:
        return 1
    points = 2 * n
    fixed = [0] * points
    for word in _oriented_matchings(points):
        for r in range(points):
            if word[r:] + word[:r] == word:
                fixed[r] += 1
    total = sum(fixed)
    assert total % points == 0
    return total // points


def test_burnside_census_matches_all_flat_knot_codes():
    counts = [burnside_flat_census(n) for n in range(6)]
    assert counts == [1, 1, 4, 22, 218, 3028]
    assert counts == [len(all_flat_knot_codes(n)) for n in range(6)]
