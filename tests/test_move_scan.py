"""Move-site scan order and completeness.

Walk traces pin the order of every site list, because a walk picks a site
by its index; the oracle pins the sets, by offering every tuple of
adjacent pairs to apply_move and keeping the ones it accepts.
"""

import itertools
import random

import pytest

from vknot import all_flat_knot_codes, apply_move, find_move_sites, \
    random_walk, resolutions, serialize
from vknot import moves
from vknot.cli import _default_seeds
from vknot.errors import StaleSiteError
from vknot.gauss_code import SignedGaussCode
from vknot.moves import ANTIPARALLEL, COHERENT, MoveSite, R1_DELETE, \
    R2_DELETE, R3

from conftest import random_link_code, with_triangle

# random_walk(_default_seeds()[i], 20, s) for key (i, s): the result code
# and the trace, recorded before the site scan became one pass.
PINNED_WALKS = {
    (0, 0): (
        "O1+ O2- O3+ O4- U4- U5+ U1+ O6- U6- O5+ U2- O7- U7- U3+",
        (
            "R2_insert gaps=0:3,0:0 sign=- antiparallel",
            "R2_insert gaps=0:4,0:7 sign=- coherent",
            "R2_delete pairs=0:4,0:9 coherent",
            "R2_insert gaps=0:2,0:1 sign=- coherent",
            "R2_insert gaps=0:1,0:11 sign=+ antiparallel",
            "R2_insert gaps=0:3,0:11 sign=- antiparallel",
            "R2_delete pairs=0:8,0:11 antiparallel",
            "R1_insert gaps=0:15 sign=-",
            "R2_insert gaps=0:1,0:17 sign=+ coherent",
            "R2_delete pairs=0:5,0:11 antiparallel",
            "R1_insert gaps=0:15 sign=-",
            "R1_delete pairs=0:15",
            "R1_insert gaps=0:6 sign=+",
            "R1_delete pairs=0:6",
            "R2_delete pairs=0:1,0:15 coherent",
            "R1_insert gaps=0:5 sign=-",
            "R1_insert gaps=0:9 sign=-",
            "R1_insert gaps=0:17 sign=-",
            "R1_delete pairs=0:15",
            "R2_delete pairs=0:1,0:13 antiparallel",
        )),
    (0, 1): (
        ("O1+ O2+ O3+ O4- O5+ O6- O7+ O8- O9+ U2+ U5+ O10- O11+ U11+ "
         "U6- U7+ U3+ U4- U10- O12- U13- O14+ U14+ U8- U9+ U1+ U12- "
         "O13-"),
        (
            "R1_insert gaps=0:0 sign=-",
            "R1_insert gaps=0:3 sign=-",
            "R1_delete pairs=0:6",
            "R1_insert gaps=0:0 sign=-",
            "R1_insert gaps=0:6 sign=-",
            "R2_insert gaps=0:0,0:7 sign=- coherent",
            "R1_insert gaps=0:5 sign=+",
            "R1_insert gaps=0:0 sign=+",
            "R2_delete pairs=0:4,0:6 antiparallel",
            "R1_delete pairs=0:9",
            "R2_insert gaps=0:3,0:7 sign=- coherent",
            "R2_insert gaps=0:7,0:7 sign=- antiparallel",
            "R1_insert gaps=0:13 sign=+",
            "R1_delete pairs=0:20",
            "R2_insert gaps=0:3,0:10 sign=- coherent",
            "R2_insert gaps=0:9,0:18 sign=- antiparallel",
            "R1_insert gaps=0:15 sign=+",
            "R2_delete pairs=0:9,0:22 antiparallel",
            "R1_delete pairs=0:13",
            "R2_insert gaps=0:2,0:14 sign=+ coherent",
        )),
    (0, 2): (
        "O1+ O2+ O3- O4+ U2+ U3- O5- U5- U1+ U4+",
        (
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:4",
            "R2_insert gaps=0:2,0:1 sign=+ coherent",
            "R2_insert gaps=0:6,0:5 sign=- antiparallel",
            "R1_insert gaps=0:0 sign=-",
            "R2_delete pairs=0:8,0:5 antiparallel",
            "R2_delete pairs=0:1,0:6 coherent",
            "R2_insert gaps=0:1,0:4 sign=+ coherent",
            "R1_delete pairs=0:3",
            "R1_insert gaps=0:5 sign=+",
            "R1_insert gaps=0:8 sign=-",
            "R2_insert gaps=0:10,0:8 sign=+ antiparallel",
            "R2_delete pairs=0:12,0:8 antiparallel",
            "R2_insert gaps=0:5,0:5 sign=- coherent",
            "R2_delete pairs=0:5,0:7 coherent",
            "R2_insert gaps=0:8,0:3 sign=- antiparallel",
            "R2_delete pairs=0:10,0:3 antiparallel",
            "R2_insert gaps=0:7,0:7 sign=- antiparallel",
            "R2_delete pairs=0:7,0:9 antiparallel",
            "R1_delete pairs=0:5",
        )),
    (1, 0): (
        ("O1+ O2+ O3- U4+ U5- U6+ U7- O8+ U9+ O10+ U11+ U8+ O12- U12- "
         "U13- O9+ U10+ O11+ U14- U3- U2+ U1+ O13- O15- U15- O16+ O7- "
         "O6+ O17- O5- U17- U16+ O4+ O14-"),
        (
            "R2_insert gaps=0:3,0:0 sign=- antiparallel",
            "R2_insert gaps=0:4,0:7 sign=- coherent",
            "R2_delete pairs=0:13,0:4 coherent",
            "R2_insert gaps=0:2,0:1 sign=- coherent",
            "R2_insert gaps=0:1,0:11 sign=+ antiparallel",
            "R2_insert gaps=0:17,0:3 sign=- antiparallel",
            "R2_insert gaps=0:19,0:20 sign=+ antiparallel",
            "R2_insert gaps=0:16,0:8 sign=+ coherent",
            "R1_insert gaps=0:23 sign=-",
            "R1_insert gaps=0:31 sign=-",
            "R1_delete pairs=0:31",
            "R1_insert gaps=0:12 sign=+",
            "R1_delete pairs=0:12",
            "R2_delete pairs=0:18,0:8 coherent",
            "R1_insert gaps=0:10 sign=-",
            "R1_insert gaps=0:9 sign=-",
            "R1_insert gaps=0:21 sign=+",
            "R2_insert gaps=0:28,0:5 sign=- antiparallel",
            "R1_delete pairs=0:23",
            "R1_delete pairs=0:11",
        )),
    (1, 1): (
        ("O1+ O2+ U3+ O4+ O5- O6- O7+ O8+ U9- U1+ U2+ O3+ U10- U6- U7+ "
         "U11+ U4+ O9- U5- O11+ O10- U8+"),
        (
            "R1_insert gaps=0:4 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:3,0:3 sign=- coherent",
            "R1_insert gaps=0:7 sign=+",
            "R2_delete pairs=0:7,0:9 coherent",
            "R1_insert gaps=0:7 sign=-",
            "R1_delete pairs=0:1",
            "R1_delete pairs=0:1",
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:5,0:0 sign=+ antiparallel",
            "R2_insert gaps=0:8,0:3 sign=- coherent",
            "R2_delete pairs=0:1,0:6 antiparallel",
            "R2_insert gaps=0:4,0:0 sign=- coherent",
            "R1_insert gaps=0:10 sign=-",
            "R1_insert gaps=0:10 sign=-",
            "R1_delete pairs=0:12",
            "R2_insert gaps=0:15,0:12 sign=+ antiparallel",
            "R1_delete pairs=0:10",
            "R2_insert gaps=0:5,0:11 sign=- coherent",
        )),
    (1, 2): (
        ("O1+ O2+ O3- U4+ U5- U3- O6- O7+ O8- U9+ U2+ U6- U8- U7+ O5- "
         "O4+ O10+ U1+ O9+ U10+"),
        (
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:2,0:4 sign=+ coherent",
            "R2_delete pairs=0:0,0:4 coherent",
            "R2_insert gaps=0:5,0:3 sign=- antiparallel",
            "R2_delete pairs=0:1,0:7 antiparallel",
            "R1_insert gaps=0:0 sign=-",
            "R1_delete pairs=0:6",
            "R2_insert gaps=0:3,0:4 sign=+ coherent",
            "R1_insert gaps=0:3 sign=+",
            "R1_delete pairs=0:3",
            "R1_insert gaps=0:2 sign=-",
            "R2_insert gaps=0:10,0:8 sign=+ antiparallel",
            "R2_delete pairs=0:12,0:8 antiparallel",
            "R2_insert gaps=0:5,0:5 sign=- coherent",
            "R2_delete pairs=0:5,0:7 coherent",
            "R2_insert gaps=0:8,0:3 sign=- antiparallel",
            "R2_insert gaps=0:11,0:14 sign=- antiparallel",
            "R2_delete pairs=0:19,0:4 antiparallel",
            "R2_insert gaps=0:7,0:10 sign=+ antiparallel",
        )),
    (2, 0): (
        ("O1+ O2+ O3- U4+ U5- U6+ U7- O8+ U9- O10+ U11+ U8+ O12- U12- "
         "U13- O9- U10+ O11+ U14- U3- U2+ U1+ O13- O15- U15- O16+ O7- "
         "O6+ O17- O5- U17- U16+ O4+ O14-"),
        (
            "R2_insert gaps=0:3,0:0 sign=- antiparallel",
            "R2_insert gaps=0:4,0:7 sign=- coherent",
            "R2_delete pairs=0:13,0:4 coherent",
            "R2_insert gaps=0:2,0:1 sign=- coherent",
            "R2_insert gaps=0:1,0:11 sign=+ antiparallel",
            "R2_insert gaps=0:17,0:3 sign=- antiparallel",
            "R2_insert gaps=0:19,0:20 sign=+ antiparallel",
            "R2_insert gaps=0:16,0:8 sign=+ coherent",
            "R1_insert gaps=0:23 sign=-",
            "R1_insert gaps=0:31 sign=-",
            "R1_delete pairs=0:31",
            "R1_insert gaps=0:12 sign=+",
            "R1_delete pairs=0:12",
            "R2_delete pairs=0:18,0:8 coherent",
            "R1_insert gaps=0:10 sign=-",
            "R1_insert gaps=0:9 sign=-",
            "R1_insert gaps=0:21 sign=+",
            "R2_insert gaps=0:28,0:5 sign=- antiparallel",
            "R1_delete pairs=0:23",
            "R1_delete pairs=0:11",
        )),
    (2, 1): (
        "O1+ O2- O3+ U1+ U2- U3+ O4- U5+ O6+ U6+ O7+ U4- O5+ U7+",
        (
            "R1_insert gaps=0:4 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:3,0:3 sign=- coherent",
            "R1_insert gaps=0:7 sign=+",
            "R2_delete pairs=0:8,0:10 coherent",
            "R2_insert gaps=0:0,0:7 sign=- coherent",
            "R1_insert gaps=0:5 sign=+",
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:14",
            "R1_delete pairs=0:5",
            "R1_insert gaps=0:8 sign=+",
            "R2_delete pairs=0:13,0:10 coherent",
            "R2_insert gaps=0:3,0:5 sign=+ coherent",
            "R2_delete pairs=0:0,0:4 coherent",
            "R1_insert gaps=0:6 sign=+",
            "R1_insert gaps=0:10 sign=-",
            "R1_insert gaps=0:11 sign=-",
            "R2_delete pairs=0:0,0:2 antiparallel",
            "R1_delete pairs=0:6",
            "R2_insert gaps=0:7,0:8 sign=- coherent",
        )),
    (2, 2): (
        ("O1+ O2+ U3+ O4- U5+ O6- O7+ U2+ U8- O9- U7+ U6- O10+ U1+ "
         "U11- O3+ U4- O5+ O8- U10+ U9- O11-"),
        (
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:2,0:4 sign=+ coherent",
            "R2_delete pairs=0:0,0:4 coherent",
            "R2_insert gaps=0:5,0:3 sign=- antiparallel",
            "R2_delete pairs=0:1,0:7 antiparallel",
            "R1_insert gaps=0:0 sign=-",
            "R1_delete pairs=0:6",
            "R2_insert gaps=0:3,0:4 sign=+ coherent",
            "R1_insert gaps=0:3 sign=+",
            "R1_delete pairs=0:3",
            "R1_insert gaps=0:2 sign=-",
            "R1_delete pairs=0:2",
            "R2_insert gaps=0:8,0:5 sign=- antiparallel",
            "R2_insert gaps=0:2,0:12 sign=- antiparallel",
            "R2_delete pairs=0:4,0:7 coherent",
            "R2_insert gaps=0:4,0:7 sign=- antiparallel",
            "R2_insert gaps=0:11,0:17 sign=- antiparallel",
            "R2_delete pairs=0:4,0:9 antiparallel",
            "R2_insert gaps=0:5,0:8 sign=- antiparallel",
        )),
    (3, 0): (
        ("O1+ O2+ O3- U4+ U5- U6+ U7- O8+ U9+ U8+ U1+ U10- O11- U11- "
         "O12+ U13- U14+ O9+ O13- U3- U2+ O14+ U12+ O15- U15- O16+ O7- "
         "O6+ O17- O5- U17- U16+ O4+ O10-"),
        (
            "R2_insert gaps=0:3,0:0 sign=- antiparallel",
            "R2_insert gaps=0:4,0:7 sign=- coherent",
            "R2_delete pairs=0:13,0:4 coherent",
            "R2_insert gaps=0:2,0:1 sign=- coherent",
            "R2_insert gaps=0:1,0:11 sign=+ antiparallel",
            "R2_insert gaps=0:17,0:3 sign=- antiparallel",
            "R2_insert gaps=0:19,0:20 sign=+ antiparallel",
            "R2_insert gaps=0:16,0:8 sign=+ coherent",
            "R1_insert gaps=0:23 sign=-",
            "R1_insert gaps=0:31 sign=-",
            "R1_delete pairs=0:31",
            "R1_insert gaps=0:12 sign=+",
            "R1_delete pairs=0:12",
            "R2_delete pairs=0:18,0:8 coherent",
            "R1_insert gaps=0:10 sign=-",
            "R1_insert gaps=0:9 sign=-",
            "R1_insert gaps=0:21 sign=+",
            "R2_insert gaps=0:28,0:5 sign=- antiparallel",
            "R1_delete pairs=0:23",
            "R1_delete pairs=0:11",
        )),
    (3, 1): (
        ("O1+ O2+ U1+ O3+ O4- O5+ U2+ O6- O7+ U4- O8+ U8+ U3+ U5+ U6- "
         "U7+"),
        (
            "R1_insert gaps=0:4 sign=+",
            "R2_insert gaps=0:1,0:7 sign=- antiparallel",
            "R2_delete pairs=0:8,0:4 antiparallel",
            "R1_insert gaps=0:7 sign=+",
            "R1_delete pairs=0:7",
            "R1_insert gaps=0:7 sign=-",
            "R2_insert gaps=0:3,0:9 sign=+ antiparallel",
            "R1_insert gaps=0:0 sign=+",
            "R1_insert gaps=0:12 sign=+",
            "R1_delete pairs=0:6",
            "R2_insert gaps=0:7,0:14 sign=- coherent",
            "R2_insert gaps=0:7,0:7 sign=- antiparallel",
            "R1_insert gaps=0:13 sign=+",
            "R1_delete pairs=0:15",
            "R1_insert gaps=0:23 sign=-",
            "R2_delete pairs=0:22,0:24 antiparallel",
            "R1_delete pairs=0:13",
            "R2_insert gaps=0:18,0:15 sign=- coherent",
            "R2_delete pairs=0:7,0:9 antiparallel",
            "R2_delete pairs=0:16,0:11 coherent",
        )),
    (3, 2): (
        "O1+ O2+ O3- O4+ U3- U2+ U1+ U4+",
        (
            "R1_insert gaps=0:0 sign=+",
            "R2_insert gaps=0:2,0:4 sign=- coherent",
            "R3 pairs=0:0,0:4,0:8",
            "R1_delete pairs=0:10",
            "R2_delete pairs=0:2,0:6 coherent",
            "R2_insert gaps=0:3,0:4 sign=- coherent",
            "R1_insert gaps=0:5 sign=-",
            "R2_insert gaps=0:6,0:6 sign=+ coherent",
            "R1_delete pairs=0:15",
            "R1_insert gaps=0:2 sign=-",
            "R1_delete pairs=0:2",
            "R2_delete pairs=0:5,0:7 coherent",
            "R1_delete pairs=0:4",
            "R2_insert gaps=0:5,0:5 sign=- antiparallel",
            "R1_delete pairs=0:6",
            "R2_delete pairs=0:2,0:7 coherent",
            "R1_delete pairs=0:3",
            "R2_insert gaps=0:2,0:3 sign=- antiparallel",
            "R2_delete pairs=0:2,0:5 antiparallel",
            "R2_insert gaps=0:1,0:2 sign=+ antiparallel",
        )),
    (4, 0): (
        ("O1+ U1+ O2- U2- O3+ U4+ O5- O6+ U7- O8- U8- O9- O10+ U10+ "
         "U6+ U5- O11+ U11+ U3+ O7- O4+ U9-"),
        (
            "R1_delete pairs=0:0",
            "R1_insert gaps=0:0 sign=-",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:0,0:0 sign=+ antiparallel",
            "R1_delete pairs=0:1",
            "R2_insert gaps=0:1,0:0 sign=- coherent",
            "R2_delete pairs=0:0,0:3 coherent",
            "R2_insert gaps=0:1,0:1 sign=+ antiparallel",
            "R2_delete pairs=0:1,0:3 antiparallel",
            "R2_insert gaps=0:0,0:1 sign=- antiparallel",
            "R1_insert gaps=0:4 sign=+",
            "R1_insert gaps=0:6 sign=+",
            "R2_delete pairs=0:9,0:2 antiparallel",
            "R1_insert gaps=0:5 sign=-",
            "R2_insert gaps=0:1,0:3 sign=+ coherent",
            "R1_delete pairs=0:11",
            "R1_insert gaps=0:1 sign=-",
            "R2_insert gaps=0:7,0:1 sign=- antiparallel",
            "R1_insert gaps=0:10 sign=+",
            "R2_insert gaps=0:14,0:2 sign=- antiparallel",
        )),
    (4, 1): (
        "O1+ O2+ O3- U1+ U3- U4- U5+ U2+ O5+ O4-",
        (
            "R1_insert gaps=0:0 sign=-",
            "R1_insert gaps=0:3 sign=-",
            "R1_delete pairs=0:3",
            "R1_insert gaps=0:0 sign=-",
            "R1_insert gaps=0:3 sign=-",
            "R2_insert gaps=0:0,0:7 sign=- coherent",
            "R1_insert gaps=0:5 sign=+",
            "R1_insert gaps=0:0 sign=+",
            "R2_delete pairs=0:4,0:6 antiparallel",
            "R1_delete pairs=0:10",
            "R1_insert gaps=0:8 sign=+",
            "R2_delete pairs=0:11,0:6 coherent",
            "R1_delete pairs=0:2",
            "R1_delete pairs=0:0",
            "R2_delete pairs=0:3,0:1 antiparallel",
            "R1_insert gaps=0:0 sign=+",
            "R1_insert gaps=0:1 sign=+",
            "R2_insert gaps=0:2,0:3 sign=+ antiparallel",
            "R2_insert gaps=0:7,0:6 sign=+ antiparallel",
            "R1_delete pairs=0:11",
        )),
    (4, 2): (
        "O1+ U1+",
        (
            "R1_insert gaps=0:0 sign=+",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:1,0:1 sign=+ coherent",
            "R1_delete pairs=0:5",
            "R2_delete pairs=0:0,0:2 coherent",
            "R2_insert gaps=0:0,0:0 sign=+ coherent",
            "R2_insert gaps=0:3,0:2 sign=- antiparallel",
            "R2_delete pairs=0:5,0:2 antiparallel",
            "R2_delete pairs=0:0,0:2 coherent",
            "R1_insert gaps=0:0 sign=+",
            "R1_insert gaps=0:1 sign=+",
            "R1_insert gaps=0:2 sign=+",
            "R1_delete pairs=0:5",
            "R2_insert gaps=0:2,0:2 sign=- antiparallel",
            "R1_delete pairs=0:7",
            "R2_delete pairs=0:0,0:4 antiparallel",
            "R1_delete pairs=0:0",
            "R2_insert gaps=0:0,0:0 sign=- antiparallel",
            "R2_delete pairs=0:3,0:1 antiparallel",
            "R1_insert gaps=0:0 sign=+",
        )),
}


@pytest.mark.parametrize("key", sorted(PINNED_WALKS), ids=str)
def test_walk_matches_recorded_trace(key):
    index, seed = key
    expected_code, expected_trace = PINNED_WALKS[key]
    result = random_walk(_default_seeds()[index], 20, seed)
    assert result.trace == expected_trace
    assert serialize(result.code) == expected_code


def test_walk_step_scans_pairs_once(monkeypatch):
    scans = []
    adjacent_pairs = moves._adjacent_pairs

    def counting(code):
        scans.append(code)
        return adjacent_pairs(code)

    monkeypatch.setattr(moves, "_adjacent_pairs", counting)
    result = random_walk(_default_seeds()[3], 20, 2)
    assert len(result.trace) == 20
    assert len(scans) == 20


def _rotated(rng, code):
    return SignedGaussCode(tuple(
        comp[r:] + comp[:r] for comp in code.components
        for r in [rng.randrange(len(comp) or 1)]))


def _oracle_codes():
    """Every knot with 1-3 crossings, seeded 2-component links, and seeded
    1-3-component links with an all-positive triangle spliced in, each
    component rotated so that pairs also wrap around its end."""
    codes = [code for n in (1, 2, 3) for flat in all_flat_knot_codes(n)
             for code in resolutions(flat)]
    rng = random.Random(20261018)
    codes += [random_link_code(rng, rng.randrange(1, 5), 2) for _ in range(30)]
    codes += [_rotated(rng, with_triangle(
        rng, random_link_code(rng, rng.randrange(0, 3), k)))
        for k in (1, 2, 3) for _ in range(10)]
    return codes


def _accepted(code, kind, tuples, variants=("",)):
    out = set()
    for pairs in tuples:
        for variant in variants:
            try:
                apply_move(code, MoveSite(kind, pairs=pairs, variant=variant))
            except StaleSiteError:
                continue
            out.add((pairs, variant))
    return out


def _curl_key(code, pair):
    ci, i = pair
    return ci, frozenset((i, (i + 1) % len(code.components[ci])))


def test_sites_equal_what_apply_move_accepts():
    found = {R1_DELETE: 0, R2_DELETE: 0, R3: 0}
    for code in _oracle_codes():
        pairs = [(ci, i) for ci, comp in enumerate(code.components)
                 if len(comp) >= 2 for i in range(len(comp))]
        singles = [(p,) for p in pairs]
        curls = find_move_sites(code, R1_DELETE)
        # a curl alone on its component is one site, not two
        keys = [_curl_key(code, site.pairs[0]) for site in curls]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {_curl_key(code, p[0]) for p, _v in
                             _accepted(code, R1_DELETE, singles)}
        pokes = find_move_sites(code, R2_DELETE)
        assert {(s.pairs, s.variant) for s in pokes} == _accepted(
            code, R2_DELETE, itertools.product(pairs, repeat=2),
            (COHERENT, ANTIPARALLEL))
        assert len(set(pokes)) == len(pokes)
        triangles = find_move_sites(code, R3)
        assert {(s.pairs, "") for s in triangles} == _accepted(
            code, R3, itertools.product(pairs, repeat=3))
        assert len(set(triangles)) == len(triangles)
        for kind, sites in ((R1_DELETE, curls), (R2_DELETE, pokes),
                            (R3, triangles)):
            found[kind] += len(sites)
    assert all(found.values()), found
