"""Shared fixtures and diagram generators for the test suite."""

from __future__ import annotations

import random

import pytest

from vknot import Passage, SignedGaussCode, parse_signed
from vknot.gauss_code import OVER, UNDER


def braid_closure(word: list[int], strands: int) -> SignedGaussCode:
    """Gauss code of the closure of a braid word.

    Generators are 1..strands-1; negative entries are inverses.  Positive
    generators put the left strand on top.  Braid closures are planar
    diagrams, so every output is a classical knot or link.
    """
    position = {i: i for i in range(1, strands + 1)}  # position -> strand id
    visits: dict[int, list[Passage]] = {i: [] for i in range(1, strands + 1)}
    for cid, letter in enumerate(word, start=1):
        i = abs(letter)
        sign = 1 if letter > 0 else -1
        left, right = position[i], position[i + 1]
        over, under = (left, right) if letter > 0 else (right, left)
        visits[over].append(Passage(cid, OVER, sign))
        visits[under].append(Passage(cid, UNDER, sign))
        position[i], position[i + 1] = right, left
    # closure joins bottom position i back to top position i
    successor = {position[i]: i for i in range(1, strands + 1)}
    components = []
    remaining = set(range(1, strands + 1))
    while remaining:
        start = min(remaining)
        cycle: list[Passage] = []
        strand = start
        while True:
            remaining.discard(strand)
            cycle.extend(visits[strand])
            strand = successor[strand]
            if strand == start:
                break
        components.append(tuple(cycle))
    return SignedGaussCode(tuple(components))


# Verified against the Alexander polynomial of each braid word.
CLASSICAL_BRAIDS = {
    "trefoil": ([1, 1, 1], 2),
    "figure_eight": ([1, -2, 1, -2], 3),
    "5_1": ([1, 1, 1, 1, 1], 2),
    "5_2": ([1, 1, 1, 2, -1, 2], 3),
}


@pytest.fixture(scope="session")
def classical_corpus() -> dict[str, SignedGaussCode]:
    corpus = {name: braid_closure(word, strands)
              for name, (word, strands) in CLASSICAL_BRAIDS.items()}
    corpus["trefoil_table"] = parse_signed("O1+ U2+ O3+ U1+ O2+ U3+")
    for code in corpus.values():
        assert len(code.components) == 1
    return corpus


def random_knot_code(rng: random.Random, n_crossings: int) -> SignedGaussCode:
    """A uniformly scrambled one-component signed code with n crossings."""
    slots = list(range(2 * n_crossings))
    rng.shuffle(slots)
    word: list[Passage | None] = [None] * (2 * n_crossings)
    for cid in range(1, n_crossings + 1):
        a, b = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice((1, -1))
        word[a] = Passage(cid, OVER, sign)
        word[b] = Passage(cid, UNDER, sign)
    return SignedGaussCode((tuple(word),))


def random_link_code(rng: random.Random, n_crossings: int,
                     n_components: int) -> SignedGaussCode:
    """A random signed link code; components may share or hoard crossings."""
    total = 2 * n_crossings
    sizes = [0] * n_components
    for _ in range(total):
        sizes[rng.randrange(n_components)] += 1
    slots = [(ci, pi) for ci, size in enumerate(sizes) for pi in range(size)]
    rng.shuffle(slots)
    comps: list[list] = [[None] * size for size in sizes]
    for cid in range(1, n_crossings + 1):
        (ca, pa), (cb, pb) = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice((1, -1))
        comps[ca][pa] = Passage(cid, OVER, sign)
        comps[cb][pb] = Passage(cid, UNDER, sign)
    return SignedGaussCode(tuple(tuple(c) for c in comps))


def with_triangle(rng, code):
    """Splice the all-positive triangle (O_a O_b) (U_a O_c) (U_b U_c), fresh
    ids a, b, c, into the components: each pair goes to a random component,
    and a component's pairs sit together at one random gap."""
    a = max(code.crossing_ids(), default=0) + 1
    b, c = a + 1, a + 2
    pieces = [[] for _ in code.components]
    for pair in ((Passage(a, OVER, 1), Passage(b, OVER, 1)),
                 (Passage(a, UNDER, 1), Passage(c, OVER, 1)),
                 (Passage(b, UNDER, 1), Passage(c, UNDER, 1))):
        pieces[rng.randrange(len(pieces))].extend(pair)
    comps = []
    for comp, piece in zip(code.components, pieces):
        slot = rng.randrange(len(comp) + 1)
        comps.append(comp[:slot] + tuple(piece) + comp[slot:])
    return SignedGaussCode(tuple(comps))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
