"""Seeded input generators for the benchmark, text only.

The shapes follow the random knot and link generators of the test suite
(uniformly scrambled chord placements, random crossing signs, passages
dealt to components at random, so components may be empty), but live here
so that editing the tests cannot change the benchmark's inputs.  Codes are
tuples of components, each a tuple of passages: ``(role, crossing, sign)``
for signed codes and ``(role, crossing)`` for flat codes.  The program only
ever receives their text form.
"""

from __future__ import annotations

import itertools
import random

# flat role of a signed passage: the over strand of a positive crossing
# crosses to the right
_FLAT_ROLE = {("O", 1): "R", ("O", -1): "L", ("U", 1): "L", ("U", -1): "R"}


def knot_code(rng: random.Random, n_crossings: int):
    """A uniformly scrambled one-component signed code."""
    slots = list(range(2 * n_crossings))
    rng.shuffle(slots)
    word = [None] * (2 * n_crossings)
    for cid in range(1, n_crossings + 1):
        a, b = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice((1, -1))
        word[a] = ("O", cid, sign)
        word[b] = ("U", cid, sign)
    return (tuple(word),)


def link_code(rng: random.Random, n_crossings: int, n_components: int):
    """A random signed link code; passages are dealt to components at
    random, so a component may hoard crossings or stay empty."""
    sizes = [0] * n_components
    for _ in range(2 * n_crossings):
        sizes[rng.randrange(n_components)] += 1
    slots = [(ci, pi) for ci, size in enumerate(sizes) for pi in range(size)]
    rng.shuffle(slots)
    comps = [[None] * size for size in sizes]
    for cid in range(1, n_crossings + 1):
        (ca, pa), (cb, pb) = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice((1, -1))
        comps[ca][pa] = ("O", cid, sign)
        comps[cb][pb] = ("U", cid, sign)
    return tuple(tuple(c) for c in comps)


def forget(code):
    """The flat code underlying a signed code."""
    return tuple(tuple((_FLAT_ROLE[(role, sign)], cid) for role, cid, sign in comp)
                 for comp in code)


def flat_knot(rng: random.Random, n_crossings: int):
    """A random one-component flat code (a forgotten random knot code)."""
    return forget(knot_code(rng, n_crossings))


def role_imbalances(code) -> tuple[int, ...]:
    """Per-component #L - #R of a signed code; a link is colorable iff all
    are zero."""
    return tuple(sum(1 if role == "L" else -1 for role, _cid in comp)
                 for comp in forget(code))


def scramble(rng: random.Random, code):
    """The same diagram written differently: every component rotated,
    crossings renumbered, components reordered."""
    ids = sorted({p[1] for comp in code for p in comp})
    fresh = rng.sample(range(1, 4 * len(ids) + 2), len(ids))
    relabel = dict(zip(ids, fresh))
    comps = []
    for comp in code:
        r = rng.randrange(len(comp)) if comp else 0
        comps.append(tuple((p[0], relabel[p[1]]) + p[2:]
                           for p in comp[r:] + comp[:r]))
    rng.shuffle(comps)
    return tuple(comps)


def canonical(code):
    """Canonical form of a signed code, by vknot's definition but computed
    independently: crossings renumbered 1..n by first appearance, and the
    lexicographically smallest token stream over every rotation of each
    component and every component order, where a token is (role O=1/U=2,
    id, sign +=0/-=1) and each component ends with (0, 0, 0).  A candidate
    is dropped as soon as its stream exceeds the best one so far."""
    best_key, best = None, None
    for perm in itertools.permutations(range(len(code))):
        for rots in itertools.product(*(range(max(len(code[ci]), 1))
                                        for ci in perm)):
            relabel: dict[int, int] = {}
            key: list[int] = []
            undecided = best_key is not None   # key is a prefix of best_key
            for ci, r in zip(perm, rots):
                comp = code[ci]
                for role, cid, sign in comp[r:] + comp[:r]:
                    key += (1 if role == "O" else 2,
                            relabel.setdefault(cid, len(relabel) + 1),
                            0 if sign > 0 else 1)
                key += (0, 0, 0)
                if undecided:
                    mine, theirs = key, best_key[:len(key)]
                    if mine > theirs:
                        break
                    undecided = mine == theirs
            else:
                if best_key is None or key < best_key:
                    best_key, best = key, (perm, rots, relabel)
    if best is None:
        return code
    perm, rots, relabel = best
    return tuple(tuple((role, relabel[cid], sign)
                       for role, cid, sign in code[ci][r:] + code[ci][:r])
                 for ci, r in zip(perm, rots))


def to_text(code) -> str:
    """The code in vknot's text grammar."""
    def token(p):
        if len(p) == 3:
            return f"{p[0]}{p[1]}{'+' if p[2] > 0 else '-'}"
        return f"{p[0]}{p[1]}"
    return " ; ".join(" ".join(token(p) for p in comp) if comp else "()"
                      for comp in code)


def value_at_one(poly: str) -> int:
    """Evaluate a printed Laurent polynomial such as ``t^-1 - 2 + t`` at
    t = 1, i.e. sum its coefficients."""
    if poly == "0":
        return 0
    total = 0
    for term in poly.replace(" - ", " + -").split(" + "):
        if "t" in term:
            coeff = term[:term.index("t")]
            total += {"": 1, "-": -1}.get(coeff) or int(coeff)
        else:
            total += int(term)
    return total
