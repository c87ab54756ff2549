"""Reidemeister move rewriting on signed Gauss codes.

The move set is a generating family sufficient for oriented invariance
checking: curls (move I) in both signs, pokes (move II) in coherent and
antiparallel orientation with opposite crossing signs, and the single
all-positive triangle move (III) realized as three simultaneous swaps of
adjacent passage pairs.  Adjacency is cyclic within a component; the pieces
of a II or III pattern may sit on different components.  Purely virtual
moves never appear because virtual crossings are not represented.

Patterns::

    R1_delete   ... X Y ...                X, Y the two passages of one crossing
    R2_delete   (O_a O_b) and (U_a U_b)    coherent,     sign(a) = -sign(b)
                (O_a O_b) and (U_b U_a)    antiparallel, sign(a) = -sign(b)
    R3          (O_a O_b) (U_a O_c) (U_b U_c)   all signs positive; swap each pair

Insertions are the inverses: a curl (O_z U_z) at any gap, or an over pair
plus an under pair (fresh crossings a, b with opposite signs) at any two
gaps.  Fresh ids are max id + 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import StaleSiteError
from .gauss_code import OVER, UNDER, FlatCode, Passage, SignedGaussCode, \
    canonicalize, forget, resolve
from .invariant import affine_index_polynomial

R1_INSERT = "R1_insert"
R1_DELETE = "R1_delete"
R2_INSERT = "R2_insert"
R2_DELETE = "R2_delete"
R3 = "R3"

KINDS = (R1_INSERT, R1_DELETE, R2_INSERT, R2_DELETE, R3)

COHERENT = "coherent"
ANTIPARALLEL = "antiparallel"


@dataclass(frozen=True)
class MoveSite:
    """One applicable rewrite.

    pairs lists (component, position) of matched adjacent pairs, each pair
    occupying position and position+1 (cyclically); gaps lists insertion
    points (component, slot).  apply_move() matches the pattern again at
    these positions, so a stale or hand-built site that does not fit the
    code is rejected.
    """

    kind: str
    pairs: tuple[tuple[int, int], ...] = ()
    gaps: tuple[tuple[int, int], ...] = ()
    sign: int = 0
    variant: str = ""

    def describe(self) -> str:
        bits = [self.kind]
        if self.pairs:
            bits.append("pairs=" + ",".join(f"{c}:{p}" for c, p in self.pairs))
        if self.gaps:
            bits.append("gaps=" + ",".join(f"{c}:{p}" for c, p in self.gaps))
        if self.sign:
            bits.append(f"sign={'+' if self.sign > 0 else '-'}")
        if self.variant:
            bits.append(self.variant)
        return " ".join(bits)


def _gap_list(code: SignedGaussCode) -> list[tuple[int, int]]:
    return [(ci, slot) for ci, comp in enumerate(code.components)
            for slot in range(max(len(comp), 1))]


def _adjacent_pairs(code: SignedGaussCode):
    """Yield (component, position, first passage, second passage), cyclic."""
    for ci, comp in enumerate(code.components):
        if len(comp) < 2:
            continue
        for i in range(len(comp)):
            yield ci, i, comp[i], comp[(i + 1) % len(comp)]


def _pair_at(code: SignedGaussCode, pair: tuple[int, int]):
    ci, i = pair
    comp = code.components[ci]
    return comp[i], comp[(i + 1) % len(comp)]


def _is_curl(p1: Passage, p2: Passage) -> bool:
    return p1.crossing == p2.crossing


def _is_r2_half(p1: Passage, p2: Passage, role: str) -> bool:
    """Both passages in ``role`` with opposite signs."""
    return p1.role == role and p2.role == role and p1.sign == -p2.sign


def _r2_variant(o1: Passage, o2: Passage, u1: Passage, u2: Passage) -> str | None:
    """How an over half and an under half pair up, or None if they do not."""
    if (u1.crossing, u2.crossing) == (o1.crossing, o2.crossing):
        return COHERENT
    if (u1.crossing, u2.crossing) == (o2.crossing, o1.crossing):
        return ANTIPARALLEL
    return None


def _is_positive(p1: Passage, p2: Passage) -> bool:
    return p1.sign == 1 and p2.sign == 1


def _is_r3(top, middle, bottom) -> bool:
    """(O_a O_b) (U_a O_c) (U_b U_c), all positive, c distinct from a, b."""
    (oa, ob), (ua, oc), (ub, uc) = top, middle, bottom
    return (all(_is_positive(*pair) for pair in (top, middle, bottom))
            and (oa.role, ob.role, ua.role, oc.role, ub.role, uc.role)
            == (OVER, OVER, UNDER, OVER, UNDER, UNDER)
            and (ua.crossing, ub.crossing, uc.crossing)
            == (oa.crossing, ob.crossing, oc.crossing)
            and oc.crossing not in (oa.crossing, ob.crossing))


def _pattern_sites(code: SignedGaussCode) -> dict[str, list[MoveSite]]:
    """The R1_delete, R2_delete and R3 sites of ``code`` from one pass over
    its adjacent pairs, each list in scan order."""
    curls, over_pairs, under_pairs = [], [], []
    oo, uo, uu = [], {}, {}
    for ci, i, p1, p2 in _adjacent_pairs(code):
        # in a two-passage component, pair 1 is pair 0 read the other way
        if _is_curl(p1, p2) and not (i == 1 and len(code.components[ci]) == 2):
            curls.append(MoveSite(R1_DELETE, pairs=((ci, i),)))
        pair = (ci, i, p1, p2)
        if _is_r2_half(p1, p2, OVER):
            over_pairs.append(pair)
        if _is_r2_half(p1, p2, UNDER):
            under_pairs.append(pair)
        if _is_positive(p1, p2):
            roles = (p1.role, p2.role)
            if roles == (OVER, OVER):
                oo.append(pair)
            elif roles == (UNDER, OVER):
                uo.setdefault(p1.crossing, []).append(pair)
            elif roles == (UNDER, UNDER):
                uu[(p1.crossing, p2.crossing)] = pair
    pokes = []
    for oc, oi, o1, o2 in over_pairs:
        for uc, ui, u1, u2 in under_pairs:
            variant = _r2_variant(o1, o2, u1, u2)
            if variant is not None:
                pokes.append(MoveSite(R2_DELETE, pairs=((oc, oi), (uc, ui)),
                                      variant=variant))
    triangles = []
    for oc, oi, oa, ob in oo:
        a, b = oa.crossing, ob.crossing
        for mc, mi, ua, ocr in uo.get(a, []):
            bottom = uu.get((b, ocr.crossing))
            if bottom is None:
                continue
            bc, bi, ub, uc = bottom
            if _is_r3((oa, ob), (ua, ocr), (ub, uc)):
                triangles.append(MoveSite(R3, pairs=((oc, oi), (mc, mi), (bc, bi))))
    return {R1_DELETE: curls, R2_DELETE: pokes, R3: triangles}


def find_move_sites(code: SignedGaussCode, kind: str) -> list[MoveSite]:
    """All matches of one move kind, in deterministic scan order.

    Insert kinds return every gap (times parameters); delete kinds and R3
    return every pattern match.
    """
    if kind == R1_INSERT:
        return [MoveSite(R1_INSERT, gaps=(gap,), sign=s)
                for gap in _gap_list(code) for s in (1, -1)]
    if kind == R2_INSERT:
        gaps = _gap_list(code)
        return [MoveSite(R2_INSERT, gaps=(g1, g2), sign=s, variant=v)
                for g1 in gaps for g2 in gaps
                for s in (1, -1) for v in (COHERENT, ANTIPARALLEL)]
    if kind in (R1_DELETE, R2_DELETE, R3):
        return _pattern_sites(code)[kind]
    raise ValueError(f"unknown move kind {kind!r}")


def _fresh_id(code: SignedGaussCode) -> int:
    return max(code.crossing_ids(), default=0) + 1


def _check_site(code: SignedGaussCode, site: MoveSite) -> None:
    """Raise StaleSiteError unless the site's pattern matches ``code``."""
    found = []
    for ci, i in site.pairs:
        if not (0 <= ci < len(code.components)
                and 0 <= i < len(code.components[ci])
                and len(code.components[ci]) >= 2):
            raise StaleSiteError(f"site {site.describe()} is out of range")
        found.append(_pair_at(code, (ci, i)))
    if site.kind == R1_DELETE:
        ok = len(found) == 1 and _is_curl(*found[0])
    elif site.kind == R2_DELETE:
        ok = (len(found) == 2 and _is_r2_half(*found[0], OVER)
              and _is_r2_half(*found[1], UNDER)
              and _r2_variant(*found[0], *found[1]) == site.variant)
    else:
        ok = len(found) == 3 and _is_r3(*found)
    if not ok:
        raise StaleSiteError(f"site {site.describe()} does not match the code")


def _insert(components: list[list[Passage]], gap: tuple[int, int],
            passages: tuple[Passage, ...]) -> None:
    ci, slot = gap
    if ci >= len(components) or slot > len(components[ci]) or slot < 0:
        raise StaleSiteError(f"insertion gap {gap} is out of range")
    components[ci][slot:slot] = list(passages)


def apply_move(code: SignedGaussCode, site: MoveSite) -> SignedGaussCode:
    """Apply a site to ``code``; raises StaleSiteError if the kind's pattern
    does not match at the site's positions.  Output ids and rotation are kept
    raw (no canonicalization); insertions use fresh ids above the maximum."""
    components = [list(comp) for comp in code.components]
    if site.kind in (R1_INSERT, R2_INSERT) and site.sign not in (1, -1):
        raise ValueError(f"insert site needs sign 1 or -1, got {site.sign!r}")
    if site.kind == R1_INSERT:
        z = _fresh_id(code)
        _insert(components, site.gaps[0],
                (Passage(z, OVER, site.sign), Passage(z, UNDER, site.sign)))
    elif site.kind == R2_INSERT:
        a = _fresh_id(code)
        b = a + 1
        s = site.sign
        over = (Passage(a, OVER, s), Passage(b, OVER, -s))
        if site.variant == COHERENT:
            under = (Passage(a, UNDER, s), Passage(b, UNDER, -s))
        elif site.variant == ANTIPARALLEL:
            under = (Passage(b, UNDER, -s), Passage(a, UNDER, s))
        else:
            raise ValueError(f"unknown R2 variant {site.variant!r}")
        (c1, s1), (c2, s2) = site.gaps
        if c1 == c2 and s2 >= s1:
            _insert(components, (c2, s2), under)
            _insert(components, (c1, s1), over)
        else:
            _insert(components, (c1, s1), over)
            _insert(components, (c2, s2), under)
    elif site.kind in (R1_DELETE, R2_DELETE):
        _check_site(code, site)
        doomed: dict[int, set[int]] = {}
        for ci, i in site.pairs:
            n = len(code.components[ci])
            doomed.setdefault(ci, set()).update({i, (i + 1) % n})
        components = [[p for pi, p in enumerate(comp) if pi not in doomed.get(ci, ())]
                      for ci, comp in enumerate(components)]
    elif site.kind == R3:
        _check_site(code, site)
        for ci, i in site.pairs:
            comp = components[ci]
            j = (i + 1) % len(comp)
            comp[i], comp[j] = comp[j], comp[i]
    else:
        raise ValueError(f"unknown move kind {site.kind!r}")
    return SignedGaussCode(tuple(tuple(comp) for comp in components))


@dataclass(frozen=True)
class WalkResult:
    code: SignedGaussCode
    trace: tuple[str, ...]


def random_walk(code: SignedGaussCode, steps: int, seed: int) -> WalkResult:
    """A deterministic random sequence of legal moves.

    Each step picks a move kind uniformly among those with an applicable
    site (insertions are always applicable while the code has a component),
    then a site uniformly within the kind; insertion parameters are sampled
    directly.  The code is canonicalized after every move to keep ids small
    and walks reproducible.
    """
    rng = random.Random(seed)
    trace = []
    current = code
    for _ in range(steps):
        gaps = _gap_list(current)
        by_kind = _pattern_sites(current)
        # insert kinds apply at any gap, the others where a site was found
        options = [kind for kind in KINDS if by_kind.get(kind, gaps)]
        if not options:
            break
        kind = rng.choice(options)
        if kind == R1_INSERT:
            site = MoveSite(R1_INSERT, gaps=(rng.choice(gaps),),
                            sign=rng.choice((1, -1)))
        elif kind == R2_INSERT:
            site = MoveSite(R2_INSERT,
                            gaps=(rng.choice(gaps), rng.choice(gaps)),
                            sign=rng.choice((1, -1)),
                            variant=rng.choice((COHERENT, ANTIPARALLEL)))
        else:
            site = rng.choice(by_kind[kind])
        trace.append(site.describe())
        current = canonicalize(apply_move(current, site))
    return WalkResult(current, tuple(trace))


@dataclass(frozen=True)
class TrialFailure:
    seed_index: int
    trial: int
    before: str
    after: str
    trace: tuple[str, ...]


@dataclass(frozen=True)
class InvarianceReport:
    trials: int
    passed: int
    failures: tuple[TrialFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed == self.trials


def invariance_report(seeds, steps: int, trials: int, seed: int) -> InvarianceReport:
    """Run random walks from each seed knot and compare polynomials.

    Failures are payload, not exceptions: each carries the trial's move
    trace so it can be replayed.
    """
    total = 0
    passed = 0
    failures = []
    for index, code in enumerate(seeds):
        if len(code.components) != 1:
            raise ValueError("invariance_report expects one-component codes")
        expected = affine_index_polynomial(code)
        for trial in range(trials):
            walk_seed = seed * 1_000_003 + index * 8191 + trial
            result = random_walk(code, steps, walk_seed)
            got = affine_index_polynomial(result.code)
            total += 1
            if got == expected:
                passed += 1
            else:
                failures.append(TrialFailure(index, trial, str(expected),
                                             str(got), result.trace))
    return InvarianceReport(total, passed, tuple(failures))


def positive_resolution(flat: FlatCode) -> SignedGaussCode:
    """The all-positive resolution (every R passage over, sign +)."""
    return resolve(flat, dict.fromkeys(flat.crossing_ids(), 1))


def flat_random_walk(flat: FlatCode, steps: int, seed: int) -> FlatCode:
    """A flat move sequence, transported through a resolution.

    Flat moves are realized by resolving the diagram, applying signed moves,
    and forgetting the over/under data again.
    """
    walked = random_walk(positive_resolution(flat), steps, seed)
    return forget(walked.code)
