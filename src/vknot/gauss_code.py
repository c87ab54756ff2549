"""Signed and flat Gauss codes for virtual knot and link diagrams.

A diagram is stored purely combinatorially: every component is a cyclic
sequence of passages through classical crossings.  Virtual crossings are
never recorded, so purely virtual isotopy (detour moves) is the identity on
this representation; a virtual knot is exactly an equivalence class of these
codes under the classical move rewrites in :mod:`vknot.moves`.

Text grammar (tokens whitespace separated, ``;`` between components)::

    signed passage   O<id><+|->   or   U<id><+|->
    flat passage     L<id>        or   R<id>
    empty component  ()

Crossing ids are positive integers.  Every crossing occurs exactly twice,
once in each role, and both passages of a signed crossing carry the same
sign.  A component with no passages is a zero-crossing unknot component
(these arise as smoothing outputs).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, ValidationError

OVER = "O"
UNDER = "U"
LEFT = "L"
RIGHT = "R"


@dataclass(frozen=True)
class Passage:
    """One visit to a classical crossing: id, over/under role, sign."""

    crossing: int
    role: str
    sign: int


@dataclass(frozen=True)
class FlatPassage:
    """One visit to a flat crossing: id and left/right role.

    Role L is the strand that crosses to the left (its label gains one in a
    Cheng coloring); role R crosses to the right (its label drops by one).
    """

    crossing: int
    role: str


class Diagram:
    """What every code shares: cyclic passage sequences in ``components``,
    never changed after construction."""

    components: tuple[tuple, ...]

    def crossing_ids(self) -> set[int]:
        return {p.crossing for comp in self.components for p in comp}

    def n_crossings(self) -> int:
        return len(self.crossing_ids())

    def passages(self):
        """Yield (component_index, position, passage) over the whole code."""
        for ci, comp in enumerate(self.components):
            for pi, p in enumerate(comp):
                yield ci, pi, p

    @cached_property
    def table(self):
        """The code's coloring.CrossingTable, built on first use and kept
        in the instance ``__dict__``; equality and hashing read the fields
        only, so the cache never changes what a code is."""
        from .coloring import crossing_table
        return crossing_table(self)


@dataclass(frozen=True)
class SignedGaussCode(Diagram):
    """An oriented virtual knot or link diagram as cyclic passage sequences."""

    components: tuple[tuple[Passage, ...], ...]


@dataclass(frozen=True)
class FlatCode(Diagram):
    """The underlying flat diagram: over/under information forgotten."""

    components: tuple[tuple[FlatPassage, ...], ...]


_TOKEN_RE = re.compile(r"^([OULR])([0-9]+)([+-]?)$")


def _tokenize(text: str, signed: bool):
    kind = "signed" if signed else "flat"
    if text.strip() == "":
        return ()
    components = []
    for part in text.split(";"):
        tokens = part.split()
        if not tokens:
            raise ParseError("empty component must be written '()'")
        if tokens == ["()"]:
            components.append(())
            continue
        comp = []
        for tok in tokens:
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise ParseError(f"bad token {tok!r}")
            letter, digits, sign = m.groups()
            cid = int(digits)
            if cid < 1:
                raise ParseError(f"crossing id must be >= 1 in {tok!r}")
            if signed:
                if letter not in (OVER, UNDER):
                    raise ParseError(f"token {tok!r} is not a {kind} passage")
                if sign not in ("+", "-"):
                    raise ParseError(f"signed passage {tok!r} needs a '+' or '-'")
                comp.append(Passage(cid, letter, 1 if sign == "+" else -1))
            else:
                if letter not in (LEFT, RIGHT):
                    raise ParseError(f"token {tok!r} is not a {kind} passage")
                if sign:
                    raise ParseError(f"flat passage {tok!r} must not carry a sign")
                comp.append(FlatPassage(cid, letter))
        components.append(tuple(comp))
    return tuple(components)


def parse_signed(text: str) -> SignedGaussCode:
    """Parse a signed Gauss code; token order defines the traversal order."""
    code = SignedGaussCode(_tokenize(text, signed=True))
    violations = validate(code)
    if violations:
        raise ValidationError("; ".join(violations))
    return code


def parse_flat(text: str) -> FlatCode:
    """Parse a flat code of L/R passages."""
    code = FlatCode(_tokenize(text, signed=False))
    violations = validate(code)
    if violations:
        raise ValidationError("; ".join(violations))
    return code


def _passage_str(p) -> str:
    if isinstance(p, Passage):
        return f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}"
    return f"{p.role}{p.crossing}"


def serialize(code: SignedGaussCode | FlatCode) -> str:
    """Render a code in the text grammar; parse(serialize(x)) == x."""
    parts = []
    for comp in code.components:
        parts.append(" ".join(_passage_str(p) for p in comp) if comp else "()")
    return " ; ".join(parts)


def validate(code: SignedGaussCode | FlatCode) -> list[str]:
    """Return every violated structural invariant (empty list means valid)."""
    signed = isinstance(code, SignedGaussCode)
    roles = (OVER, UNDER) if signed else (LEFT, RIGHT)
    role_names = {OVER: "Over", UNDER: "Under", LEFT: "L", RIGHT: "R"}
    violations = []
    occurrences: dict[int, list] = {}
    for _ci, _pi, p in code.passages():
        if p.crossing < 1:
            violations.append(f"crossing id {p.crossing} is not positive")
        if p.role not in roles:
            violations.append(f"crossing {p.crossing} has invalid role {p.role!r}")
        if signed and p.sign not in (1, -1):
            violations.append(f"crossing {p.crossing} has invalid sign {p.sign!r}")
        occurrences.setdefault(p.crossing, []).append(p)
    for cid in sorted(occurrences):
        passages = occurrences[cid]
        if len(passages) != 2:
            violations.append(f"odd occurrence of {cid}" if len(passages) % 2
                              else f"crossing {cid} occurs {len(passages)} times")
        for role in roles:
            if sum(1 for p in passages if p.role == role) > 1:
                violations.append(
                    f"crossing {cid} appears with role {role_names[role]} twice")
        if signed and len({p.sign for p in passages}) > 1:
            violations.append(f"sign mismatch at {cid}")
    return violations


def _encode(comp, m: int) -> tuple[list[int], list[int]]:
    """Per passage, its token key less the id term (rank * m + sign rank)
    and its crossing id; both lists are doubled, so rotation r is the slice
    r:r + len(comp)."""
    ranks = []
    for p in comp:
        if isinstance(p, Passage):
            ranks.append((1 if p.role == OVER else 2) * m + (0 if p.sign > 0 else 1))
        else:
            ranks.append((1 if p.role == LEFT else 2) * m)
    ids = [p.crossing for p in comp]
    return ranks + ranks, ids + ids


def _relabeled(p, cid: int):
    if isinstance(p, Passage):
        return Passage(cid, p.role, p.sign)
    return FlatPassage(cid, p.role)


def canonicalize(code):
    """Canonical representative of a code up to rotation, relabeling and
    component order.

    Crossing ids are renumbered 1..n by first appearance, and the result is
    the lexicographically smallest token stream over all rotations of each
    component and all component orderings.  Idempotent, so two codes describe
    the same diagram exactly when their canonical forms are equal.

    A token is the int rank * m + 2 * id + sign rank (O and L before U and
    R, '+' before '-', m = 2 * crossings + 2), and each component's rotated
    tokens followed by a separator 0 form a block.  The separator is smaller
    than every token and ends every block, so one stream is smaller than
    another exactly when its block sequence is, compared block by block.
    The minimum is therefore found one block at a time: empty components
    come first, and each later level keeps every tied state (relabel map,
    unplaced components, choices so far) whose blocks equal the level's
    best.  A candidate block is dropped at its first token greater than the
    best's, so the search keys no more tokens than the full enumeration of
    k! * prod len_i streams would, and knots are the one-level case.
    """
    comps = code.components
    if not comps:
        return code
    m = 2 * len({p.crossing for comp in comps for p in comp}) + 2
    placed = [ci for ci, comp in enumerate(comps) if comp]
    encoded = {ci: _encode(comps[ci], m) for ci in placed}
    states = [({}, tuple(placed), ())]
    for _level in placed:
        best = None
        tied = []
        for relabel, unplaced, chosen in states:
            base = len(relabel) + 1
            for ci in unplaced:
                ranks, ids = encoded[ci]
                n = len(ranks) // 2
                for r in range(n):
                    fresh = {}
                    nxt = base
                    key = []
                    below = best is None
                    for j in range(r, r + n):
                        cid = ids[j]
                        v = relabel.get(cid)
                        if v is None:
                            v = fresh.get(cid)
                            if v is None:
                                v = fresh[cid] = nxt
                                nxt += 1
                        t = ranks[j] + 2 * v
                        if not below:
                            b = best[len(key)]
                            if t > b:
                                break
                            below = t < b
                        key.append(t)
                    else:
                        key.append(0)
                        # best[n] > 0: the best block is longer, so this
                        # block's separator puts it below
                        if below or best[n]:
                            best = key
                            tied = []
                        tied.append((relabel, fresh, unplaced, chosen, ci, r))
        states = [({**relabel, **fresh},
                   tuple([c for c in unplaced if c != ci]),
                   chosen + ((ci, r),))
                  for relabel, fresh, unplaced, chosen, ci, r in tied]
    relabel, _unplaced, chosen = states[0]
    out = [()] * (len(comps) - len(placed))
    for ci, r in chosen:
        comp = comps[ci]
        out.append(tuple([_relabeled(p, relabel[p.crossing])
                          for p in comp[r:] + comp[:r]]))
    return type(code)(tuple(out))


def flat_role(p: Passage | FlatPassage) -> str:
    """Left/right role of a passage: a flat passage's own role, or that of
    a signed passage's strand.

    The over strand of a positive crossing is the one crossing to the right
    (its label decreases); flipping either the role or the sign flips the
    flat role.
    """
    if isinstance(p, FlatPassage):
        return p.role
    if p.role == OVER:
        return RIGHT if p.sign > 0 else LEFT
    return LEFT if p.sign > 0 else RIGHT


def forget(code: SignedGaussCode) -> FlatCode:
    """Underlying flat diagram of a signed code."""
    return FlatCode(tuple(
        tuple(FlatPassage(p.crossing, flat_role(p)) for p in comp)
        for comp in code.components))


def resolve(code, signs) -> SignedGaussCode:
    """Resolve every flat passage of ``code`` with the sign ``signs`` gives
    its crossing; signed passages (in a partly singular code) are kept.

    This is the one resolution rule: sign + puts the R passage over, sign -
    puts the L passage over.  Either way flat_role() of the result is the
    flat role again, so forget() undoes resolve().
    """
    def passage(p):
        if not isinstance(p, FlatPassage):
            return p
        sign = signs[p.crossing]
        over_role = RIGHT if sign > 0 else LEFT
        return Passage(p.crossing, OVER if p.role == over_role else UNDER, sign)

    return SignedGaussCode(tuple(tuple(passage(p) for p in comp)
                                 for comp in code.components))


def resolutions(flat: FlatCode) -> list[SignedGaussCode]:
    """All 2^n assignments of over/under data compatible with a flat code.

    Per crossing the choice is sign + or sign - under resolve(), so forget()
    of every output equals ``flat``.  Output order is
    deterministic: crossings sorted by id, positive choice first.
    """
    ids = sorted(flat.crossing_ids())
    return [resolve(flat, dict(zip(ids, choice)))
            for choice in itertools.product((1, -1), repeat=len(ids))]


def _pairings(slots: tuple[int, ...]):
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for i, second in enumerate(rest):
        for sub in _pairings(rest[:i] + rest[i + 1:]):
            yield ((first, second),) + sub


def all_flat_knot_codes(n_crossings: int) -> list[FlatCode]:
    """Every one-component flat code with exactly n crossings, one canonical
    representative per diagram class, in deterministic order.

    Exhaustive: all chord pairings of the 2n cyclic positions times both L/R
    assignments per crossing, deduplicated by canonical form.  Exponential;
    intended for small n.
    """
    if n_crossings == 0:
        return [FlatCode(((),))]
    seen = {}
    positions = tuple(range(2 * n_crossings))
    for pairing in _pairings(positions):
        for role_bits in itertools.product((LEFT, RIGHT), repeat=n_crossings):
            word: list[FlatPassage | None] = [None] * (2 * n_crossings)
            for cid, ((a, b), first_role) in enumerate(zip(pairing, role_bits), start=1):
                other = RIGHT if first_role == LEFT else LEFT
                word[a] = FlatPassage(cid, first_role)
                word[b] = FlatPassage(cid, other)
            canon = canonicalize(FlatCode((tuple(word),)))
            seen.setdefault(serialize(canon), canon)
    return [seen[k] for k in sorted(seen)]
