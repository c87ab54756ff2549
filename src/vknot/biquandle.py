"""Finite flat biquandles over Z/N and their diagram colorings.

A flat biquandle is a set with operations * and # such that labeling the
two strands of a flat crossing by

    out(left-crossing strand)  = in(L) * in(R)
    out(right-crossing strand) = in(R) # in(L)

is coherent with the flat Reidemeister moves.  Axioms 1 and 2 alone (move I
and both orientations of move II) define a preflat; axiom 3 adds move III.
The integer rule behind the index polynomial is the case a*b = a+1,
a#b = a-1.  Among the full flat biquandles over Z/N given by affine formulas

    a*b = r a + s b + k       a#b = p a + q b + l

are the unary pairs star = p^-1 a + k, sharp = p a - p k.  The affine
search below finds these and nothing else for N = 2, 3, 5, 6 and 7, but
zero divisors give more at N = 4, 8 and 9: 16, 64 and 162 solutions
against 8, 32 and 54 unary pairs.

Generalized crossing weights are W_plus = a - b*a and W_minus = b - a#b
(incoming right label a, incoming left label b); a table can feed a
polynomial-style invariant only when W_plus + W_minus = 0 for all labels,
i.e. a + b = b*a + a#b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from . import moves
from .errors import ValidationError
from .gauss_code import Diagram, SignedGaussCode


@dataclass(frozen=True)
class FiniteFlatBiquandle:
    """Carrier Z/n with operation tables star[a][b] = a*b, sharp[a][b] = a#b."""

    n: int
    star: tuple[tuple[int, ...], ...]
    sharp: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AffineParams:
    """Parameters of star = r a + s b + k, sharp = p a + q b + l over Z/n."""

    n: int
    r: int
    s: int
    k: int
    p: int
    q: int
    l: int

    def as_line(self) -> str:
        return f"{self.n} {self.r} {self.s} {self.k} {self.p} {self.q} {self.l}"


def _affine_table(n: int, c1: int, c2: int, c0: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((c1 * a + c2 * b + c0) % n for b in range(n))
                 for a in range(n))


def make_affine(params: AffineParams) -> FiniteFlatBiquandle:
    n = params.n
    return FiniteFlatBiquandle(
        n,
        _affine_table(n, params.r, params.s, params.k),
        _affine_table(n, params.p, params.q, params.l))


def _inverse_mod(x: int, n: int) -> int:
    x %= n
    for y in range(1, n):
        if (x * y) % n == 1:
            return y
    raise ValueError(f"{x} is not a unit mod {n}")


def unary_affine_params(n: int, alpha: int, k: int) -> AffineParams:
    """The unary family star = alpha a + k, sharp = alpha^-1 (a - k)."""
    inv = _inverse_mod(alpha, n)
    return AffineParams(n, alpha % n, 0, k % n, inv, 0, (-inv * k) % n)


def basic_preflat(n: int, q: int, k: int) -> FiniteFlatBiquandle:
    """star = (1-q)a - qb + k, sharp = (1+q)a + qb - k over Z/n.

    Requires 1-q and 1+q to be units.  Satisfies axioms 1 and 2 for every
    such q, and the weight condition as well; axiom 3 holds only for q = 0.
    """
    if gcd((1 - q) % n, n) != 1 or gcd((1 + q) % n, n) != 1:
        raise ValueError(f"1-q and 1+q must be units mod {n}")
    return make_affine(AffineParams(
        n, (1 - q) % n, (-q) % n, k % n, (1 + q) % n, q % n, (-k) % n))


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom result: None for pass, else a witness tuple of elements."""

    axiom1: tuple | None
    axiom2: tuple | None
    axiom3: tuple | None

    @property
    def is_preflat(self) -> bool:
        return self.axiom1 is None and self.axiom2 is None

    @property
    def is_flat_biquandle(self) -> bool:
        return self.is_preflat and self.axiom3 is None


def _axiom1_witness(n, star, sharp):
    for a in range(n):
        xs = sum(1 for x in range(n) if sharp[a][x] == x and star[x][a] == a)
        if xs != 1:
            return (a,)
        ys = sum(1 for y in range(n) if star[a][y] == y and sharp[y][a] == a)
        if ys != 1:
            return (a,)
    return None


def _axiom2_witness(n, star, sharp):
    for a in range(n):
        for b in range(n):
            if star[sharp[a][b]][star[b][a]] != a:
                return (a, b)
            if sharp[star[b][a]][sharp[a][b]] != b:
                return (a, b)
            count = 0
            for y in range(n):
                x = sharp[b][y]
                if sharp[a][x] == y and star[x][a] == b and star[y][b] == a:
                    count += 1
                    if count > 1:
                        break
            if count != 1:
                return (a, b)
    return None


def _axiom3_witness(n, star, sharp):
    for a in range(n):
        sha = sharp[a]
        for b in range(n):
            ab = sha[b]          # a#b
            ba = star[b][a]      # b*a
            for c in range(n):
                cb = star[c][b]              # c*b
                bc = sharp[b][c]             # b#c
                a_cb = sha[cb]               # a#(c*b)
                c_ab = star[c][ab]           # c*(a#b)
                if sharp[ab][c] != sharp[a_cb][bc]:
                    return (a, b, c)
                if star[cb][a] != star[c_ab][ba]:
                    return (a, b, c)
                if star[bc][a_cb] != sharp[ba][c_ab]:
                    return (a, b, c)
    return None


def check_axioms(b: FiniteFlatBiquandle) -> AxiomReport:
    """Check the three flat biquandle axioms, reporting first witnesses.

    Axiom 1: each a has a unique x with a#x = x and x*a = a, and a unique y
    with a*y = y and y#a = a.  Axiom 2: (a#b)*(b*a) = a and
    (b*a)#(a#b) = b, plus for all a, b a unique pair (x, y) with x = b#y,
    y = a#x, b = x*a, a = y*b.  Axiom 3: the three triangle identities for
    all triples.
    """
    n, star, sharp = b.n, b.star, b.sharp
    return AxiomReport(_axiom1_witness(n, star, sharp),
                       _axiom2_witness(n, star, sharp),
                       _axiom3_witness(n, star, sharp))


def _affine_identities_hold(n, r, s, k, p, q, l, labels) -> bool:
    """True if the two axiom-2 identities and the three axiom-3 identities
    of star = r a + s b + k, sharp = p a + q b + l hold at every (a, b, c)
    in labels."""
    for a, b, c in labels:
        ab = (p * a + q * b + l) % n             # a#b
        ba = (r * b + s * a + k) % n             # b*a
        if (r * ab + s * ba + k) % n != a or (p * ba + q * ab + l) % n != b:
            return False
        cb = (r * c + s * b + k) % n             # c*b
        bc = (p * b + q * c + l) % n             # b#c
        a_cb = (p * a + q * cb + l) % n          # a#(c*b)
        c_ab = (r * c + s * ab + k) % n          # c*(a#b)
        if ((p * ab + q * c + l) % n != (p * a_cb + q * bc + l) % n
                or (r * cb + s * a + k) % n != (r * c_ab + s * ba + k) % n
                or (r * bc + s * a_cb + k) % n != (p * ba + q * c_ab + l) % n):
            return False
    return True


_BASIS_LABELS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_ZERO_LABEL = ((0, 0, 0),)


def search_affine(n: int) -> list[AffineParams]:
    """All affine parameter tuples over Z/n whose tables pass the three
    axioms, in lexicographic (r, s, k, p, q, l) order.

    Both sides of each identity in axioms 2 and 3 are affine forms in the
    labels, so an identity holds for all labels exactly when its
    coefficients agree mod n.  The linear coefficients do not depend on
    (k, l): stage 1 keeps the (r, s, p, q) whose identities hold at the
    basis labels with k = l = 0, and stage 2 keeps the (k, l) whose
    identities then hold at the zero label.  Stage 3 checks each survivor's
    tables against all three axioms, which alone enforce axiom 1 and the
    uniqueness clause of axiom 2.
    """
    if n < 2:
        raise ValueError("carrier must have at least two elements")
    rng = range(n)
    found = []
    for r, s, p, q in itertools.product(rng, repeat=4):
        if not _affine_identities_hold(n, r, s, 0, p, q, 0, _BASIS_LABELS):
            continue
        for k, l in itertools.product(rng, repeat=2):
            if not _affine_identities_hold(n, r, s, k, p, q, l, _ZERO_LABEL):
                continue
            star = _affine_table(n, r, s, k)
            sharp = _affine_table(n, p, q, l)
            if (_axiom1_witness(n, star, sharp) is None
                    and _axiom2_witness(n, star, sharp) is None
                    and _axiom3_witness(n, star, sharp) is None):
                found.append(AffineParams(n, r, s, k, p, q, l))
    found.sort(key=lambda a: (a.r, a.s, a.k, a.p, a.q, a.l))
    return found


def closed_form_affine(n: int) -> set[AffineParams]:
    """{star = p^-1 a + k, sharp = p a - p k : p a unit, k in Z/n}."""
    out = set()
    for p in range(1, n):
        if gcd(p, n) != 1:
            continue
        inv = _inverse_mod(p, n)
        for k in range(n):
            out.add(AffineParams(n, inv, 0, k, p, 0, (-p * k) % n))
    return out


def weight_condition(b: FiniteFlatBiquandle):
    """None if a + b = b*a + a#b for all a, b; else the first failing (a, b).

    This is exactly the requirement W_plus + W_minus = 0 for the generalized
    weights W_plus = a - b*a, W_minus = b - a#b.
    """
    n = b.n
    for a in range(n):
        for bb in range(n):
            if (a + bb) % n != (b.star[bb][a] + b.sharp[a][bb]) % n:
                return (a, bb)
    return None


def _arc_counts(flat: Diagram) -> list[int]:
    return [max(len(comp), 1) for comp in flat.components]


def check_coloring(flat: Diagram, b: FiniteFlatBiquandle, labels) -> bool:
    """True iff the labels satisfy out(R) = in(R)#in(L), out(L) = in(L)*in(R).

    Any code is accepted: the L and R spots come from its crossing table,
    so a signed code is read through the flat roles of its passages.
    """
    counts = _arc_counts(flat)
    if len(labels) != len(counts) or any(len(l) != c for l, c in zip(labels, counts)):
        raise ValidationError("labeling has wrong shape for the code")
    for row in flat.table.rows:
        (rc, rp), (lc, lp) = row.right, row.left
        a, bb = labels[rc][rp - 1], labels[lc][lp - 1]
        if labels[rc][rp] != b.sharp[a][bb] or labels[lc][lp] != b.star[bb][a]:
            return False
    return True


def enumerate_colorings(flat: Diagram, b: FiniteFlatBiquandle):
    """All biquandle colorings, by brute force over n^arcs assignments.

    Reference semantics; exponential in the arc count.  Output is a list of
    per-component label tuples in lexicographic order.
    """
    counts = _arc_counts(flat)
    total = sum(counts)
    out = []
    for flat_assign in itertools.product(range(b.n), repeat=total):
        labels = []
        pos = 0
        for c in counts:
            labels.append(tuple(flat_assign[pos:pos + c]))
            pos += c
        labels = tuple(labels)
        if check_coloring(flat, b, labels):
            out.append(labels)
    return out


def enumerate_colorings_fast(flat: Diagram, b: FiniteFlatBiquandle):
    """Backtracking enumeration; agrees with enumerate_colorings, same order.

    Like check_coloring it accepts any code, reading a signed one through
    the flat roles of its passages.
    """
    return _colorings(flat, b, {})


def _colorings(flat: Diagram, b: FiniteFlatBiquandle, fixed):
    """The colorings whose arc (c, i) carries fixed[(c, i)] wherever given.

    Arcs are assigned in component-major order.  An arc leaving a crossing
    whose two incoming arcs are assigned before it takes the one value its
    equation forces, and no value if that disagrees with its fixed label;
    any other arc runs over its one fixed label or all of Z/n.  Every other
    crossing equation is checked as soon as its three arcs are known,
    pruning early.
    """
    counts = _arc_counts(flat)
    offsets = list(itertools.accumulate(counts, initial=0))
    total = offsets[-1]

    forced = [None] * total
    by_trigger: list[list] = [[] for _ in range(total)]
    for row in flat.table.rows:
        (rc, rp), (lc, lp) = row.right, row.left
        ar = offsets[rc] + (rp - 1) % counts[rc]
        al = offsets[lc] + (lp - 1) % counts[lc]
        for op, target in (("#", offsets[rc] + rp), ("*", offsets[lc] + lp)):
            if max(ar, al) < target:
                forced[target] = (op, ar, al)
            else:
                by_trigger[max(ar, al)].append((op, ar, al, target))
    choices = [range(b.n)] * total
    for (ci, arc), label in fixed.items():
        choices[offsets[ci] + arc] = (label,)

    star, sharp = b.star, b.sharp
    assignment = [0] * total
    out = []

    def backtrack(i):
        if i == total:
            labels = []
            for ci, c in enumerate(counts):
                labels.append(tuple(assignment[offsets[ci]:offsets[ci] + c]))
            out.append(tuple(labels))
            return
        values = choices[i]
        if forced[i] is not None:
            op, ar, al = forced[i]
            a, bb = assignment[ar], assignment[al]
            v = sharp[a][bb] if op == "#" else star[bb][a]
            values = (v,) if v in values else ()
        for v in values:
            assignment[i] = v
            ok = True
            for op, ar, al, target in by_trigger[i]:
                a, bb = assignment[ar], assignment[al]
                want = sharp[a][bb] if op == "#" else star[bb][a]
                if assignment[target] != want:
                    ok = False
                    break
            if ok:
                backtrack(i + 1)

    backtrack(0)
    return out


def doodle_pre_invariant(code: SignedGaussCode, b: FiniteFlatBiquandle, labels) -> tuple[int, ...]:
    """Exponent vector over Z/n of sum sign(c) t^W(c) - writhe.

    W(c) is the generalized weight of the coloring (W_plus for positive
    crossings, W_minus for negative), reduced mod n.  Requires the weight
    condition; invariant under moves I and II with transported colorings but
    not under move III, so it is a pre-invariant (a doodle invariant).
    """
    if weight_condition(b) is not None:
        raise ValueError("biquandle fails the weight condition")
    if not check_coloring(code, b, labels):
        raise ValidationError("labels do not color the diagram under this table")
    return _doodle_vector(code, b, labels)


def _doodle_vector(code: SignedGaussCode, b: FiniteFlatBiquandle, labels) -> tuple[int, ...]:
    """doodle_pre_invariant without its table and coloring checks."""
    n = b.n
    vector = [0] * n
    for row in code.table.rows:
        (rc, rp), (lc, lp) = row.right, row.left
        a = labels[rc][rp - 1]
        bb = labels[lc][lp - 1]
        if row.sign > 0:
            w = (a - b.star[bb][a]) % n
        else:
            w = (bb - b.sharp[a][bb]) % n
        vector[w] += row.sign
        vector[0] -= row.sign  # the writhe term
    return tuple(vector)


def _doodle_vectors(code: SignedGaussCode, b: FiniteFlatBiquandle) -> list[tuple[int, ...]]:
    """The pre-invariant of each coloring from enumerate_colorings_fast, in
    its order.  The colorings need no check, and the weight condition is
    checked once, when there is a coloring."""
    colorings = enumerate_colorings_fast(code, b)
    if colorings and weight_condition(b) is not None:
        raise ValueError("biquandle fails the weight condition")
    return [_doodle_vector(code, b, labels) for labels in colorings]


def doodle_invariant_sum(code: SignedGaussCode, b: FiniteFlatBiquandle) -> tuple[int, ...]:
    """Componentwise sum of the pre-invariant over all colorings."""
    total = [0] * b.n
    for vec in _doodle_vectors(code, b):
        total = [t + v for t, v in zip(total, vec)]
    return tuple(total)


# -- coloring transport through moves I and II --------------------------------

def transport_coloring(code: SignedGaussCode, labels, site, b: FiniteFlatBiquandle):
    """Apply a move I or II site and carry a biquandle coloring through it.

    Returns (new_code, new_labels).  moves.apply_move rewrites the code,
    and the new labels solve the crossing equations with these arcs fixed:

    - both sides of every passage that survives the move (same crossing
      and role) keep their labels;
    - a component that had no passages keeps its circle label on its
      closing arc, the one entering its first passage;
    - a component the move empties keeps the label after its deleted pairs.

    The open arcs are those inside inserted patterns.  Axioms 1 and 2 say
    that exactly one solution exists, so ValueError is raised, naming the
    site, when there is none or more than one; AssertionError if fixed
    labels on one arc differ.  Move III sites are rejected with ValueError
    (the doodle pre-invariant is only a move I/II invariant).
    """
    if not check_coloring(code, b, labels):
        raise ValidationError("labels do not color the diagram under this table")
    new_code = moves.apply_move(code, site)
    if site.kind not in (moves.R1_INSERT, moves.R1_DELETE,
                         moves.R2_INSERT, moves.R2_DELETE):
        raise ValueError(f"transport does not support {site.kind}")

    fixed: dict[tuple[int, int], int] = {}

    def fix(arc, label):
        if fixed.setdefault(arc, label) != label:
            raise AssertionError("fused arcs carry different labels")

    sides = {(p.crossing, p.role): (labels[ci][pi - 1], labels[ci][pi])
             for ci, pi, p in code.passages()}
    for ci, comp in enumerate(new_code.components):
        for pi, p in enumerate(comp):
            if (p.crossing, p.role) in sides:
                before, after = sides[(p.crossing, p.role)]
                fix((ci, (pi - 1) % len(comp)), before)
                fix((ci, pi), after)
        if not code.components[ci]:
            fix((ci, max(len(comp), 1) - 1), labels[ci][0])
    for ci, i in site.pairs:
        if not new_code.components[ci]:
            fix((ci, 0), labels[ci][(i + 1) % len(code.components[ci])])

    found = _colorings(new_code, b, fixed)
    if len(found) != 1:
        raise ValueError(f"site {site.describe()}: {len(found)} colorings extend "
                         f"the labels, not 1; the table fails axiom 1 or 2")
    if not check_coloring(new_code, b, found[0]):
        raise AssertionError("transported labels do not color the new diagram")
    return new_code, found[0]


# -- table file format ---------------------------------------------------------

def table_to_text(b: FiniteFlatBiquandle) -> str:
    """Line 1 is n, then n rows of star, a blank line, n rows of sharp."""
    lines = [str(b.n)]
    lines += [" ".join(str(x) for x in row) for row in b.star]
    lines.append("")
    lines += [" ".join(str(x) for x in row) for row in b.sharp]
    return "\n".join(lines) + "\n"


def table_from_text(text: str) -> FiniteFlatBiquandle:
    non_blank = [line.strip() for line in text.splitlines() if line.strip()]
    if not non_blank:
        raise ValidationError("empty biquandle table file")
    try:
        n = int(non_blank[0])
    except ValueError as exc:
        raise ValidationError(f"bad carrier size {non_blank[0]!r}") from exc
    if n < 1 or len(non_blank) != 1 + 2 * n:
        raise ValidationError(f"expected {2 * max(n, 1)} table rows")
    rows = []
    for line in non_blank[1:]:
        row = tuple(int(tok) for tok in line.split())
        if len(row) != n or any(not 0 <= x < n for x in row):
            raise ValidationError(f"bad table row {line!r}")
        rows.append(row)
    return FiniteFlatBiquandle(n, tuple(rows[:n]), tuple(rows[n:]))
