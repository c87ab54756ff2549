"""Finite flat biquandles over Z/N and their diagram colorings.

A flat biquandle is a set with operations * and # such that labeling the
two strands of a flat crossing by

    out(left-crossing strand)  = in(L) * in(R)
    out(right-crossing strand) = in(R) # in(L)

is coherent with the flat Reidemeister moves.  Axioms 1 and 2 alone (move I
and both orientations of move II) define a preflat; axiom 3 adds move III.
The integer rule behind the index polynomial is the case a*b = a+1,
a#b = a-1, and the affine search below recovers the fact that, over Z/N,
full flat biquandles given by affine formulas

    a*b = r a + s b + k       a#b = p a + q b + l

are exactly the unary pairs star = p^-1 a + k, sharp = p a - p k.

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
from .coloring import crossing_table
from .errors import ValidationError
from .gauss_code import FlatCode, SignedGaussCode, forget
from .diagram_ops import writhe


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


def search_affine(n: int) -> list[AffineParams]:
    """Exhaustive scan of all n^6 affine parameter tuples over Z/n.

    Returns the tuples whose tables pass all three axioms, in lexicographic
    parameter order.  For every tested modulus this set coincides with the
    closed form produced by closed_form_affine().
    """
    if n < 2:
        raise ValueError("carrier must have at least two elements")
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


def _arc_counts(flat: FlatCode) -> list[int]:
    return [max(len(comp), 1) for comp in flat.components]


def check_coloring(flat: FlatCode, b: FiniteFlatBiquandle, labels) -> bool:
    """True iff the labels satisfy out(R) = in(R)#in(L), out(L) = in(L)*in(R)."""
    counts = _arc_counts(flat)
    if len(labels) != len(counts) or any(len(l) != c for l, c in zip(labels, counts)):
        raise ValidationError("labeling has wrong shape for the code")
    for row in crossing_table(flat).rows:
        (rc, rp), (lc, lp) = row.right, row.left
        a, bb = labels[rc][rp - 1], labels[lc][lp - 1]
        if labels[rc][rp] != b.sharp[a][bb] or labels[lc][lp] != b.star[bb][a]:
            return False
    return True


def enumerate_colorings(flat: FlatCode, b: FiniteFlatBiquandle):
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


def enumerate_colorings_fast(flat: FlatCode, b: FiniteFlatBiquandle):
    """Backtracking enumeration; agrees with enumerate_colorings, same order.

    Arcs are assigned in component-major order and every crossing constraint
    is checked as soon as its three arcs are known, pruning early.
    """
    counts = _arc_counts(flat)
    offsets = []
    acc = 0
    for c in counts:
        offsets.append(acc)
        acc += c
    total = acc

    by_trigger: dict[int, list] = {}
    for row in crossing_table(flat).rows:
        (rc, rp), (lc, lp) = row.right, row.left
        ar = offsets[rc] + (rp - 1) % counts[rc]
        al = offsets[lc] + (lp - 1) % counts[lc]
        orr, ol = offsets[rc] + rp, offsets[lc] + lp
        by_trigger.setdefault(max(ar, al, orr), []).append(("#", ar, al, orr))
        by_trigger.setdefault(max(ar, al, ol), []).append(("*", ar, al, ol))

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
        for v in range(b.n):
            assignment[i] = v
            ok = True
            for op, ar, al, target in by_trigger.get(i, ()):
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
    flat = forget(code)
    if not check_coloring(flat, b, labels):
        raise ValidationError("labels do not color the diagram under this table")
    n = b.n
    vector = [0] * n
    for row in crossing_table(code).rows:
        (rc, rp), (lc, lp) = row.right, row.left
        a = labels[rc][rp - 1]
        bb = labels[lc][lp - 1]
        if row.sign > 0:
            w = (a - b.star[bb][a]) % n
        else:
            w = (bb - b.sharp[a][bb]) % n
        vector[w] += row.sign
    vector[0] -= writhe(code)
    return tuple(vector)


def doodle_invariant_sum(code: SignedGaussCode, b: FiniteFlatBiquandle) -> tuple[int, ...]:
    """Componentwise sum of the pre-invariant over all colorings."""
    flat = forget(code)
    total = [0] * b.n
    for labels in enumerate_colorings_fast(flat, b):
        vec = doodle_pre_invariant(code, b, labels)
        total = [t + v for t, v in zip(total, vec)]
    return tuple(total)


# -- coloring transport through moves I and II --------------------------------

def _axiom1_x(b: FiniteFlatBiquandle, a: int) -> int:
    xs = [x for x in range(b.n) if b.sharp[a][x] == x and b.star[x][a] == a]
    if len(xs) != 1:
        raise ValueError("axiom 1 fails; cannot transport a curl")
    return xs[0]


def _axiom1_y(b: FiniteFlatBiquandle, a: int) -> int:
    ys = [y for y in range(b.n) if b.star[a][y] == y and b.sharp[y][a] == a]
    if len(ys) != 1:
        raise ValueError("axiom 1 fails; cannot transport a curl")
    return ys[0]


def _entering(labels, comp_size, ci, slot):
    comp = labels[ci]
    return comp[(slot - 1) % comp_size] if comp_size else comp[0]


def transport_coloring(code: SignedGaussCode, labels, site, b: FiniteFlatBiquandle):
    """Apply a move I or II site and carry a biquandle coloring through it.

    Returns (new_code, new_labels).  Insertions solve the axiom equations
    for the new interior arcs; deletions drop interior arcs and check that
    the fused boundary labels agree.  Move III sites are rejected (the
    doodle pre-invariant is only a move I/II invariant).
    """
    flat = forget(code)
    if not check_coloring(flat, b, labels):
        raise ValidationError("labels do not color the diagram under this table")
    new_code = moves.apply_move(code, site)
    comp_sizes = [len(c) for c in code.components]

    if site.kind == moves.R1_INSERT:
        (ci, slot) = site.gaps[0]
        entering = _entering(labels, comp_sizes[ci], ci, slot)
        mid = _axiom1_x(b, entering) if site.sign > 0 else _axiom1_y(b, entering)
        new_labels = _insert_pair_labels(labels, ci, slot,
                                         comp_sizes[ci] == 0, (mid, entering))
    elif site.kind == moves.R2_INSERT:
        (c1, s1), (c2, s2) = site.gaps
        u = _entering(labels, comp_sizes[c1], c1, s1)
        v = _entering(labels, comp_sizes[c2], c2, s2)
        u1, v1 = _poke_interior(b, site, u, v)
        if c1 == c2 and s2 >= s1:
            # mirror apply_move: under pair first keeps the over slot valid
            new_labels = _insert_pair_labels(labels, c2, s2,
                                             comp_sizes[c2] == 0, (v1, v))
            new_labels = _insert_pair_labels(new_labels, c1, s1, False, (u1, u))
        else:
            new_labels = _insert_pair_labels(labels, c1, s1,
                                             comp_sizes[c1] == 0, (u1, u))
            new_labels = _insert_pair_labels(new_labels, c2, s2,
                                             False if c1 == c2 else comp_sizes[c2] == 0,
                                             (v1, v))
    elif site.kind in (moves.R1_DELETE, moves.R2_DELETE):
        doomed: dict[int, set[int]] = {}
        for ci, i in site.pairs:
            n = comp_sizes[ci]
            doomed.setdefault(ci, set()).update({i, (i + 1) % n})
        new_labels = []
        for ci, comp_labels in enumerate(labels):
            dead = doomed.get(ci)
            if not dead:
                new_labels.append(tuple(comp_labels))
                continue
            n = comp_sizes[ci]
            kept = [i for i in range(n) if i not in dead]
            if not kept:
                if len(set(comp_labels)) != 1:
                    raise AssertionError("inconsistent labels on a vanishing component")
                new_labels.append((comp_labels[0],))
                continue
            for idx, i in enumerate(kept):
                j = kept[(idx + 1) % len(kept)]
                if (i + 1) % n != j and comp_labels[i] != comp_labels[(j - 1) % n]:
                    raise AssertionError("fused arcs carry different labels")
            new_labels.append(tuple(comp_labels[i] for i in kept))
    else:
        raise ValueError(f"transport does not support {site.kind}")

    new_labels = tuple(tuple(c) for c in new_labels)
    if not check_coloring(forget(new_code), b, new_labels):
        raise AssertionError("transported labels do not color the new diagram")
    return new_code, new_labels


def _insert_pair_labels(labels, ci, slot, was_empty, pair):
    first, second = pair
    out = list(labels)
    comp = list(out[ci])
    if was_empty:
        # the lone circle arc is split by the inserted pattern
        out[ci] = (first, second)
    else:
        out[ci] = tuple(comp[:slot] + [first, second] + comp[slot:])
    return out


def _poke_interior(b: FiniteFlatBiquandle, site, u: int, v: int):
    """Interior labels (after O_a, after U-pair first passage) of a poke."""
    s = site.sign
    star, sharp = b.star, b.sharp
    if site.variant == moves.COHERENT:
        if s > 0:
            return sharp[u][v], star[v][u]
        return star[u][v], sharp[v][u]
    if site.variant == moves.ANTIPARALLEL:
        solutions = []
        for y in range(b.n):
            if s > 0:
                x = sharp[u][y]
                if sharp[v][x] == y:
                    solutions.append((x, y))
            else:
                x = star[u][y]
                if star[v][x] == y:
                    solutions.append((x, y))
        if len(solutions) != 1:
            raise ValueError("poke interior labels are not unique; axiom 2 fails")
        return solutions[0]
    raise ValueError(f"unknown R2 variant {site.variant!r}")


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
