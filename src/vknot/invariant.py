"""Crossing weights, the affine index polynomial and its relatives.

At a crossing whose left-incoming arc is labeled ``a`` and right-incoming
arc ``b``, the outgoing labels are ``a - 1`` (right) and ``b + 1`` (left),
and the crossing carries

    W_plus = a - (b + 1)        W_minus = b - (a - 1) = -W_plus

The weight of a crossing in a signed diagram is W_plus or W_minus according
to its sign, equivalently label(over-in) - label(under-in) - sign.  Both
computations are performed and compared at every crossing to guard the
left/right convention: the first reads the labels at the L and R spots of
the crossing table (coloring.crossing_table), the second at the O and U
spots, which the table takes from each passage's own over/under role.  The
polynomial of a knot K is

    P_K(t) = sum over crossings of sign(c) * (t^W(c) - 1)

taken with the canonical lambda coloring; links use a supplied coloring and
give an invariant of the (diagram, coloring) pair.  Weights that need no
coloring (symbolic link weights, flat weights) are read off the table's
flat W_plus, computed from labels propagated from 0.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .coloring import ChengColoring, crossing_table, incoming_label
from .diagram_ops import switch_crossings, writhe
from .errors import UncolorableError, ValidationError
from .gauss_code import FlatCode, FlatPassage, Passage, SignedGaussCode, \
    flat_role, resolve, validate
from .laurent import LaurentPolynomial


@dataclass(frozen=True)
class CrossingWeight:
    crossing: int
    sign: int
    w_plus: int
    w_minus: int
    weight: int


@dataclass(frozen=True)
class WeightTable:
    entries: tuple[CrossingWeight, ...]

    def by_id(self) -> dict[int, CrossingWeight]:
        return {e.crossing: e for e in self.entries}

    def signed_weights(self) -> list[tuple[int, int]]:
        return [(e.sign, e.weight) for e in self.entries]


def crossing_weights(code: SignedGaussCode, coloring: ChengColoring | None = None) -> WeightTable:
    """Weight table for a colored diagram (canonical coloring for knots).

    Each weight is computed twice, from the flat a/b formula and from the
    over/under label difference; a mismatch means the role conventions have
    drifted and raises AssertionError.
    """
    table = crossing_table(code)
    if coloring is None:
        coloring = table.coloring()
    if not table.verify(coloring):
        raise ValidationError("coloring does not satisfy the labeling rule")
    entries = []
    for cid, sign, over, under, left, right, _w in table.rows:
        a = incoming_label(coloring, *right)
        b = incoming_label(coloring, *left)
        w_plus = a - (b + 1)
        w_minus = b - (a - 1)
        weight = w_plus if sign > 0 else w_minus
        over_in = incoming_label(coloring, *over)
        under_in = incoming_label(coloring, *under)
        if weight != over_in - under_in - sign:
            raise AssertionError(f"weight convention mismatch at crossing {cid}")
        entries.append(CrossingWeight(cid, sign, w_plus, w_minus, weight))
    return WeightTable(tuple(entries))


def _polynomial_from_weights(table: WeightTable) -> LaurentPolynomial:
    coeffs: dict[int, int] = {}
    for e in table.entries:
        coeffs[e.weight] = coeffs.get(e.weight, 0) + e.sign
        coeffs[0] = coeffs.get(0, 0) - e.sign
    return LaurentPolynomial.from_dict(coeffs)


def affine_index_polynomial(code: SignedGaussCode) -> LaurentPolynomial:
    """P_K(t) for a one-component code, using the canonical coloring."""
    if len(code.components) != 1:
        raise ValueError("affine_index_polynomial needs a one-component code; "
                         "use link_pair_polynomial for links")
    return _polynomial_from_weights(crossing_weights(code))


def link_pair_polynomial(code: SignedGaussCode, coloring: ChengColoring) -> LaurentPolynomial:
    """The same weight sum over all crossings with a supplied coloring."""
    return _polynomial_from_weights(crossing_weights(code, coloring))


@dataclass(frozen=True)
class SymbolicWeight:
    """Crossing weight as constant + offset[plus] - offset[minus].

    Self-crossings have plus_component == minus_component, so their weight is
    the constant regardless of offsets.
    """

    crossing: int
    sign: int
    constant: int
    plus_component: int
    minus_component: int

    def evaluate(self, offsets) -> int:
        return self.constant + offsets[self.plus_component] - offsets[self.minus_component]

    def __str__(self) -> str:
        s = str(self.constant)
        if self.plus_component != self.minus_component:
            s += f" + off_{self.plus_component} - off_{self.minus_component}"
        return s


def symbolic_link_weights(code: SignedGaussCode) -> tuple[SymbolicWeight, ...]:
    """Weights as affine expressions in per-component offsets.

    Every arc label is offset[component] plus an integer determined by
    propagation, so each weight is affine in the offsets with unit
    coefficients.
    """
    table = crossing_table(code)
    report = table.colorability()
    if not report.colorable:
        raise UncolorableError(
            f"role imbalances {report.imbalances} prevent a coloring")
    out = []
    for cid, sign, _over, _under, left, right, w_plus in table.rows:
        plus, minus = (right[0], left[0]) if sign > 0 else (left[0], right[0])
        out.append(SymbolicWeight(cid, sign, sign * w_plus, plus, minus))
    return tuple(out)


def vassiliev_invariant(source, n: int) -> Fraction:
    """v_n = (1/n!) * sum of sign(c) * W(c)^n, as an exact rational.

    ``source`` is either a one-component code (weights computed internally)
    or an iterable of (sign, weight) pairs.
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    if isinstance(source, SignedGaussCode):
        pairs = crossing_weights(source).signed_weights()
    else:
        pairs = list(source)
    total = sum(sign * weight**n for sign, weight in pairs)
    return Fraction(total, factorial(n))


def vassiliev_of_polynomial(poly: LaurentPolynomial, n: int) -> Fraction:
    """Coefficient of x^n in P(e^x), times nothing else: (1/n!) sum a_i c_i^n."""
    if n < 1:
        raise ValueError("order n must be >= 1")
    return Fraction(sum(c * e**n for e, c in poly.terms), factorial(n))


def skein_difference(code: SignedGaussCode, cid: int) -> LaurentPolynomial:
    """P(K with crossing cid positive) - P(K with it negative).

    Equals t^W + t^-W - 2 where W is the positive version's W_plus at cid;
    the -2 is the writhe difference between the two diagrams.
    """
    if cid not in code.crossing_ids():
        raise ValueError(f"unknown crossing id {cid}")
    sign = next(p.sign for _ci, _pi, p in code.passages() if p.crossing == cid)
    plus = code if sign > 0 else switch_crossings(code, {cid})
    minus = switch_crossings(plus, {cid})
    return affine_index_polynomial(plus) - affine_index_polynomial(minus)


@dataclass(frozen=True)
class SingularCode:
    """A signed code in which some crossings are graphical nodes.

    Singular crossings carry only flat roles (FlatPassage); the rest are
    ordinary signed passages.
    """

    components: tuple[tuple[Passage | FlatPassage, ...], ...]

    def singular_ids(self) -> set[int]:
        return {p.crossing for comp in self.components for p in comp
                if isinstance(p, FlatPassage)}


def make_singular(code: SignedGaussCode, ids) -> SingularCode:
    """Flag the listed crossings as singular nodes, keeping flat roles."""
    ids = set(ids)
    unknown = ids - code.crossing_ids()
    if unknown:
        raise ValueError(f"unknown crossing ids {sorted(unknown)}")
    return SingularCode(tuple(
        tuple(FlatPassage(p.crossing, flat_role(p)) if p.crossing in ids else p
              for p in comp)
        for comp in code.components))


def validate_singular(g: SingularCode) -> list[str]:
    plain = SignedGaussCode(tuple([
        tuple([p for p in comp if isinstance(p, Passage)])
        for comp in g.components]))
    violations = [f"crossing {cid} is both singular and signed"
                  for cid in sorted(g.singular_ids() & plain.crossing_ids())]
    violations.extend(validate(plain))
    if not violations:  # what is left to check is the singular roles
        try:
            crossing_table(g)
        except ValidationError as exc:
            violations.append(str(exc))
    return violations


def flat_weights(code) -> dict[int, int]:
    """W_plus of every crossing of a one-component diagram, by crossing id.

    Only flat roles are read, so ``code`` may be flat, signed or partly
    singular.  Labels propagate once from 0 and W_plus = in(R) - in(L) - 1;
    the base label cancels in the difference.  Since W_minus = -W_plus, the
    resolution with signs s has weight s_c * w_c at crossing c.
    """
    if len(code.components) != 1:
        raise ValueError("flat weights are defined for one-component codes")
    return {row.crossing: row.w_plus for row in crossing_table(code).rows}


def graph_polynomial(g: SingularCode) -> LaurentPolynomial:
    """Polynomial of a 4-valent graph diagram: each singular node expands as
    (positive resolution) - (negative resolution).

    The expansion has a closed form.  Switching a crossing leaves the flat
    diagram alone, so one node gives the skein value t^w + t^-w - 2 with w
    the node's flat W_plus, and with two or more nodes the differences cancel
    exactly to 0.  With no singular nodes this is the ordinary polynomial.
    """
    violations = validate_singular(g)
    if violations:
        raise ValidationError("; ".join(violations))
    if len(g.components) != 1:
        raise ValueError("graph_polynomial needs a one-component code")
    ids = g.singular_ids()
    if not ids:
        return affine_index_polynomial(resolve(g, {}))
    if len(ids) > 1:
        return LaurentPolynomial.zero()
    (cid,) = ids
    w = flat_weights(g)[cid]
    return (LaurentPolynomial.monomial(w) + LaurentPolynomial.monomial(-w)
            - LaurentPolynomial.monomial(0, 2))


@dataclass(frozen=True)
class FlatCertificate:
    """Result of checking every resolution of a flat knot.

    certified is True when no resolution has zero polynomial; witness is the
    first zero-polynomial resolution in enumeration order otherwise.
    polynomials lists all 2^n resolution values in the order of
    gauss_code.resolutions().
    """

    certified: bool
    witness: SignedGaussCode | None
    polynomials: tuple[LaurentPolynomial, ...]


def flat_nontriviality_certificate(flat: FlatCode) -> FlatCertificate:
    """Certify a flat knot nontrivial: every resolution has P != 0.

    A trivializable flat diagram would be overlaid by a trivializing isotopy
    for some resolution, so an all-nonzero sweep certifies the flat knot
    itself nontrivial.

    No resolution is built for the sweep: with w the flat weights,
    resolution s has P = sum of s_c * (t^(s_c * w_c) - 1).  For e > 0 only
    the crossings with |w_c| = e reach t^e and t^-e, and both coefficients
    vanish exactly when m_e = m_-e (the counts of w_c = e and w_c = -e) and
    m_e of those crossings are positive.  So a zero resolution exists iff
    the weight multiset is symmetric, and the first one in enumeration order
    makes the first m_e crossings by id of each |w| = e positive, the rest
    negative, and every w = 0 crossing positive.  Only that witness is built,
    and its polynomial is checked once.
    """
    if len(flat.components) != 1:
        raise ValueError("flat certificates are defined for one-component codes")
    weights = flat_weights(flat)
    polys = []
    for choice in itertools.product((1, -1), repeat=len(weights)):
        coeffs = {0: -sum(choice)}
        for s, w in zip(choice, weights.values()):
            coeffs[s * w] = coeffs.get(s * w, 0) + s
        polys.append(LaurentPolynomial.from_dict(coeffs))
    counts = Counter(weights.values())
    if any(counts[e] != counts[-e] for e in counts):
        return FlatCertificate(True, None, tuple(polys))
    placed: Counter[int] = Counter()
    signs = {}
    for cid, w in weights.items():
        signs[cid] = 1 if placed[abs(w)] < counts[abs(w)] else -1
        placed[abs(w)] += 1
    witness = resolve(flat, signs)
    if not affine_index_polynomial(witness).is_zero():
        raise AssertionError("closed-form witness has a nonzero polynomial")
    return FlatCertificate(False, witness, tuple(polys))
