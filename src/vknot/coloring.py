"""Cheng colorings: integer arc labels that grow by one crossing left and
drop by one crossing right.

Arc ``i`` of a component is the segment immediately following passage ``i``
in cyclic order; a zero-passage component has exactly one arc.  Every label
is read through one crossing table, built in one pass by crossing_table():
each crossing's sign and passage spots, and each component's labels
propagated from 0.  The table depends on the code alone, so it is built
once per code value and kept as ``code.table``.  A coloring shifts those
labels by a per-component offset, so it closes up exactly when the
component's role imbalance vanishes.  For knots the canonical labeling is
lambda(arc) = the signed count of crossings first met as overcrossings when
traversing the diagram from that arc; links carry no canonical base, so
their offsets are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import UncolorableError, ValidationError
from .gauss_code import LEFT, OVER, RIGHT, UNDER, Passage, SignedGaussCode, \
    flat_role

_OVER_UNDER = (OVER, UNDER)
_PAIRED = object()  # marks a crossing whose two passages are both seen


@dataclass(frozen=True)
class ChengColoring:
    """Arc labels per component, indexed 'arc i follows passage i'."""

    labels: tuple[tuple[int, ...], ...]

    def __getitem__(self, component: int) -> tuple[int, ...]:
        return self.labels[component]

    def shifted(self, offset: int) -> "ChengColoring":
        return ChengColoring(tuple([
            tuple([l + offset for l in comp]) for comp in self.labels]))


def serialize_coloring(coloring: ChengColoring) -> str:
    """Per component, comma separated labels in arc order, ';' between."""
    return " ; ".join(",".join(str(l) for l in comp) for comp in coloring.labels)


@dataclass(frozen=True)
class ColorabilityReport:
    colorable: bool
    imbalances: tuple[int, ...]


class CrossingRow(NamedTuple):
    """One crossing, spots as (component, position); sign, over and under
    are None at a flat or singular crossing.  w_plus = in(R) - in(L) - 1 on
    the labels propagated from 0."""

    crossing: int
    sign: int | None
    over: tuple[int, int] | None
    under: tuple[int, int] | None
    left: tuple[int, int]
    right: tuple[int, int]
    w_plus: int


@dataclass(frozen=True)
class CrossingTable:
    """Rows in crossing id order, and per component the labels propagated
    from 0: ``labels[c][i]`` enters passage i of component c, and the last
    entry, after a full turn, is the component's role imbalance."""

    rows: tuple[CrossingRow, ...]
    labels: tuple[tuple[int, ...], ...]

    def colorability(self) -> ColorabilityReport:
        imbalances = tuple([walk[-1] for walk in self.labels])
        return ColorabilityReport(not any(imbalances), imbalances)

    def coloring(self, offsets=None) -> ChengColoring:
        """Arc labels with offsets[c] entering component c's first passage,
        except that a knot gets its lambda labels shifted by offsets[0];
        without offsets, a knot's lambda labels."""
        if offsets is None:
            if len(self.labels) != 1:
                raise ValueError(
                    "lambda_coloring is defined for one-component codes")
            offsets = (0,)
        if len(self.labels) == 1:
            if self.labels[0][-1] != 0:
                raise AssertionError("labeling failed to close around a knot")
            # lambda's base: the crossings first met as overcrossings
            base = sum(r.sign for r in self.rows if r.sign and r.over < r.under)
            offsets = (offsets[0] + base,)
        else:
            report = self.colorability()
            if not report.colorable:
                raise UncolorableError(
                    f"role imbalances {report.imbalances} prevent a coloring")
        return ChengColoring(tuple([
            tuple([offset + l for l in walk[1:]]) or (offset,)
            for walk, offset in zip(self.labels, offsets)]))

    def verify(self, coloring: ChengColoring) -> bool:
        """True iff every passage changes the label as the propagation does."""
        if len(coloring.labels) != len(self.labels):
            raise ValidationError("coloring has wrong number of components")
        for walk, arcs in zip(self.labels, coloring.labels):
            if len(arcs) != max(len(walk) - 1, 1):
                raise ValidationError("coloring has wrong number of arcs")
            for i in range(len(walk) - 1):
                if arcs[i] - arcs[i - 1] != walk[i + 1] - walk[i]:
                    return False
        return True


def crossing_table(code) -> CrossingTable:
    """The crossing table of a signed, flat or partly singular code, in one
    pass: a crossing's row is made at its second passage.  Uncached; the
    package reads ``code.table``, which calls this once per code.  Raises
    ValidationError naming a crossing without exactly one L and one R
    passage or, if signed, one O and one U passage of one sign +1 or -1."""
    first: dict[int, object] = {}  # id -> first passage seen, or _PAIRED
    rows = []
    labels = []
    for ci, comp in enumerate(code.components):
        label = 0
        walk = [0]
        for pi, p in enumerate(comp):
            role = flat_role(p)
            seen = first.get(p.crossing)
            if seen is None:
                first[p.crossing] = (role, (ci, pi), p, label)
            elif seen is _PAIRED:
                raise ValidationError(
                    f"crossing {p.crossing} needs one L and one R passage")
            else:
                first[p.crossing] = _PAIRED
                rows.append(_row(seen, (role, (ci, pi), p, label)))
            label += 1 if role == LEFT else -1
            walk.append(label)
        labels.append(tuple(walk))
    if len(rows) != len(first):
        cid = min(c for c, seen in first.items() if seen is not _PAIRED)
        raise ValidationError(f"crossing {cid} needs one L and one R passage")
    rows.sort()
    return CrossingTable(tuple(rows), tuple(labels))


def _row(one, other) -> CrossingRow:
    """A crossing's row from its passages: (flat role, spot, passage, label
    entering it) each.  O/U spots come from each passage's own role."""
    if one[0] == RIGHT:
        one, other = other, one
    (role_l, left, pl, in_l), (role_r, right, pr, in_r) = one, other
    cid = pl.crossing
    if role_l != LEFT or role_r != RIGHT:
        raise ValidationError(f"crossing {cid} needs one L and one R passage")
    sign = over = under = None
    if isinstance(pl, Passage) or isinstance(pr, Passage):
        if (pl.role not in _OVER_UNDER or pr.role not in _OVER_UNDER
                or pl.sign not in (1, -1) or pr.sign != pl.sign):
            raise ValidationError(f"crossing {cid} needs one O and one U "
                                  f"passage of one sign, +1 or -1")
        sign = pl.sign
        over, under = (left, right) if pl.role == OVER else (right, left)
    return CrossingRow(cid, sign, over, under, left, right, in_r - in_l - 1)


def colorability(code) -> ColorabilityReport:
    """Per-component role imbalance (#L - #R); colorable iff all zero.

    Both passages of a self-crossing contribute one L and one R, so any
    one-component diagram is colorable.
    """
    return code.table.colorability()


def lambda_coloring(code: SignedGaussCode) -> ChengColoring:
    """The canonical labeling of a knot diagram.

    The base value on the arc entering passage 0 is the signed count of
    crossings first met as overcrossings from there, and the remaining
    labels follow by propagation.
    """
    return code.table.coloring()


def propagate_coloring(code: SignedGaussCode, offsets=None) -> ChengColoring:
    """Coloring from per-component offsets.

    A knot gets its canonical lambda labels shifted by the offset.  For a
    link, each component's offset is the label entering its first passage;
    the rest follow by propagation, which closes up exactly when the
    component's role imbalance vanishes.
    """
    ncomp = len(code.components)
    offsets = (0,) * ncomp if offsets is None else tuple(offsets)
    if len(offsets) != ncomp:
        raise ValueError(f"expected {ncomp} offsets, got {len(offsets)}")
    return code.table.coloring(offsets)


def verify_coloring(code, coloring: ChengColoring) -> bool:
    """True iff every passage changes the label by +1 (left) or -1 (right)."""
    return code.table.verify(coloring)


def incoming_label(coloring: ChengColoring, component: int, position: int) -> int:
    """Label on the arc entering the passage at (component, position)."""
    return coloring.labels[component][position - 1]
