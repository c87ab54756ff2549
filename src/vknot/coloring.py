"""Cheng colorings: integer arc labels that grow by one crossing left and
drop by one crossing right.

Arc ``i`` of a component is the segment immediately following passage ``i``
in cyclic order; a zero-passage component has exactly one arc.  For knots the
canonical labeling is lambda(arc) = the signed count of crossings first met
as overcrossings when traversing the diagram from that arc, which satisfies
the propagation rule automatically.  Links carry no canonical base, so
propagation starts from explicit per-component offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UncolorableError, ValidationError
from .gauss_code import LEFT, OVER, FlatCode, SignedGaussCode, flat_role


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


def _roles(code) -> tuple[tuple[str, ...], ...]:
    if isinstance(code, FlatCode):
        return tuple([tuple([p.role for p in comp]) for comp in code.components])
    return tuple([tuple([flat_role(p) for p in comp])
                  for comp in code.components])


@dataclass(frozen=True)
class ColorabilityReport:
    colorable: bool
    imbalances: tuple[int, ...]


def colorability(code) -> ColorabilityReport:
    """Per-component role imbalance (#L - #R); colorable iff all zero.

    Both passages of a self-crossing contribute one L and one R, so any
    one-component diagram is colorable.
    """
    imbalances = tuple(
        sum(+1 if r == LEFT else -1 for r in comp) for comp in _roles(code))
    return ColorabilityReport(all(i == 0 for i in imbalances), imbalances)


def lambda_coloring(code: SignedGaussCode) -> ChengColoring:
    """The canonical labeling of a knot diagram.

    The base value on the arc entering passage 0 is computed from the
    defining sum (signs of crossings first met as overcrossings), and the
    remaining labels follow by propagation.
    """
    if len(code.components) != 1:
        raise ValueError("lambda_coloring is defined for one-component codes")
    comp = code.components[0]
    n = len(comp)
    if n == 0:
        return ChengColoring(((0,),))
    seen: set[int] = set()
    base = 0
    for p in comp:  # traversal starting on the arc entering passage 0
        if p.crossing not in seen:
            seen.add(p.crossing)
            if p.role == OVER:
                base += p.sign
    labels = [0] * n
    current = base
    for i, p in enumerate(comp):
        current += 1 if flat_role(p) == LEFT else -1
        labels[i] = current
    if labels[-1] != base:
        raise AssertionError("labeling failed to close around a knot")
    return ChengColoring((tuple(labels),))


def propagate_coloring(code: SignedGaussCode, offsets=None) -> ChengColoring:
    """Coloring from per-component offsets.

    A knot gets its canonical lambda labels shifted by the offset.  For a
    link, each component's offset is the label entering its first passage;
    the rest follow by propagation, which closes up exactly when the
    component's role imbalance vanishes.
    """
    ncomp = len(code.components)
    if offsets is None:
        offsets = (0,) * ncomp
    offsets = tuple(offsets)
    if len(offsets) != ncomp:
        raise ValueError(f"expected {ncomp} offsets, got {len(offsets)}")
    if ncomp == 1:
        return lambda_coloring(code).shifted(offsets[0])
    report = colorability(code)
    if not report.colorable:
        raise UncolorableError(
            f"role imbalances {report.imbalances} prevent a coloring")
    out = []
    for comp, offset in zip(code.components, offsets):
        if not comp:
            out.append((offset,))
            continue
        labels = []
        current = offset
        for p in comp:
            current += 1 if flat_role(p) == LEFT else -1
            labels.append(current)
        out.append(tuple(labels))
    return ChengColoring(tuple(out))


def verify_coloring(code, coloring: ChengColoring) -> bool:
    """True iff every passage changes the label by +1 (left) or -1 (right)."""
    roles = _roles(code)
    if len(coloring.labels) != len(roles):
        raise ValidationError("coloring has wrong number of components")
    for comp_roles, labels in zip(roles, coloring.labels):
        if len(labels) != max(len(comp_roles), 1):
            raise ValidationError("coloring has wrong number of arcs")
        for i, role in enumerate(comp_roles):
            before = labels[i - 1]  # arc entering passage i (cyclic)
            delta = 1 if role == LEFT else -1
            if labels[i] != before + delta:
                return False
    return True


def incoming_label(coloring: ChengColoring, component: int, position: int) -> int:
    """Label on the arc entering the passage at (component, position)."""
    return coloring.labels[component][position - 1]
