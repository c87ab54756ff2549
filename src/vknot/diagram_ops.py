"""Structural transforms on Gauss codes: reverse, mirror, switches,
virtualization, oriented smoothing, writhe."""

from __future__ import annotations

from collections.abc import Iterable

from .gauss_code import OVER, UNDER, Passage, SignedGaussCode


def reverse(code: SignedGaussCode) -> SignedGaussCode:
    """Reverse orientation: each cyclic sequence runs backwards.

    Roles and signs are unchanged (crossing signs are orientation
    reversal invariant when both strands reverse).  Involution.
    """
    return SignedGaussCode(tuple(tuple(reversed(comp)) for comp in code.components))


def _switch_passage(p: Passage) -> Passage:
    return Passage(p.crossing, UNDER if p.role == OVER else OVER, -p.sign)


def mirror(code: SignedGaussCode) -> SignedGaussCode:
    """Mirror image: switch every crossing (swap over/under, flip sign)."""
    return SignedGaussCode(tuple(
        tuple(_switch_passage(p) for p in comp) for comp in code.components))


def _check_known(code: SignedGaussCode, ids: Iterable[int]) -> set[int]:
    ids = set(ids)
    unknown = ids - code.crossing_ids()
    if unknown:
        raise ValueError(f"unknown crossing ids {sorted(unknown)}")
    return ids


def switch_crossings(code: SignedGaussCode, ids: Iterable[int]) -> SignedGaussCode:
    """Swap over/under and flip the sign at the listed crossings only."""
    ids = _check_known(code, ids)
    return SignedGaussCode(tuple(
        tuple(_switch_passage(p) if p.crossing in ids else p for p in comp)
        for comp in code.components))


def virtualize(code: SignedGaussCode, ids: Iterable[int]) -> SignedGaussCode:
    """Virtualize the listed crossings: flip their signs, keep roles.

    Flanking a crossing with two virtual crossings reverses the local
    orientation of one strand; the virtual crossings themselves leave no
    trace in a Gauss code, so only the sign flips.
    """
    ids = _check_known(code, ids)
    return SignedGaussCode(tuple(
        tuple(Passage(p.crossing, p.role, -p.sign) if p.crossing in ids else p
              for p in comp)
        for comp in code.components))


def writhe(code: SignedGaussCode) -> int:
    """Sum of the crossing signs."""
    return sum(p.sign for comp in code.components for p in comp) // 2


def _locate(components, cid):
    spots = [(ci, pi) for ci, comp in enumerate(components)
             for pi, p in enumerate(comp) if p.crossing == cid]
    if len(spots) != 2:
        raise ValueError(f"unknown crossing id {cid}")
    return spots


def _smooth_labeled(components, cid):
    """Smooth one crossing of [(passages, labels)] components, labels riding.

    Self-crossing: the two arcs between the passages become separate cyclic
    components (inserted in place of the original, in-between piece first).
    Mixed crossing: the two components concatenate at the deleted passages.
    This is the unique orientation-respecting reconnection.
    """
    (ci, i), (cj, j) = _locate([c for c, _ in components], cid)
    if ci == cj:
        comp, labels = components[ci]
        between = [(comp[k], labels[k]) for k in range(i + 1, j)]
        complement = [(comp[k % len(comp)], labels[k % len(comp)])
                      for k in range(j + 1, i + len(comp))]
        piece1 = _piece(between, labels[i])
        piece2 = _piece(complement, labels[j])
        return components[:ci] + [piece1, piece2] + components[ci + 1:]
    comp_a, labels_a = components[ci]
    comp_b, labels_b = components[cj]
    merged = ([(comp_a[k % len(comp_a)], labels_a[k % len(comp_a)])
               for k in range(i + 1, i + len(comp_a))]
              + [(comp_b[k % len(comp_b)], labels_b[k % len(comp_b)])
                 for k in range(j + 1, j + len(comp_b))])
    piece = _piece(merged, labels_a[i])
    out = components[:ci] + [piece] + components[ci + 1:]
    del out[cj]  # ci's slot was replaced 1-for-1, so cj still indexes B
    return out


def _piece(pairs, circle_label):
    if pairs:
        return [p for p, _ in pairs], [l for _, l in pairs]
    # a closed loop with no passages keeps the single surviving arc label
    return [], [circle_label]


def smooth_oriented(code: SignedGaussCode, cid: int) -> SignedGaussCode:
    """Delete both passages of one crossing and reconnect along orientation.

    A self-crossing splits its component in two; a crossing between two
    components merges them.
    """
    components = [(list(comp), [None] * max(len(comp), 1))
                  for comp in code.components]
    result = _smooth_labeled(components, cid)
    return SignedGaussCode(tuple(tuple(comp) for comp, _ in result))


def smooth_zero_weight(code: SignedGaussCode, coloring):
    """Smooth every crossing of weight zero, carrying arc labels along.

    At a zero-weight crossing the labels of the fused arcs agree, so the
    inherited labels form a valid coloring of the output (checked).
    Returns (code, coloring); a coloring that breaks the labeling rule
    raises ValidationError from crossing_weights.
    """
    from .coloring import ChengColoring, verify_coloring
    from .invariant import crossing_weights

    table = crossing_weights(code, coloring)
    zero_ids = sorted(e.crossing for e in table.entries if e.weight == 0)
    components = [(list(comp), list(labels))
                  for comp, labels in zip(code.components, coloring.labels)]
    for cid in zero_ids:
        components = _smooth_labeled(components, cid)
    out_code = SignedGaussCode(tuple(tuple(comp) for comp, _ in components))
    out_coloring = ChengColoring(tuple(tuple(labels) for _, labels in components))
    if not verify_coloring(out_code, out_coloring):
        raise AssertionError("smoothing produced an inconsistent labeling")
    return out_code, out_coloring
