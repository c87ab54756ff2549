"""Executable invariance: random Reidemeister walks never change P.

Each walk applies curls, pokes and triangle moves chosen by a seeded RNG.
The report also demonstrates sensitivity: a deliberately corrupted triangle
move is caught immediately.
"""

from vknot import (
    affine_index_polynomial,
    invariance_report,
    parse_signed,
    random_walk,
    serialize,
)
from vknot import moves
from vknot.diagram_ops import virtualize

seeds = [parse_signed(s) for s in (
    "O1+ O2+ U1+ U2+",
    "O1+ U2+ O3+ U1+ O2+ U3+",
    "O1+ O2+ U1+ O3+ U2+ U3+",
)]

walk = random_walk(seeds[0], steps=12, seed=5)
print("one walk from the virtual trefoil:")
for line in walk.trace:
    print("  ", line)
print("final code:", serialize(walk.code))
print("P before:", affine_index_polynomial(seeds[0]),
      "| after:", affine_index_polynomial(walk.code))
print()

report = invariance_report(seeds, steps=15, trials=50, seed=123)
print(f"invariance sweep: {report.passed}/{report.trials} trials preserve P")

real_apply = moves.apply_move


def corrupted(code, site):
    out = real_apply(code, site)
    if site.kind == moves.R3:
        ci, i = site.pairs[0]
        out = virtualize(out, {code.components[ci][i].crossing})
    return out


moves.apply_move = corrupted
try:
    bad = invariance_report([seeds[2]], steps=10, trials=30, seed=9)
finally:
    moves.apply_move = real_apply

print(f"with a corrupted triangle move: {bad.passed}/{bad.trials} pass, "
      f"{len(bad.failures)} failing traces recorded")
print("first failing trace:")
for line in bad.failures[0].trace:
    print("  ", line)
