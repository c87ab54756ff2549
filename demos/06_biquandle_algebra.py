"""The finite algebra behind the labeling rule.

Solving the flat biquandle axioms for affine operation pairs on Z/5 (an
affine identity holds for all labels exactly when its coefficients agree
mod N) shows they force the unary family star = p^-1 a + k,
sharp = p a - p k; zero divisors add more solutions at N = 4, 8 and 9.
The weight condition W+ + W- = 0 then forces p = 1, which is exactly the
increment/decrement rule of the index polynomial.
Preflats (axioms 1-2 only) are a strictly larger family and still give
move I/II invariants of colorings: doodle pre-invariants.  Axioms 1 and 2
also say a coloring extends uniquely through moves I and II, which is how
transport_coloring carries one through a curl and back.
"""

from vknot import (
    basic_preflat,
    check_axioms,
    doodle_pre_invariant,
    enumerate_colorings,
    forget,
    make_affine,
    parse_signed,
    serialize,
    search_affine,
    transport_coloring,
    unary_affine_params,
    weight_condition,
)
from vknot.moves import MoveSite, R1_DELETE, R1_INSERT, find_move_sites

print("affine flat biquandles over Z/5 (r s k p q l):")
for params in search_affine(5):
    print("  ", params.as_line())
print()

alpha2 = make_affine(unary_affine_params(5, 2, 0))
print("alpha = 2 table: axioms pass:",
      check_axioms(alpha2).is_flat_biquandle,
      "| weight condition witness:", weight_condition(alpha2))
inc = make_affine(unary_affine_params(5, 1, 1))
print("alpha = 1 table: axioms pass:",
      check_axioms(inc).is_flat_biquandle,
      "| weight condition witness:", weight_condition(inc))
print()

preflat = basic_preflat(5, 2, 0)
report = check_axioms(preflat)
print("basic preflat q=2 over Z/5: axiom1/2 pass:", report.is_preflat,
      "| axiom 3 counterexample:", report.axiom3)
print("  weight condition still holds:", weight_condition(preflat) is None)
print()

code = parse_signed("O1+ O2+ U1+ U2+")
colorings = enumerate_colorings(forget(code), preflat)
print(f"virtual trefoil colorings under the q=2 preflat: {len(colorings)}")
for labels in colorings:
    vec = doodle_pre_invariant(code, preflat, labels)
    print(f"  labels {labels[0]} -> doodle vector {vec}")
print()

labels = colorings[1]
print(f"curl round trip under the q=2 preflat, from labels {labels[0]}:")
curl = MoveSite(R1_INSERT, gaps=((0, 2),), sign=-1)
curled, curled_labels = transport_coloring(code, labels, curl, preflat)
print(f"  {curl.describe()}: {serialize(curled)}  labels {curled_labels[0]}"
      f"  doodle {doodle_pre_invariant(curled, preflat, curled_labels)}")
uncurl = find_move_sites(curled, R1_DELETE)[0]
back, back_labels = transport_coloring(curled, curled_labels, uncurl, preflat)
print(f"  {uncurl.describe()}: {serialize(back)}  labels {back_labels[0]}"
      f"  doodle {doodle_pre_invariant(back, preflat, back_labels)}")
