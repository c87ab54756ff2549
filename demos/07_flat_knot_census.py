"""Certifying flat knots nontrivial from their flat weights.

A flat diagram whose every over/under resolution has nonzero polynomial
cannot be flat-trivial: a trivializing flat isotopy would lift to some
resolution.  The flat labels fix every resolution's weights, so the test
needs no resolution at all: some resolution has zero polynomial exactly
when the flat weights come in +e / -e pairs.  The flat trefoil fails this
test (weights 1 and -1; two of its four resolutions are unknots), but a
census of small flat knots finds diagrams that pass.
"""

from collections import Counter

from vknot import (
    all_flat_knot_codes,
    flat_nontriviality_certificate,
    parse_flat,
    serialize,
)

print("flat trefoil R1 R2 L1 L2:")
cert = flat_nontriviality_certificate(parse_flat("R1 R2 L1 L2"))
print("  certified:", cert.certified,
      "| zero-polynomial witness:", serialize(cert.witness))
print("  resolution polynomials:", [str(p) for p in cert.polynomials])
print()

print("census of flat knots by crossing number:")
for n in range(0, 5):
    codes = all_flat_knot_codes(n)
    results = Counter(
        flat_nontriviality_certificate(flat).certified for flat in codes)
    certified = [flat for flat in codes
                 if flat_nontriviality_certificate(flat).certified]
    print(f"  n={n}: {len(codes):4d} diagram classes, "
          f"{results[True]:3d} certified nontrivial")
    for flat in certified[:3]:
        print("       e.g.", serialize(flat))
