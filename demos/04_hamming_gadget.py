"""Walkthrough: the Hamming-realized cycle gadget.

The same cycle as in the abstract gadget, but the points are now genuine
valuations over 2m atoms: each cycle point sets exactly one atom.  Costs
track the Hamming difference closely (the sandwich bound), the order of
differences is respected, and the modified operator is guarded so that the
special entries only fire away from nearby off-cycle valuations.
"""

from distrev.logic import hamming_diff
from distrev.wheel import build_hamming_wheel, verify_hamming_claims

# ---------------------------------------------------------------------------
# Build the gadget: 8 cycle valuations over 8 atoms plus three off-cycle
# valuations at Hamming difference 1, 2, and >= 3 from the cycle.

gadget = build_hamming_wheel(n=1)
print("signature:", gadget.points["v1"].atoms)
print("v1 =", gadget.points["v1"].label())
print("w1 =", gadget.points["w1"].label())
print("e1 =", gadget.points["e1"].label(), "(difference 1 from every cycle point)")
print("e3 =", gadget.points["e3"].label(), "(difference >= 3 from everything)")

d = gadget.dist
print("\nsample costs vs Hamming difference:")
for a, b in [("v1", "w1"), ("v1", "w2"), ("v1", "w3"), ("e1", "v1"), ("e3", "v1")]:
    h = len(hamming_diff(gadget.points[a], gadget.points[b]))
    print(f"  d({a}, {b}) = {d.d(a, b)}   |h| = {h}")

# ---------------------------------------------------------------------------
# The guard: the special wrap entry only fires when no cross pair leaves
# the cycle at Hamming difference below 3.  The modified operator is a
# table over the distance: its entries are the wrap pair and its mirror,
# each extended by every set of extras that stays clear of the guard;
# every other pair, a guarded one included, is plain minimization.

op = gadget.op.lookup
wrap_v, wrap_w = {"v4", "v1"}, {"w4", "w1"}
print("\nexplicit entries:", len(gadget.op.entries))
print("wrap entry:", sorted(op(wrap_v, wrap_w)))
print("wrap entry with e1 added:", sorted(op(wrap_v | {"e1"}, wrap_w)),
      "(guard fired, plain minimization)")
print("wrap entry with e3 added:", sorted(op(wrap_v | {"e3"}, wrap_w)),
      "(far valuation, special entry still in force)")

# ---------------------------------------------------------------------------
# Full claim verification: unrealizability of the fragment, inclusive
# entries, patched equality on every subset pair of the 11-point pool, the
# in-cycle reduction property, Hamming-order respect, the liberal triangle
# property, the sandwich bound, and a chain violation.

report = verify_hamming_claims(gadget)
print("\nequality sweep:", report.equality.pairs_checked, "pairs,",
      "zero mismatches" if report.equality.passed else "MISMATCH")
print("reduction sweep:", report.reduction.pairs_checked, "pairs,",
      "pass" if report.reduction.passed else "fail")
for name, prop in report.properties.items():
    print(f"{name}: {'pass' if prop.passed else 'fail'}")
print("fragment:", report.fragment_verdict.status)
print("chain violation at k =", report.loop.k)
print("\nall claims verified:", report.passed)
