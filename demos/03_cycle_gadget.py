"""Walkthrough: the abstract cycle gadget.

Take 2m points arranged as two rings joined by rungs, with carefully graded
costs, and redirect the operator on a single wrap-around entry.  The result
looks locally like a distance operator but provably is not: a small
sub-table of it already has no realizing distance, and the cyclic chain
condition fails.  Patching a fresh rung restores exact realizability.
"""

from distrev.distops import OperatorTable, find_loop_violation
from distrev.realizability import solve_table
from distrev.wheel import (
    build_wheel_gadget,
    loop_family_generators,
    proof_fragment,
    verify_wheel_claims,
)

# ---------------------------------------------------------------------------
# Build the gadget for the smallest cycle (m = 4: points v1..v4, w1..w4,
# plus two off-cycle extras).

gadget = build_wheel_gadget(n=1)
print("cycle size m =", gadget.m)
print("universe:", gadget.universe)

d = gadget.dist
print("\nsample costs:")
print("  rung      d(v2, w2) =", d.d("v2", "w2"))
print("  adjacent  d(v1, w2) =", d.d("v1", "w2"))
print("  chord     d(v1, w3) =", d.d("v1", "w3"))

# The modification: on the wrap pair the operator drops one of the two
# minimal points.  The operator is a table over the distance whose only
# entries are that pair and its mirror.
print("\nmodified entry {v4,v1} | {w4,w1} ->",
      sorted(gadget.op.lookup({"v4", "v1"}, {"w4", "w1"})))
print("explicit entries:", len(gadget.op.entries))

# ---------------------------------------------------------------------------
# The finite fragment that blocks realizability.

fragment = proof_fragment(gadget)
verdict = solve_table(fragment)
print("\nfragment of", len(fragment.entries), "entries:", verdict.status)

# ---------------------------------------------------------------------------
# The full claim verification: fragment unsat, the modified operator's
# entries are inclusive, the patched operator equals the patched
# minimization on every subset pair, the patched distance keeps all four
# real-order properties, and a chain violation exists.

report = verify_wheel_claims(gadget)
print("\nequality sweep:", report.equality.pairs_checked, "pairs (exhaustive),",
      "zero mismatches" if report.equality.passed else "MISMATCH")
for name, prop in report.properties.items():
    print(f"{name}: {'pass' if prop.passed else 'fail'}")

print(f"\nchain violation at k = {report.loop.k} = 2m - 1")
for i, vset in enumerate(report.loop.chain):
    print(f"  V_{i} = {{{', '.join(sorted(vset))}}}")

# The other side: the patched distance's own minimization is a distance
# operator, so the chain condition holds for it at every k.  Its least costs
# between the candidate sets are symmetric, so they rank the pairs of sets
# (phi), and the premises of any chain add up to its conclusion: the pass
# is certified, and no chain is walked.
patched = OperatorTable(gadget.universe, backing=gadget.patch(report.rung)[1])
holds = find_loop_violation(patched, loop_family_generators(gadget.m))
print("patched distance's operator:",
      f"passes for every k (certified by {holds.phi_classes} phi classes of pairs of sets)"
      if holds.phi_classes is not None else "NOT CERTIFIED")

print("\nall claims verified:", report.passed)
