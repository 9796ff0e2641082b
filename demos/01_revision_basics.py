"""Walkthrough: distance-based revision on a two-atom signature.

We build the Hamming distance over the four valuations of {p, q}, revise a
few theories, and watch the classical revision postulates hold.
"""

from distrev import formula_to_text
from distrev.revision import (
    RevisionOperator,
    Theory,
    check_agm,
    check_disjunction_iteration,
    hamming_pseudo_distance,
    revise,
)

SIG = ("p", "q")

# ---------------------------------------------------------------------------
# The distance: cost of moving between valuations = number of flipped atoms.

dist = hamming_pseudo_distance(SIG)
op = RevisionOperator.from_distance(dist, SIG)

print("distance between 11 and 00:", dist.d(dist.universe[3], dist.universe[0]))
print("distance between 11 and 01:", dist.d(dist.universe[3], dist.universe[1]))

# ---------------------------------------------------------------------------
# Revising "p and q" by "not p": the closest not-p world keeps q.

gamma = Theory.from_formulas(["p & q"], SIG)
delta = Theory.from_formulas(["!p"], SIG)
result = revise(op, gamma, delta)

print("\nrevise(p & q, !p):")
print("  models:", sorted(v.label() for v in result.model_set))
print("  theory:", formula_to_text(result.canonical_formula()))

# When the theories already overlap, revision is plain intersection.
gamma = Theory.from_formulas(["p"], SIG)
delta = Theory.from_formulas(["q"], SIG)
result = revise(op, gamma, delta)
print("\nrevise(p, q) models:", sorted(v.label() for v in result.model_set))

# ---------------------------------------------------------------------------
# The postulate check: exhaustive over all 225 consistent pairs for the
# first four postulates, and all 3,375 triples for the composite one.

reports = check_agm(op)
print("\npostulates:")
for name, report in reports.items():
    print(f"  {name}: {'pass' if report.passed else 'fail'}")

# Both iterated-disjunction properties hold for any single-distance operator,
# here on all 50,625 tuples.
reports = check_disjunction_iteration(op)
for name, report in reports.items():
    print(f"  {name}: {'pass' if report.passed else 'fail'}")
