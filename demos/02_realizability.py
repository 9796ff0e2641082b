"""Walkthrough: deciding whether a finite operator table comes from a
distance.

Each entry gets a variable for its minimum cost over V x W; membership and
exclusion facts compile to single ordering atoms between that minimum and the
pair costs.  A search that propagates forced atoms and branches on the rest
settles them, rejecting any choice that closes a strict cycle.  A
brute-force sweep over all weak orders double-checks small instances.
"""

from fractions import Fraction

from distrev import OperatorTable, PseudoDistance, apply
from distrev.costs import OrderMode
from distrev.realizability import (
    brute_force_realizable,
    compile_constraints,
    solve_table,
)

F = Fraction
U = ("a", "b", "c")

# ---------------------------------------------------------------------------
# A realizable table: read a few entries off an actual distance.

dist = PseudoDistance.from_function(
    U, OrderMode.REAL, lambda v, w: F(0) if v == w else F(1 if "a" in (v, w) else 2)
)
entries = {
    (frozenset({"a"}), frozenset({"b", "c"})): apply(dist, {"a"}, {"b", "c"}),
    (frozenset({"b"}), frozenset({"a", "c"})): apply(dist, {"b"}, {"a", "c"}),
    (frozenset({"a", "b"}), frozenset({"c"})): apply(dist, {"a", "b"}, {"c"}),
}
table = OperatorTable(U, entries)

system = compile_constraints(table)
print("pair variables:", list(system.variables))
print("entry minima:", [tag for (tag,) in system.minima])
# each clause is (entry tag, atoms); an atom (a, b, strict) indexes the names
names = system.variables + system.minima
print("unit atoms:", sum(len(atoms) == 1 for _tag, atoms in system.encoded))
for _tag, atoms in system.encoded:
    if len(atoms) > 1:
        print("choice:", " or ".join(
            f"{names[a]}{'<' if strict else '<='}{names[b]}" for a, b, strict in atoms))

verdict = solve_table(table)
print("verdict:", verdict.status, "in", verdict.nodes, "node(s)")
print("witness ranks:", dict(sorted(verdict.witness.items())))

# ---------------------------------------------------------------------------
# An unrealizable table: three entries force a strict cycle among the
# costs out of a single source point.

cyclic = OperatorTable(
    ("v", "w1", "w2", "w3"),
    {
        (frozenset({"v"}), frozenset({"w1", "w2"})): frozenset({"w1"}),
        (frozenset({"v"}), frozenset({"w2", "w3"})): frozenset({"w2"}),
        (frozenset({"v"}), frozenset({"w1", "w3"})): frozenset({"w3"}),
    },
)
verdict = solve_table(cyclic)
print("\ncyclic table verdict:", verdict.status)
print("conflicting entries:")
for tag in verdict.conflict:
    print("  ", tag)

# ---------------------------------------------------------------------------
# The independent oracle agrees.

oracle = brute_force_realizable(cyclic)
print("\noracle verdict:", oracle.status)
assert oracle.status == verdict.status
