"""Decide whether a finite operator table is a distance operator.

Each entry (V, W, X) gets a minimum variable mu: units mu <= d(v, w) over
V x W and mu < d(v, w) for w outside X, and per w in X a clause that some
d(v, w) <= mu.  ``solve`` first asserts the units that close one level
deep (nothing else below their left end or above their right end), then
propagates clauses left with one viable atom (one closing no strict cycle
in the transitively closed order), branches on the clause with the fewest,
and asserts a failed choice's negation (DPLL(T)).
Each failure is explained by one justifying path of asserted atoms per
blocked atom, as in difference-logic theory solvers (Cotton and Maler, SAT
2006), and a failure that does not depend on the latest choice jumps back
past it.  A node is one propagate-then-branch step; ``unknown`` means only
that the node budget ran out.  A brute-force enumerator of all weak orders
over the pair variables serves as an independent oracle at small scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .costs import OrderMode, PseudoDistance
from .distops import apply
from .errors import BoundExceededError, UnrealizableError, WitnessError


def pair_var(v, w, symmetric):
    """The variable naming the unknown cost of a point pair."""
    if symmetric and w < v:
        return (w, v)
    return (v, w)


@dataclass(frozen=True)
class OrderAtom:
    """d(left) strictly or non-strictly below d(right)."""

    left: tuple
    right: tuple
    strict: bool

    def __repr__(self):
        op = "<" if self.strict else "<="
        return f"{self.left}{op}{self.right}"


@dataclass(frozen=True)
class Clause:
    """A disjunction of conjunctions of order atoms, tagged with the table
    entry that produced it; one atom per conjunction."""

    disjuncts: tuple  # tuple of tuples of OrderAtom
    provenance: str


@dataclass
class ConstraintSystem:
    """The compiled constraints in the solver's encoding: per clause, its
    entry tag and a tuple of ``(left, right, strict)`` atoms whose ends
    index ``variables + minima``."""

    variables: tuple  # pair variables (v, w)
    minima: tuple  # one minimum variable (tag,) per entry
    encoded: list  # (tag, atoms) per clause

    @property
    def clauses(self):
        """The clauses as ``Clause`` and ``OrderAtom`` objects, built on
        each read."""
        names = self.variables + self.minima
        return tuple(
            Clause(tuple((OrderAtom(names[a], names[b], strict),) for a, b, strict in atoms),
                   tag)
            for tag, atoms in self.encoded
        )


@dataclass
class Verdict:
    """sat with a rank witness, unsat with conflict provenances, or unknown
    on budget exhaustion."""

    status: str  # "sat" | "unsat" | "unknown"
    witness: dict = None
    conflict: list = None
    nodes: int = 0


def _tag(vs, ws):
    """The tag of the entry whose sorted V and W are ``vs`` and ``ws``."""
    return f"{vs}|{ws}"


def compile_constraints(table, symmetric=False):
    """Compile an operator table into ordering constraints over the pair
    variables and one minimum variable per entry."""
    # each entry's V and W sorted once; the keys are distinct, so the sort
    # never compares results
    rows = sorted((sorted(vset), sorted(wset), xset)
                  for (vset, wset), xset in table.entries.items())
    variables = set()
    entries = []  # (tag, {pair: strict}, the pairs of each w in X)
    for vs, ws, xset in rows:
        tag = _tag(vs, ws)
        if not xset.issubset(ws):
            raise UnrealizableError(f"entry {tag}: result not within W")
        if not vs or not ws:
            if xset:
                raise UnrealizableError(f"entry {tag}: empty argument with non-empty result")
            continue
        if not xset:
            raise UnrealizableError(
                f"entry {tag}: empty result on non-empty arguments "
                "(finite minimization is never empty)"
            )
        strict = {}  # pair -> whether mu lies strictly below it; strict wins
        kept = []  # the pairs of each w in X
        for w in ws:
            # pair_var inlined; for a fixed w it is injective in v
            ps = [(w, v) if w < v else (v, w) for v in vs] if symmetric else [(v, w) for v in vs]
            if w in xset:
                kept.append(ps)
                for p in ps:
                    strict.setdefault(p, False)
            else:
                strict.update(dict.fromkeys(ps, True))
        variables.update(strict)
        entries.append((tag, strict, kept))
    variables = tuple(sorted(variables))
    index = {var: i for i, var in enumerate(variables)}
    encoded = []
    for mu, (tag, strict, kept) in enumerate(entries, len(variables)):
        encoded += [(tag, ((mu, index[p], s),)) for p, s in strict.items()]
        encoded += [(tag, tuple([(index[p], mu, False) for p in ps])) for ps in kept]
    return ConstraintSystem(variables, tuple((tag,) for tag, _s, _k in entries), encoded)


class _OutOfNodes(Exception):
    pass


def solve(system, budget=200_000):
    """Propagate-then-branch search over the clauses (see the module doc),
    after the root units that close one level deep go straight into the
    closure.  a <= a is entailed and a < a blocked.

    Each failure is explained by one justifying path of trail atoms per
    blocked atom, found breadth-first, and by the entries behind those
    atoms, followed back through propagations and failed branches; a branch
    whose failure does not depend on its choice is not retried
    (backjumping), and an unsat verdict's conflict is the root's
    explanation.
    """
    n = len(system.variables) + len(system.minima)
    up = [1 << x for x in range(n)]  # up[x]: bits of the variables entailed >= x
    sup = [0] * n  # sup[x]: bits of the variables entailed > x
    down = up[:]  # down[x]: bits of the variables entailed <= x
    trail = []  # asserted atoms (a, b, strict, why)
    out = [[] for _ in range(n)]  # out[a]: trail indices of the atoms from a
    nodes = 0

    def add(atom, why):
        a, b, strict = atom
        above = up[b]
        below = down[a]
        sabove = above if strict else sup[b]
        # a q already above a holds below in down[q]; taken before the loop
        # below widens up[a]
        fresh = above & ~up[a]
        m = below
        while m:
            low = m & -m
            m ^= low
            p = low.bit_length() - 1
            up[p] |= above
            sup[p] |= above if sup[p] >> a & 1 else sabove
        m = fresh
        while m:
            low = m & -m
            m ^= low
            down[low.bit_length() - 1] |= below
        out[a].append(len(trail))
        trail.append((a, b, strict, why))

    def path(atom, k):
        """The trail indices below k of one shortest path from b to a that
        blocks ``atom`` = (a, b, strict): a <= b is blocked by b < a, so the
        path crosses a strict atom, and a < b by b <= a.  A state is a
        variable, times 2, plus whether the path has crossed a strict atom
        (set from the start when the atom is strict)."""
        a, b, strict = atom
        inside = up[b] & down[a]
        goal = 2 * a + 1
        start = 2 * b + strict
        parent = {start: None}
        queue = [start]
        for state in queue:
            if state == goal:
                steps = []
                while parent[state] is not None:
                    state, j = parent[state]
                    steps.append(j)
                return steps
            crossed = state & 1
            for j in out[state >> 1]:
                if j >= k:
                    break
                _a, y, s, _why = trail[j]
                if inside >> y & 1:
                    nxt = 2 * y + (crossed | s)
                    if nxt not in parent:
                        parent[nxt] = state, j
                        queue.append(nxt)
        raise AssertionError(f"no trail path blocks {atom}: the closure is inconsistent")

    def explain(tag, atoms, k):
        """Why a clause whose atoms trail[:k] blocks fails: entry tags and
        the depths of the branch choices involved.  A propagated atom's
        ``why`` is its clause's tag and blocked atoms, expanded here."""
        reasons = {tag}
        need = bytearray(k)
        for atom in atoms:
            for j in path(atom, k):
                need[j] = 1
        for i in range(k - 1, -1, -1):
            if need[i]:
                why = trail[i][3]
                if isinstance(why, frozenset):
                    reasons |= why
                else:
                    reasons.add(why[0])
                    for atom in why[1]:
                        for j in path(atom, i):
                            need[j] = 1
        return frozenset(reasons)

    def propagate(pending):
        """Assert every clause's last viable atom to a fixpoint.  Returns a
        failure, or the open clauses and the viable atoms to branch on."""
        while True:
            progress = False
            still = []
            best = None
            for tag, atoms in pending:
                viable = []
                for atom in atoms:
                    a, b, strict = atom
                    if (sup if strict else up)[a] >> b & 1:
                        break  # entailed: the clause holds
                    # a <= b closes a strict cycle iff b < a; a < b iff b <= a
                    if not (up if strict else sup)[b] >> a & 1:
                        viable.append(atom)
                else:
                    if not viable:
                        return explain(tag, atoms, len(trail)), None, None
                    if len(viable) == 1:
                        others = [atom for atom in atoms if atom != viable[0]]
                        add(viable[0], (tag, others))
                        progress = True
                        continue
                    still.append((tag, atoms))
                    if best is None or len(viable) < len(best):
                        best = viable
            pending = still
            if not progress:
                return None, pending, best

    def search(pending, depth):
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > budget:
                raise _OutOfNodes
            failure, pending, best = propagate(pending)
            if failure is not None or best is None:
                return failure
            atom = best[0]
            saved = up[:], sup[:], down[:], len(trail)
            add(atom, frozenset([depth]))
            failure = search(pending, depth + 1)
            if failure is None:
                return None
            up[:], sup[:], down[:], length = saved
            for a, _b, _strict, _why in trail[length:]:
                out[a].pop()
            del trail[length:]
            if depth not in failure:
                return failure
            a, b, strict = atom
            add((b, a, not strict), failure - {depth})

    # a unit a <= b or a < b, a != b, with nothing else below a or above b
    # closes one level deep and cannot be blocked, so it goes straight into
    # the closure; propagate takes every other clause, a < a included
    pending = []
    for tag, atoms in system.encoded:
        if len(atoms) == 1:
            a, b, strict = atoms[0]
            if a != b and down[a] == 1 << a and up[b] == 1 << b:
                up[a] |= 1 << b
                sup[a] |= strict << b
                down[b] |= 1 << a
                out[a].append(len(trail))
                trail.append((a, b, strict, (tag, [])))
                continue
        pending.append((tag, atoms))
    try:
        failure = search(pending, 0)
    except _OutOfNodes:
        return Verdict("unknown", nodes=nodes)
    if failure is not None:
        return Verdict("unsat", conflict=sorted(failure), nodes=nodes)
    # rank = number of distinct classes (up[y], self included) strictly below
    witness = {
        var: len({up[y] for y in range(n) if sup[y] >> x & 1})
        for x, var in enumerate(system.variables)
    }
    return Verdict("sat", witness=witness, nodes=nodes)


def witness_distance(witness, universe, symmetric=False):
    """Convert rank assignments to an integer-cost pseudo-distance under the
    real order; pairs without a variable get a cost above every rank."""
    default = max(witness.values(), default=0) + 1
    return PseudoDistance.from_function(
        universe, OrderMode.REAL, lambda v, w: witness.get(pair_var(v, w, symmetric), default)
    )


def verify_witness(witness, table, symmetric=False):
    """Rebuild the minimization from witness ranks and check it reproduces
    every table entry exactly."""
    dist = witness_distance(witness, table.universe, symmetric)
    for (vset, wset), xset in table.sorted_entries():
        if apply(dist, vset, wset) != xset:
            return False
    return True


def solve_table(table, symmetric=False, budget=200_000):
    """Compile and solve; structural unrealizability maps to unsat."""
    try:
        system = compile_constraints(table, symmetric)
    except UnrealizableError as exc:
        return Verdict("unsat", conflict=[str(exc)])
    verdict = solve(system, budget)
    if verdict.status == "sat" and not verify_witness(verdict.witness, table, symmetric):
        raise WitnessError("sat witness does not reproduce the table")
    return verdict


# ---------------------------------------------------------------------------
# Brute-force oracle


def ordered_set_partitions(items):
    """All ordered partitions (weak orders) of a finite collection."""
    items = list(items)
    if not items:
        yield []
        return
    for r in range(1, len(items) + 1):
        for block in itertools.combinations(items, r):
            remaining = [x for x in items if x not in block]
            for tail in ordered_set_partitions(remaining):
                yield [block] + tail


def _minimizers(rank, pairs):
    low = min((rank[var] for _w, var in pairs), default=None)
    return frozenset(w for w, var in pairs if rank[var] == low)


def brute_force_realizable(table, symmetric=False, max_vars=6):
    """Independent oracle: enumerate every weak order of the pair variables
    and minimize its ranks directly over each entry's V x W."""
    entries = [
        ([(w, pair_var(v, w, symmetric)) for v in vset for w in wset], xset)
        for (vset, wset), xset in table.sorted_entries()
    ]
    variables = sorted({var for pairs, _x in entries for _w, var in pairs})
    if len(variables) > max_vars:
        raise BoundExceededError(
            f"{len(variables)} pair variables exceed the oracle bound of {max_vars}"
        )
    for partition in ordered_set_partitions(variables):
        witness = {var: rank for rank, block in enumerate(partition) for var in block}
        if all(_minimizers(witness, pairs) == xset for pairs, xset in entries):
            return Verdict("sat", witness=witness)
    return Verdict("unsat", conflict=[])
