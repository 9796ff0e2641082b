"""Decide whether a finite operator table is a distance operator.

Membership and non-membership facts of each table entry compile to ordering
constraints between pair variables; a branching search with cycle-based
conflict detection (strongly connected components over mixed strict and
non-strict edges) decides satisfiability.  A brute-force enumerator of all
weak orders over the pair variables serves as an independent oracle at
small scale.
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
    entry that produced it."""

    disjuncts: tuple  # tuple of tuples of OrderAtom
    provenance: str


@dataclass
class ConstraintSystem:
    variables: tuple
    clauses: list


@dataclass
class Verdict:
    """sat with a rank witness, unsat with conflict provenances, or unknown
    on budget exhaustion."""

    status: str  # "sat" | "unsat" | "unknown"
    witness: dict = None
    conflict: list = None
    nodes: int = 0


def _entry_tag(vset, wset):
    return f"{sorted(vset)}|{sorted(wset)}"


def compile_constraints(table, symmetric=False):
    """Compile an operator table into ordering constraints.

    For each entry (V, W, X): membership of w in X yields one clause with a
    disjunct per v in V asserting d(v, w) minimal over V x W; exclusion of
    w in W minus X yields, per v in V, a clause asserting some pair of V x W
    strictly below d(v, w).
    """
    variables = set()
    clauses = []
    for (vset, wset), xset in table.sorted_entries():
        tag = _entry_tag(vset, wset)
        if not xset <= wset:
            raise UnrealizableError(f"entry {tag}: result not within W")
        if not vset or not wset:
            if xset:
                raise UnrealizableError(f"entry {tag}: empty argument with non-empty result")
            continue
        if not xset:
            raise UnrealizableError(
                f"entry {tag}: empty result on non-empty arguments "
                "(finite minimization is never empty)"
            )
        pairs = [
            pair_var(v, w, symmetric) for v in sorted(vset) for w in sorted(wset)
        ]
        variables.update(pairs)
        for w in sorted(xset):
            disjuncts = []
            for v in sorted(vset):
                pv = pair_var(v, w, symmetric)
                conj = []
                for other in pairs:
                    if other != pv:
                        conj.append(OrderAtom(pv, other, strict=False))
                disjuncts.append(tuple(dict.fromkeys(conj)))
            if any(len(c) == 0 for c in disjuncts):
                continue  # trivially satisfied
            clauses.append(Clause(tuple(disjuncts), tag))
        for w in sorted(wset - xset):
            for v in sorted(vset):
                pv = pair_var(v, w, symmetric)
                disjuncts = tuple(
                    (OrderAtom(other, pv, strict=True),)
                    for other in pairs
                    if other != pv
                )
                clauses.append(Clause(disjuncts, tag))
    return ConstraintSystem(tuple(sorted(variables)), clauses)


# ---------------------------------------------------------------------------
# Conflict detection and rank extraction


def _tarjan_sccs(nodes, edges):
    adj = {n: [] for n in nodes}
    for a, b, _strict, _prov in edges:
        adj[a].append(b)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = itertools.count()

    def strongconnect(root):
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
    for n in nodes:
        if n not in index:
            strongconnect(n)
    return sccs


def _find_conflict(variables, edges):
    """Provenances of the edges of a strict-cycle component, or None."""
    sccs = _tarjan_sccs(variables, edges)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for n in comp:
            comp_of[n] = i
    for a, b, strict, _prov in edges:
        if strict and comp_of[a] == comp_of[b]:
            bad = comp_of[a]
            return frozenset(
                prov
                for (x, y, _s, prov) in edges
                if comp_of[x] == bad and comp_of[y] == bad
            )
    return None


def _ranks(variables, edges):
    """Topological levels of the condensation: equal within a component,
    strictly increasing along edges across components."""
    sccs = _tarjan_sccs(variables, edges)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for n in comp:
            comp_of[n] = i
    # Tarjan emits components in reverse topological order of the condensation
    order = list(range(len(sccs)))[::-1]
    level = {i: 0 for i in order}
    succ = {i: set() for i in order}
    for a, b, _s, _p in edges:
        if comp_of[a] != comp_of[b]:
            succ[comp_of[a]].add(comp_of[b])
    for i in order:
        for j in succ[i]:
            level[j] = max(level[j], level[i] + 1)
    return {v: level[comp_of[v]] for v in variables}


def solve(system, budget=200_000):
    """Complete branching search over the clause disjuncts.

    A state is inconsistent iff some strongly connected component of the
    asserted-order graph contains a strict edge.  Returns unknown when the
    node budget is exhausted.
    """
    clauses = sorted(system.clauses, key=lambda c: len(c.disjuncts))
    for c in clauses:
        if not c.disjuncts:
            return Verdict("unsat", conflict=[c.provenance])
    edges = []
    conflicts = set()
    nodes = 0

    class _Budget(Exception):
        pass

    def dfs(idx):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _Budget
        conflict = _find_conflict(system.variables, edges)
        if conflict is not None:
            conflicts.update(conflict)
            return False
        if idx == len(clauses):
            return True
        clause = clauses[idx]
        for disj in clause.disjuncts:
            added = [(a.left, a.right, a.strict, clause.provenance) for a in disj]
            edges.extend(added)
            if dfs(idx + 1):
                return True
            del edges[len(edges) - len(added):]
        return False

    try:
        if dfs(0):
            witness = _ranks(system.variables, edges)
            return Verdict("sat", witness=witness, nodes=nodes)
        return Verdict("unsat", conflict=sorted(conflicts), nodes=nodes)
    except _Budget:
        return Verdict("unknown", nodes=nodes)


def witness_distance(witness, universe, symmetric=False, mode=OrderMode.REAL):
    """Convert rank assignments to an integer-cost pseudo-distance; pairs
    without a variable get a cost above every rank."""
    default = max(witness.values(), default=0) + 1
    return PseudoDistance.from_function(
        universe, mode, lambda v, w: witness.get(pair_var(v, w, symmetric), default)
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


def brute_force_realizable(table, symmetric=False, max_vars=6):
    """Independent oracle: enumerate every weak order of the pair variables,
    rebuild the minimization, and compare against all entries."""
    variables = set()
    for (vset, wset), _x in table.sorted_entries():
        for v in vset:
            for w in wset:
                variables.add(pair_var(v, w, symmetric))
    variables = sorted(variables)
    if len(variables) > max_vars:
        raise BoundExceededError(
            f"{len(variables)} pair variables exceed the oracle bound of {max_vars}"
        )
    for partition in ordered_set_partitions(variables):
        witness = {}
        for rank, block in enumerate(partition):
            for var in block:
                witness[var] = rank
        if verify_witness(witness, table, symmetric):
            return Verdict("sat", witness=witness)
    return Verdict("unsat", conflict=[])
