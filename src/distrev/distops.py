"""The minimization operator, explicit operator tables, and the inclusion
and loop condition checkers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .costs import PropertyReport
from .errors import FamilyError, UndefinedPairError, UnknownAtomError, WitnessError


def apply(dist, vset, wset):
    """Members of ``wset`` attaining the globally minimal cost over
    ``vset`` x ``wset``.  Empty on an empty argument.  Minimizes over the
    distance's compiled integer ranks."""
    vset = frozenset(vset)
    wset = frozenset(wset)
    if not vset or not wset:
        return frozenset()
    index, ranks = dist.kernel
    rows = [ranks[index[v]] for v in vset]
    cols = [(w, index[w]) for w in wset]
    col_min = [min([row[j] for row in rows]) for _, j in cols]
    best = min(col_min)
    return frozenset(w for (w, _), c in zip(cols, col_min) if c == best)


def _canon(s):
    return frozenset(s)


@dataclass
class OperatorTable:
    """A finite (explicit or distance-backed) map (V, W) -> X over subsets
    of a universe.  Explicit entries win over the backing distance."""

    universe: tuple
    entries: dict = field(default_factory=dict)
    backing: object = None  # PseudoDistance or None

    def __post_init__(self):
        pts = set(self.universe)
        canon = {}
        for (v, w), x in self.entries.items():
            v, w, x = _canon(v), _canon(w), _canon(x)
            if not (v | w | x) <= pts:
                raise UnknownAtomError("entry mentions points outside the universe")
            if (v, w) in canon:
                raise FamilyError("duplicate entry for one (V, W) pair")
            canon[(v, w)] = x
        self.entries = canon

    def lookup(self, vset, wset):
        key = (_canon(vset), _canon(wset))
        if key in self.entries:
            return self.entries[key]
        if self.backing is not None:
            return apply(self.backing, *key)
        raise UndefinedPairError(f"no entry for pair {sorted(key[0])}|{sorted(key[1])}")

    def sorted_entries(self):
        return sorted(
            self.entries.items(),
            key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1])),
        )


def validate_family(universe, family):
    """Check the loop-condition family invariants: no empty set, closed
    under union, closed under non-disjoint intersection."""
    pts = set(universe)
    sets = []
    seen = set()
    for s in family:
        s = _canon(s)
        if not s:
            raise FamilyError("family contains the empty set")
        if not s <= pts:
            raise FamilyError("family member outside the universe")
        if s not in seen:
            seen.add(s)
            sets.append(s)
    for a in sets:
        for b in sets:
            if (a | b) not in seen:
                raise FamilyError(
                    f"family not closed under union: {sorted(a)} | {sorted(b)}"
                )
            if a & b and (a & b) not in seen:
                raise FamilyError(
                    f"family not closed under non-disjoint intersection: "
                    f"{sorted(a)} & {sorted(b)}"
                )
    return sets


def family_closure(generators):
    """Close a collection of non-empty sets under union and non-disjoint
    intersection."""
    closed = {_canon(s) for s in generators if s}
    frontier = list(closed)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closed):
                for c in (a | b,) + ((a & b,) if a & b else ()):
                    if c not in closed:
                        closed.add(c)
                        new.append(c)
        frontier = new
    return closed


def check_inclusion(op, family=None, witness_cap=16):
    """Verify V|W is a subset of W for all table entries, or for all pairs
    of the given family."""
    report = PropertyReport("inclusion", True, witness_cap=witness_cap)
    if family is None:
        pairs = [key for key, _ in op.sorted_entries()]
    else:
        sets = sorted({_canon(s) for s in family}, key=sorted)
        pairs = [(a, b) for a in sets for b in sets]
    for v, w in pairs:
        x = op.lookup(v, w)
        if not x <= w:
            report.record((sorted(v), sorted(w), sorted(x)))
    return report


@dataclass
class LoopVerdict:
    """Result of a loop-condition check.  On failure the witness chain
    V_0..V_k is re-checkable against the operator."""

    passed: bool
    k: int = 0
    chain: tuple = ()
    checked: int = 0
    sampled: bool = False


def _premise(op, a, b, c):
    # (V_b | (V_a u V_c)) n V_a is non-empty, written for chain positions
    # premise i: a = V_{i-1}, b = V_i, c = V_{i+1 mod k+1}
    return bool(op.lookup(b, a | c) & a)


def _conclusion(op, v0, v1, vk):
    return bool(op.lookup(v0, vk | v1) & v1)


def recheck_chain(op, chain):
    """Independently re-verify that a chain is a loop counterexample."""
    k = len(chain) - 1
    ring = list(chain) + [chain[0]]
    for i in range(1, k + 1):
        if not _premise(op, ring[i - 1], ring[i], ring[i + 1]):
            return False
    return not _conclusion(op, chain[0], chain[1], chain[k])


def _premise_index(op, sets):
    """Premise tests over indices into ``sets``, filled lazily.

    ``premise(a, b, c)`` is memoized under the integer code of the index
    triple, and the operator is consulted once per (V_b, V_a u V_c).  The
    bitmask ``after(a, b)`` holds every c with premise(a, b, c), and
    ``between(a, c)`` every b with premise(a, b, c).
    """
    n = len(sets)
    memo, looked, nxt, mid = {}, {}, {}, {}

    def premise(a, b, c):
        key = (a * n + b) * n + c
        hit = memo.get(key)
        if hit is None:
            union = sets[a] | sets[c]
            result = looked.get((b, union))
            if result is None:
                result = looked[b, union] = op.lookup(sets[b], union)
            hit = memo[key] = bool(result & sets[a])
        return hit

    def after(a, b):
        key = a * n + b
        mask = nxt.get(key)
        if mask is None:
            mask = nxt[key] = sum(1 << c for c in range(n) if premise(a, b, c))
        return mask

    def between(a, c):
        key = a * n + c
        mask = mid.get(key)
        if mask is None:
            mask = mid[key] = sum(1 << b for b in range(n) if premise(a, b, c))
        return mask

    return premise, after, between


def _bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_loop(op, family, k_max, budget=10**6, samples=10**4, seed=0):
    """Check the loop condition for chains from ``family`` with k <= k_max.

    One walk covers every k whose chain space fits the budget; each larger
    k is uniformly sampled with a fixed seed.  Returns the first
    counterexample found, in deterministic order.  The search runs over
    indices into the sorted family.
    """
    sets = validate_family(op.universe, family)
    sets = sorted(sets, key=sorted)
    n = len(sets)
    premise, after, between = _premise_index(op, sets)
    k_walk = 0
    while k_walk < k_max and n ** (k_walk + 2) <= budget:
        k_walk += 1
    found = _walk(after, between, n, k_walk)
    k = len(found) - 1 if found else k_walk
    checked = sum(n ** (j + 1) for j in range(1, k + 1))
    while found is None and k < k_max:
        k += 1
        found = _loop_sampled(premise, n, k, samples, seed)
        checked += samples
    if found is None:
        return LoopVerdict(True, k_max, (), checked, k > k_walk)
    return LoopVerdict(False, k, _rechecked(op, sets, found), checked, k > k_walk)


def _walk(after, between, n, k_max):
    """The index chain of least k <= k_max whose premises hold and whose
    conclusion fails, lexicographically first at that k, or None.

    Starts (V_0, V_1) go in index order, and each start searches only for
    a k below the best one found so far.
    """
    best = None
    for i0 in range(n):
        for i1 in range(n):
            k_top = k_max if best is None else len(best) - 2
            if k_top < 1:
                return best
            best = _walk_from(after, between, n, i0, i1, k_top) or best
    return best


def _walk_from(after, between, n, i0, i1, k_top):
    """Breadth-first walk from the start (V_0, V_1) over premise states
    (V_{j-1}, V_j), where premise j moves (a, b) to (b, c) for each c in
    ``after(a, b)``.  Expanding a state only the first time it is reached
    keeps, per state, its lexicographically first shortest path; the last
    position V_k is read off bitmasks rather than a layer of states."""
    fails = ~after(i1, i0)  # the V_k for which the conclusion fails
    if (between(i0, i0) & fails) >> i1 & 1:  # k = 1, where V_k is V_1
        return (i0, i1)
    layer = [(i0, i1)]
    seen = [0] * n  # seen[b] holds every c with (b, c) reached
    seen[i0] = 1 << i1
    for k in range(2, k_top + 1):
        grown = []
        for path in layer:
            a, b = path[-2:]
            step = after(a, b)
            # V_k meets premises k-1 and k and fails the conclusion
            hits = step & between(b, i0) & fails
            if hits:
                return path + ((hits & -hits).bit_length() - 1,)
            fresh = step & ~seen[b]
            if fresh and k < k_top:
                grown += [path + (c,) for c in _bits(fresh)]
                seen[b] |= fresh
        layer = grown
    return None


def _rechecked(op, sets, found):
    """The chain of sets at the indices ``found``, re-verified explicitly."""
    chain = tuple(sets[i] for i in found)
    if not recheck_chain(op, chain):
        raise WitnessError(
            f"loop chain {[sorted(s) for s in chain]} fails its recheck"
        )
    return chain


def _loop_sampled(premise, n, k, samples, seed):
    rng = random.Random(f"{seed}:{k}")
    indices = range(n)
    for _ in range(samples):
        chain = tuple(rng.choice(indices) for _ in range(k + 1))
        ring = chain + chain[:1]
        if all(premise(ring[i - 1], ring[i], ring[i + 1]) for i in range(1, k + 1)):
            if not premise(chain[1], chain[0], chain[k]):
                return chain
    return None


def find_loop_violation(op, sets, k_max):
    """Directed search for a loop counterexample over the given candidate
    sets: no closure requirement and no budget, the walk of ``check_loop``
    up to ``k_max``."""
    sets = sorted({_canon(s) for s in sets if s}, key=sorted)
    _, after, between = _premise_index(op, sets)
    found = _walk(after, between, len(sets), k_max)
    if found is None:
        return LoopVerdict(True, k_max)
    return LoopVerdict(False, len(found) - 1, _rechecked(op, sets, found))
