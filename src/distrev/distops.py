"""The minimization operator, explicit operator tables, and the inclusion
and loop condition checkers."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

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


APPLY_CHUNK_CELLS = 1 << 18  # (pair, v, w) cells per step of apply_rows


def distance_int_matrix(dist, order=None):
    """The distance's integer rank matrix as an array, its rows and columns
    in ``order`` (default ``dist.universe``); the infinite marker ranks
    above every finite entry."""
    index, ranks = dist.kernel
    matrix = np.array(ranks, dtype=np.int64)
    if order is None:
        return matrix
    rows = [index[p] for p in order]
    return matrix[np.ix_(rows, rows)]


def apply_rows(dist, vrows, wrows, order=None):
    """Batch form of ``apply`` over P pairs given as boolean membership
    rows: row p of the result is the row of apply(dist, V_p, W_p), where
    V_p and W_p are row p of ``vrows`` and ``wrows``.  Columns follow
    ``order``, by default ``dist.universe``.

    Per pair, the least rank over V in each column, masked to W, then the
    columns that tie with the least of those.  The pairs go through in
    chunks of about ``APPLY_CHUNK_CELLS`` cells, so the temporaries do not
    grow with P.
    """
    vrows = np.asarray(vrows, dtype=bool)
    wrows = np.asarray(wrows, dtype=bool)
    ranks = distance_int_matrix(dist, order)
    n = len(ranks)
    top = int(ranks.max(initial=0)) + 1  # the minimum over nothing
    dtype = np.min_scalar_type(top)
    ranks, top = ranks.astype(dtype), dtype.type(top)
    out = np.zeros(wrows.shape, dtype=bool)
    step = max(1, APPLY_CHUNK_CELLS // max(n * n, 1))
    for lo in range(0, len(out), step):
        v, w = vrows[lo:lo + step], wrows[lo:lo + step]
        col = np.broadcast_to(ranks, (len(v), n, n)).min(
            axis=1, where=v[:, :, None], initial=top)
        col[~w] = top
        best = col.min(axis=1, keepdims=True, initial=top)
        out[lo:lo + step] = (col == best) & (best < top)
    return out


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


class _Premises:
    """Premise tests over indices into ``sets``, filled lazily.

    ``premise(a, b, c)`` is memoized under the integer code of the index
    triple, and the operator is consulted once per (V_b, V_a u V_c).  The
    walk reads two tables of bitmasks row by row, and fills an entry, None
    until then, on its first use: ``after[a][b]`` holds every c with
    premise(a, b, c), and ``between[c][a]`` every b with premise(a, b, c).
    """

    def __init__(self, op, sets):
        n = self.n = len(sets)
        self.op, self.sets = op, sets
        self.memo, self.looked = {}, {}
        self.after = [[None] * n for _ in range(n)]
        self.between = [[None] * n for _ in range(n)]

    def premise(self, a, b, c):
        key = (a * self.n + b) * self.n + c
        hit = self.memo.get(key)
        if hit is None:
            sets = self.sets
            union = sets[a] | sets[c]
            result = self.looked.get((b, union))
            if result is None:
                result = self.looked[b, union] = self.op.lookup(sets[b], union)
            hit = self.memo[key] = bool(result & sets[a])
        return hit

    def after_of(self, a, b):
        mask = self.after[a][b]
        if mask is None:
            mask = sum(1 << c for c in range(self.n) if self.premise(a, b, c))
            self.after[a][b] = mask
        return mask

    def between_of(self, a, c):
        mask = self.between[c][a]
        if mask is None:
            mask = sum(1 << b for b in range(self.n) if self.premise(a, b, c))
            self.between[c][a] = mask
        return mask


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
    premises = _Premises(op, sets)
    k_walk = 0
    while k_walk < k_max and n ** (k_walk + 2) <= budget:
        k_walk += 1
    found = _walk(premises, k_walk)
    k = len(found) - 1 if found else k_walk
    checked = sum(n ** (j + 1) for j in range(1, k + 1))
    while found is None and k < k_max:
        k += 1
        found = _loop_sampled(premises.premise, n, k, samples, seed)
        checked += samples
    if found is None:
        return LoopVerdict(True, k_max, (), checked, k > k_walk)
    return LoopVerdict(False, k, _rechecked(op, sets, found), checked, k > k_walk)


def _walk(premises, k_max):
    """The index chain of least k <= k_max whose premises hold and whose
    conclusion fails, lexicographically first at that k, or None.

    Starts (V_0, V_1) go in index order, and each start searches only for
    a k below the best one found so far.
    """
    best = None
    n = premises.n
    for i0 in range(n):
        for i1 in range(n):
            k_top = k_max if best is None else len(best) - 2
            if k_top < 1:
                return best
            best = _walk_from(premises, i0, i1, k_top) or best
    return best


def _walk_from(premises, i0, i1, k_top):
    """Breadth-first walk from the start (V_0, V_1) over premise states
    (V_{j-1}, V_j), where premise j moves (a, b) to (b, c) for each c in
    ``after[a][b]``.  Expanding a state only the first time it is reached
    keeps, per state, its lexicographically first shortest path; the last
    position V_k is read off bitmasks rather than a layer of states."""
    after = premises.after
    closing = premises.between[i0]  # closing[b]: every x with premise(b, x, i0)
    fails = ~premises.after_of(i1, i0)  # the V_k for which the conclusion fails
    if (premises.between_of(i0, i0) & fails) >> i1 & 1:  # k = 1, where V_k is V_1
        return (i0, i1)
    layer = [(i0, i1)]
    seen = [0] * premises.n  # seen[b] holds every c with (b, c) reached
    seen[i0] = 1 << i1
    for k in range(2, k_top + 1):
        grown = []
        for path in layer:
            a, b = path[-2:]
            step = after[a][b]
            if step is None:
                step = premises.after_of(a, b)
            close = closing[b]
            if close is None:
                close = premises.between_of(b, i0)
            # V_k meets premises k-1 and k and fails the conclusion
            hits = step & close & fails
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
    found = _walk(_Premises(op, sets), k_max)
    if found is None:
        return LoopVerdict(True, k_max)
    return LoopVerdict(False, len(found) - 1, _rechecked(op, sets, found))
