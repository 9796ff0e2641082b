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
    states: int = 0  # (start, state) pairs the walk reached, over its layers


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


def _point_premises(op, sets):
    """premise(a, b, c) over indices into ``sets``, one triple at a time;
    the operator is consulted once per (V_b, V_a u V_c).  Unions that are
    members of ``sets`` are keyed by the member, not by a fresh copy."""
    looked, members = {}, {s: s for s in sets}

    def premise(a, b, c):
        union = sets[a] | sets[c]
        union = members.get(union, union)
        result = looked.get((b, union))
        if result is None:
            result = looked[b, union] = op.lookup(sets[b], union)
        return bool(result & sets[a])

    return premise


def _premise_tensor(op, sets):
    """The premise tensor: ``P[a, b, c]`` is premise(a, b, c) over indices
    into ``sets``.  The operator is consulted once per (V_b, union) for each
    distinct union V_a u V_c, V_b in index order."""
    n = len(sets)
    unions = {}
    union_at = np.array(
        [[unions.setdefault(sa | sc, len(unions)) for sc in sets] for sa in sets],
        dtype=np.intp,
    ).reshape(n, n)
    points = {p: i for i, p in enumerate(set().union(*sets))}

    def rows(subsets):
        width = len(points)
        out = np.zeros((len(subsets), width), dtype=bool)
        np.put(out, [r * width + points[p] for r, s in enumerate(subsets)
                     for p in s if p in points], True)
        return out

    member = rows(sets)
    P = np.empty((n, n, n), dtype=bool)
    for b in range(n):
        looked = rows([op.lookup(sets[b], union) for union in unions])
        P[:, b, :] = (looked[union_at] & member[:, None, :]).any(axis=2)
    return P


def _first_start(hits):
    """The first start (i0, i1) in index order marked in the square boolean
    array ``hits``, or None."""
    at = np.flatnonzero(hits)
    return tuple(int(i) for i in divmod(at[0], len(hits))) if len(at) else None


def _layer_one(q):
    """The first start (i0, i1) whose chain of k = 1 is a counterexample,
    where ``q[a, b]`` is premise(a, b, a): premise 1 is q[i0, i1] and the
    conclusion q[i1, i0]."""
    return _first_start(q & ~q.T)


def _walk(P, k_max):
    """The index chain of least k <= k_max whose premises hold and whose
    conclusion fails, lexicographically first at that k, or None; with the
    number of (start, state) pairs the walk reached, summed over its layers.

    Layer j holds, for every start (V_0, V_1), the premise states
    (V_{j-1}, V_j) reachable through premises 1..j-1.  Layer 1, the starts
    themselves, is read off ``P`` for all starts at once.  From layer 2 on,
    starts go in blocks of about ``APPLY_CHUNK_CELLS`` (start, state)
    cells, each further layer one batched float32 matmul read as ``> 0``
    (its sums of 0/1 values are exact), and each block searches only for a
    k below the best one found.
    """
    n = len(P)
    if k_max < 1 or n == 0:
        return None, 0
    ar = np.arange(n)
    found, states = _layer_one(P[ar, :, ar]), n * n
    if found:
        return found, states
    fails = ~P.transpose(1, 0, 2)  # fails[i0, i1, c]: the conclusion fails at V_k = c
    close = P.transpose(2, 0, 1)  # close[i0, b, c]: premise k, P[b, c, i0], holds
    step = np.ascontiguousarray(P.transpose(1, 0, 2), dtype=np.float32)  # [b, a, c]
    block = max(1, APPLY_CHUNK_CELLS // n ** 3)
    best = None
    for lo in range(0, n, block):
        k_top = k_max if best is None else best[0] - 1
        if k_top < 2:
            break
        s = min(block, n - lo)
        x = np.arange(s * n)
        # reached[b, x, c]: state (b, c) reached from start x = (i0, i1);
        # layer 2 is (i1, c) for every c with premise 1
        reached = np.zeros((n, s * n, n), dtype=bool)
        reached[x % n, x] = P[lo:lo + s].reshape(s * n, n)
        # shut[b, i0, i1, c]: state (b, c) at depth k closes a counterexample
        shut = close[lo:lo + s].transpose(1, 0, 2)[:, :, None, :] & fails[None, lo:lo + s]
        for k in range(2, k_top + 1):
            if k > 2:
                layer = np.ascontiguousarray(reached.transpose(2, 1, 0), dtype=np.float32)
                reached = np.matmul(layer, step) > 0
            count = int(np.count_nonzero(reached))
            states += count
            hit = (reached.reshape(n, s, n, n) & shut).any(axis=(0, 3))
            if hit.any():
                best = (k, *divmod(lo * n + int(np.argmax(hit)), n))
                break
            if not count:
                break
    if best is None:
        return None, states
    k, i0, i1 = best
    return _chain(P, i0, i1, k), states


def _chain(P, i0, i1, k):
    """The lexicographically first counterexample chain of length k from
    the start (i0, i1): a greedy forward pass over backward sets, where
    ``can[j][a, b]`` holds when from state (a, b) at depth j the premises
    can still carry on to a V_k that closes the ring and fails the
    conclusion."""
    can = {k: P[:, :, i0] & ~P[i1, i0]}
    for j in range(k - 1, 1, -1):
        can[j] = (P & can[j + 1]).any(axis=2)
    chain = [i0, i1]
    for j in range(2, k + 1):
        a, b = chain[-2:]
        chain.append(int(np.argmax(P[a, b] & can[j][b])))
    return tuple(chain)


def check_loop(op, family, k_max, budget=10**6, samples=10**4, seed=0):
    """Check the loop condition for chains from ``family`` with k <= k_max.

    One walk covers every k whose chain space fits the budget; each larger
    k is uniformly sampled with a fixed seed.  Returns the first
    counterexample found, in deterministic order.  The search runs over
    indices into the sorted family.  The premise tensor is built only when
    the walk reaches k = 2; a walk of k = 1 reads just premise(a, b, a).
    """
    sets = validate_family(op.universe, family)
    sets = sorted(sets, key=sorted)
    n = len(sets)
    k_walk = 0
    while k_walk < k_max and n ** (k_walk + 2) <= budget:
        k_walk += 1
    if k_walk >= 2:
        P = _premise_tensor(op, sets)
        found, states = _walk(P, k_walk)

        def premise(a, b, c):
            return P[a, b, c]
    else:
        premise = _point_premises(op, sets)
        found, states = None, 0
        if k_walk == 1:
            q = np.array([[premise(a, b, a) for b in range(n)] for a in range(n)],
                         dtype=bool).reshape(n, n)
            found, states = _layer_one(q), n * n
    k = len(found) - 1 if found else k_walk
    checked = sum(n ** (j + 1) for j in range(1, k + 1))
    while found is None and k < k_max:
        k += 1
        found = _loop_sampled(premise, n, k, samples, seed)
        checked += samples
    sampled = k > k_walk
    if found is None:
        return LoopVerdict(True, k_max, (), checked, sampled, states)
    return LoopVerdict(False, k, _rechecked(op, sets, found), checked, sampled, states)


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
    found, states = _walk(_premise_tensor(op, sets), k_max)
    if found is None:
        return LoopVerdict(True, k_max, states=states)
    return LoopVerdict(False, len(found) - 1, _rechecked(op, sets, found),
                       states=states)
