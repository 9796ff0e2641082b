"""The minimization operator, explicit operator tables, and the inclusion
and loop condition checkers."""

from __future__ import annotations

import itertools
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


def _membership_rows(sets, order):
    """One boolean row per set, its columns in ``order``; members outside
    ``order`` are dropped."""
    index = {p: i for i, p in enumerate(order)}
    width = len(order)
    out = np.zeros((len(sets), width), dtype=bool)
    np.put(out, [r * width + index[p] for r, s in enumerate(sets)
                 for p in s if p in index], True)
    return out


def _row_sets(rows, order):
    """The set of each boolean row, over the points ``order``."""
    return [frozenset(itertools.compress(order, row)) for row in np.asarray(rows).tolist()]


def _row_keys(rows):
    """Each boolean row packed into bytes: an array of keys, one per row,
    that compare, sort and search as their sets' bits."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


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

    def lookup_rows(self, vrows, wrows, order):
        """Batch form of ``lookup`` over P pairs given as boolean membership
        rows, their columns in ``order``: the backing's ``apply_rows``, with
        each explicit entry over the rows of its pair, matched by packed row
        keys.  Without a backing an unmatched pair raises
        ``UndefinedPairError``, the first one in row order."""
        vrows = np.asarray(vrows, dtype=bool)
        wrows = np.asarray(wrows, dtype=bool)
        if self.backing is not None:
            out = apply_rows(self.backing, vrows, wrows, order)
        else:
            out = np.zeros(wrows.shape, dtype=bool)
        inside = set(order)
        keys = [key for key in self.entries if key[0] <= inside and key[1] <= inside]
        hit = np.zeros(len(out), dtype=bool)
        if keys and len(out):
            entry_keys = _row_keys(np.hstack([
                _membership_rows([v for v, _ in keys], order),
                _membership_rows([w for _, w in keys], order),
            ]))
            by_key = np.argsort(entry_keys)
            entry_keys = entry_keys[by_key]
            pair_keys = _row_keys(np.hstack([vrows, wrows]))
            at = np.minimum(np.searchsorted(entry_keys, pair_keys), len(keys) - 1)
            hit = entry_keys[at] == pair_keys
            results = _membership_rows([self.entries[keys[i]] for i in by_key], order)
            out[hit] = results[at[hit]]
        if self.backing is None and not hit.all():
            p = int(np.argmin(hit))
            (v,), (w,) = _row_sets(vrows[p:p + 1], order), _row_sets(wrows[p:p + 1], order)
            raise UndefinedPairError(f"no entry for pair {sorted(v)}|{sorted(w)}")
        return out

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


def _family_order(op, sets):
    """The points of ``sets`` in ``op.universe`` order: the columns of the
    loop search's membership rows."""
    points = set().union(*sets)
    return tuple(p for p in op.universe if p in points)


def _premise_tensor(op, sets):
    """The premise tensor: ``P[a, b, c]`` is premise(a, b, c) over indices
    into ``sets``.  One ``lookup_rows`` batch asks the operator about each
    (V_b, union) for each distinct union V_a u V_c, V_b the outer order."""
    n = len(sets)
    unions = {}
    union_at = np.array(
        [[unions.setdefault(sa | sc, len(unions)) for sc in sets] for sa in sets],
        dtype=np.intp,
    ).reshape(n, n)
    order = _family_order(op, sets)
    member = _membership_rows(sets, order)
    looked = op.lookup_rows(
        np.repeat(member, len(unions), axis=0),
        np.tile(_membership_rows(list(unions), order), (n, 1)),
        order,
    ).reshape(n, len(unions), len(order))
    P = np.empty((n, n, n), dtype=bool)
    for b in range(n):
        P[:, b, :] = (looked[b][union_at] & member[:, None, :]).any(axis=2)
    return P


def _layer_one_premises(op, sets):
    """``q[a, b]``, premise(a, b, a) over indices into ``sets``, from one
    ``lookup_rows`` batch of the (V_b, V_a) pairs, V_a the outer order."""
    n = len(sets)
    order = _family_order(op, sets)
    member = _membership_rows(sets, order)
    looked = op.lookup_rows(np.tile(member, (n, 1)), np.repeat(member, n, axis=0), order)
    return (looked.reshape(n, n, len(order)) & member[:, None, :]).any(axis=2)


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
    The sampler draws its chains in bulk and reads premises one at a time.
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
            found, states = _layer_one(_layer_one_premises(op, sets)), n * n
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


def _draws(rng, n, count):
    """The indices of ``count`` successive ``rng.choice`` calls on a
    sequence of length ``n``, 1 <= n <= 2**32, drawn in bulk.

    A choice keeps the top ``n.bit_length()`` bits of one 32-bit Mersenne
    Twister word and draws again while they read n or more;
    ``rng.getrandbits(32 * m)`` returns the next m words, the first in the
    lowest bits.  Rejections are topped up from further words, so ``rng``
    may end up past where the single calls would have left it."""
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"cannot draw indices below {n}")
    k = n.bit_length()
    kept, have = [np.zeros(0, dtype="<u4")], 0
    while have < count:
        m = -(-(count - have) * (1 << k) // n)  # words for the draws expected
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"),
                              dtype="<u4") >> (32 - k)
        kept.append(words[words < n])
        have += len(kept[-1])
    return np.concatenate(kept)[:count].astype(np.intp)


def _loop_sampled(premise, n, k, samples, seed):
    draws = _draws(random.Random(f"{seed}:{k}"), n, samples * (k + 1))
    for chain in draws.reshape(samples, k + 1).tolist():
        chain = tuple(chain)
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
