"""The minimization operator, explicit operator tables, and the inclusion
and loop condition checkers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .costs import PropertyReport
from .errors import (
    BoundExceededError,
    FamilyError,
    UndefinedPairError,
    UnknownAtomError,
    WitnessError,
)
from .logic import _distinct_rows


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


APPLY_CHUNK_CELLS = 1 << 18  # cells per table, chunk or block of the kernels
SWEEP_MAX_BYTES = 1 << 30  # the exhaustive sweeps refuse to hold more


def _subset_table(rows, ufunc, empty):
    """out[..., mask] = ``ufunc`` folded over rows[i] for the members i of
    mask (``empty`` for the empty mask), in the rows' dtype; the masks in
    [2^i, 2^(i+1)) extend those below 2^i by point i."""
    rows = np.asarray(rows)
    out = np.full(rows.shape[1:] + (1 << len(rows),), empty, dtype=rows.dtype)
    for i, row in enumerate(rows):
        low = 1 << i
        out[..., low:2 * low] = ufunc(out[..., :low], row[..., None])
    return out


def _mask_dtype(n):
    """The narrowest unsigned dtype that holds a mask of n points."""
    return np.min_scalar_type((1 << n) - 1)


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


def narrow_ranks(dist, order=None):
    """``distance_int_matrix(dist, order)`` in the narrowest dtype that holds
    its top rank, one above every entry; and that rank, in the same dtype."""
    ranks = distance_int_matrix(dist, order)
    top = int(ranks.max(initial=0)) + 1
    dtype = np.min_scalar_type(top)
    return ranks.astype(dtype), dtype.type(top)


def _rank_parts(dist, order):
    """The least-rank tables that ``apply_rows`` and ``least_rank_rows``
    read, for ``dist`` with columns in ``order``: the column count n (at
    least 1), the minimum over nothing ``top``, and one (points, subset
    bits, table) triple per part of t points.  They are kept on the
    distance instance under the key (order, t), t read from
    ``APPLY_CHUNK_CELLS`` on each call, for the last key only: a distance
    holds what one call builds.  ``replaced()`` copies are new instances
    and build their own."""
    points = dist.universe if order is None else tuple(order)
    n = max(len(points), 1)
    t = max(1, (APPLY_CHUNK_CELLS // n).bit_length() - 1)
    cached = vars(dist).get("_rank_parts")
    if cached is not None and cached[0] == (points, t):
        return cached[1]
    ranks, top = narrow_ranks(dist, order)
    parts = []
    for lo in range(0, len(ranks), t):
        k = min(t, len(ranks) - lo)
        parts.append((slice(lo, lo + k), (1 << np.arange(k)).astype(_mask_dtype(k)),
                      _subset_table(ranks[lo:lo + k], np.minimum, top)))  # [column, subset]
    object.__setattr__(dist, "_rank_parts", ((points, t), (n, top, parts)))
    return n, top, parts


def apply_rows(dist, vrows, wrows, order=None):
    """Batch form of ``apply`` over P pairs given as boolean membership
    rows: row p of the result is the row of apply(dist, V_p, W_p), where
    V_p and W_p are row p of ``vrows`` and ``wrows``.  Columns follow
    ``order``, by default ``dist.universe``.

    The n points split into parts of t points, t the largest with
    2^t * n <= ``APPLY_CHUNK_CELLS``.  Each part's ``_subset_table`` holds
    the least rank in every column for every subset of the part.  The
    tables are built once per (distance, order, t) and the distance keeps
    those of the last key, one call's worth (``_rank_parts``).  A pair
    reads one row per part, indexed by its V bits there in the narrowest
    dtype; their minimum is V's least rank per column.  Masked to W, the
    columns tying with the least are the result.  Pairs go in chunks of
    about ``APPLY_CHUNK_CELLS`` (pair, column) cells, so the temporaries do
    not grow with P.
    """
    vrows = np.asarray(vrows, dtype=bool)
    wrows = np.asarray(wrows, dtype=bool)
    n, top, parts = _rank_parts(dist, order)
    out = np.zeros(wrows.shape, dtype=bool)
    step = max(1, APPLY_CHUNK_CELLS // n)
    for lo in range(0, len(out), step):
        v, w = vrows[lo:lo + step], wrows[lo:lo + step]
        col = np.full(w.shape[::-1], top)  # [column, pair]
        for cut, weights, table in parts:
            np.minimum(col, table.take(v[:, cut] @ weights, axis=1), out=col)
        np.putmask(col, ~w.T, top)
        best = col.min(axis=0, initial=top)
        out[lo:lo + step] = ((col == best) & (best < top)).T
    return out


def least_rank_rows(dist, vmasks, order=None):
    """[V, column]: V's least rank in each column of ``order`` (default
    ``dist.universe``), for each integer V mask of ``vmasks``, point i of
    ``order`` at bit i; the empty V's row holds the top rank, one above
    every entry.  Reads ``apply_rows``' part tables (``_rank_parts``): the
    minimum, over the parts, of each part's row at V's bits in that part.
    The result is a new array, in the tables' dtype, so callers may write
    to it."""
    _, top, parts = _rank_parts(dist, order)
    vmasks = np.asarray(vmasks)
    out = np.full(vmasks.shape + (0,), top)  # no points, no parts
    for i, (cut, weights, table) in enumerate(parts):
        rows = table.T[(vmasks >> cut.start) & ((1 << len(weights)) - 1)]
        out = np.minimum(out, rows, out=out) if i else rows
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


def _packed_rows(rows, unit):
    """Each boolean row packed into whole units of ``unit`` bytes, at least
    one: an array [row, byte], point i at bit i % 8 of byte i // 8, spare
    bits 0.  Rows are padded to whole bytes and packed flat in chunks of
    about ``APPLY_CHUNK_CELLS`` bits, faster than packing along short rows;
    the bytes past the last point stay 0."""
    rows = np.asarray(rows, dtype=bool)
    count, points = rows.shape
    size = -(-points // 8)
    out = np.zeros((count, unit * max(1, -(-size // unit))), dtype=np.uint8)
    step = max(1, APPLY_CHUNK_CELLS // max(8 * size, 1))
    padded = np.zeros((min(step, count), 8 * size), dtype=bool)
    for lo in range(0, count, step):
        chunk = padded[:min(step, count - lo)]
        chunk[:, :points] = rows[lo:lo + step]
        packed = np.packbits(chunk, bitorder="little")
        out[lo:lo + len(chunk), :size] = packed.reshape(len(chunk), size)
    return out


def _row_words(rows):
    """The rows packed into little-endian 64-bit words: an array [row, word]."""
    return _packed_rows(rows, 8).view("<u8")


def _row_index(table):
    """``find(words)``: for each row of ``words`` [row, word], the index of
    an equal row of ``table`` [row, word] and whether there is one: a row is
    ranked along the table's ``_distinct_rows`` steps by ``searchsorted``."""
    first, _, steps = _distinct_rows(table)

    def find(words):
        found, known = np.ones(len(words), dtype=bool), None
        for (values, pairs), column in zip(steps, words.T):
            at = _rank_in(values, column, found)
            known = at if pairs is None else _rank_in(pairs, known * len(values) + at, found)
        return first[known], found

    return find


def _rank_in(values, keys, found):
    """Each key's index in the sorted ``values``, clipped to the last;
    ``found`` is cleared where the key is absent."""
    at = np.searchsorted(values, keys)
    np.minimum(at, len(values) - 1, out=at)
    found &= values[at] == keys
    return at


@dataclass
class OperatorTable:
    """A finite (explicit or distance-backed) map (V, W) -> X over subsets
    of a universe.  Explicit entries win over the backing distance."""

    universe: tuple
    entries: dict = field(default_factory=dict)
    backing: object = None  # PseudoDistance or None

    def __post_init__(self):
        pts = set(self.universe)
        if len(pts) < len(self.universe):
            repeated = sorted({p for p in self.universe if self.universe.count(p) > 1})
            raise FamilyError(f"repeated universe labels {repeated}")
        if self.backing is not None and not pts <= set(self.backing.universe):
            raise UnknownAtomError("the backing distance misses points of the universe")
        canon = {}
        for (v, w), x in self.entries.items():
            v, w, x = frozenset(v), frozenset(w), frozenset(x)
            if not (v | w | x) <= pts:
                raise UnknownAtomError("entry mentions points outside the universe")
            if (v, w) in canon:
                raise FamilyError("duplicate entry for one (V, W) pair")
            canon[(v, w)] = x
        self.entries = canon

    def lookup(self, vset, wset):
        key = (frozenset(vset), frozenset(wset))
        if key in self.entries:
            return self.entries[key]
        if self.backing is not None:
            return apply(self.backing, *key)
        raise UndefinedPairError(f"no entry for pair {sorted(key[0])}|{sorted(key[1])}")

    def lookup_rows(self, vrows, wrows, order):
        """Batch form of ``lookup`` over P pairs given as boolean membership
        rows, their columns in ``order``: the backing's ``apply_rows``, with
        each explicit entry over the rows of its pair, found by the packed
        words of (V, W) (``_row_index``).  Without a backing an unmatched
        pair raises ``UndefinedPairError``, the first one in row order."""
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
            find = _row_index(_row_words(np.hstack([
                _membership_rows([v for v, _ in keys], order),
                _membership_rows([w for _, w in keys], order)])))
            at, hit = find(_row_words(np.hstack([vrows, wrows])))
            out[hit] = _membership_rows([self.entries[key] for key in keys], order)[at[hit]]
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
    """The distinct sets of ``family`` in input order, after checking the
    loop-condition invariants: no empty set, closed under union, closed
    under non-disjoint intersection (tested on integer point masks)."""
    index = {p: i for i, p in enumerate(universe)}
    sets = []
    seen = set()
    for s in family:
        s = frozenset(s)
        if not s:
            raise FamilyError("family contains the empty set")
        if not s <= index.keys():
            raise FamilyError("family member outside the universe")
        if s not in seen:
            seen.add(s)
            sets.append(s)
    masks = [sum(1 << index[p] for p in s) for s in sets]
    present = set(masks)
    for i, a in enumerate(masks):  # both tests are symmetric: each pair once
        for j, b in enumerate(masks[i:], i):
            if a | b not in present:
                raise FamilyError(
                    f"family not closed under union: {sorted(sets[i])} | {sorted(sets[j])}"
                )
            if a & b and a & b not in present:
                raise FamilyError(
                    f"family not closed under non-disjoint intersection: "
                    f"{sorted(sets[i])} & {sorted(sets[j])}"
                )
    return sets


def family_closure(generators):
    """Close a collection of non-empty sets under union and non-disjoint
    intersection."""
    closed = {frozenset(s) for s in generators if s}
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
    if family is None:
        pairs = [key for key, _ in op.sorted_entries()]
    else:
        sets = sorted({frozenset(s) for s in family}, key=sorted)
        pairs = [(a, b) for a in sets for b in sets]
    found = [(sorted(v), sorted(w), sorted(x))
             for v, w in pairs if not (x := op.lookup(v, w)) <= w]
    return PropertyReport.of("inclusion", found, witness_cap)


@dataclass
class LoopVerdict:
    """Result of ``_verdict``, the one loop search of ``check_loop``,
    ``find_loop_violation`` and ``check_star_loop``.  On failure the witness
    chain V_0..V_k is re-checked through ``op.lookup``.  A pass holds for every k
    exactly when ``fixpoint`` is set; its ``k`` is the cut-off, if given, else
    the fixpoint.  ``sampled``, always False, goes with ROADMAP item 1a."""

    passed: bool
    k: int = 0
    chain: tuple = ()
    checked: int = 0
    sampled: bool = False
    states: int = 0  # the n^2 starts and the states the live starts reached
    fixpoint: int | None = None  # the last depth where a live start reached a new state


def _premise(op, a, b, c):
    # (V_b | (V_a u V_c)) n V_a is non-empty.  Premise i is (V_{i-1}, V_i,
    # V_{i+1 mod k+1}), and the conclusion is (V_1, V_0, V_k)
    return bool(op.lookup(b, a | c) & a)


def recheck_chain(op, chain):
    """Independently re-verify that a chain is a loop counterexample."""
    k = len(chain) - 1
    ring = list(chain) + [chain[0]]
    for i in range(1, k + 1):
        if not _premise(op, ring[i - 1], ring[i], ring[i + 1]):
            return False
    return not _premise(op, chain[1], chain[0], chain[k])


def _premise_reader(op, sets, universe):
    """``premises(a, c)``: out[x, b] = premise(a[x], b, c[x]) for the pairs
    of index arrays ``a`` and ``c`` into ``sets`` and every b, as a boolean
    array, filled in chunks of about ``APPLY_CHUNK_CELLS`` cells.  A plain
    distance minimization (a ``RevisionOperator`` with ``dist``, or an
    ``OperatorTable`` with a backing and no entries) keeps the points of W
    closest to V, so the premise is near[a, b] <= near[c, b], near[a, b] the
    least rank from V_b to V_a, read from ``dist.kernel`` in a narrow dtype
    by two ``np.minimum.reduceat`` over the sets' member indices.  Any other
    operator is asked through ``lookup_rows``, its columns the points of
    ``sets`` in ``universe`` order, once for every V_b with every distinct
    union V_a u V_c, numbered by ``_distinct_rows`` over the packed words
    (``_row_words``) read big-endian, so in byte order; premise (a, b, c)
    holds when the answer for (V_b, V_a u V_c) shares a bit with V_a."""
    dist = getattr(op, "dist", None) if not isinstance(op, OperatorTable) \
        else None if op.entries else op.backing
    n = len(sets)

    def premises(a, c):
        if dist is not None:  # a row is n cells
            index, ranks = dist.kernel
            members = [index[p] for s in sets for p in s]
            starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
            ranks = np.array(ranks, dtype=np.min_scalar_type(max(map(max, ranks))))
            to = np.minimum.reduceat(ranks.T[members], starts)  # [a, v]: least rank v -> V_a
            near, width = np.minimum.reduceat(to[:, members], starts, axis=1), 1  # [a, b]
        else:  # a row is n times the point count cells
            points = set().union(*sets)
            order = tuple(p for p in universe if p in points)
            member = _membership_rows(sets, order)
            bits, width = _row_words(member), len(order)
            first, number, _ = _distinct_rows((bits[a] | bits[c]).view(">u8"))
            m = len(first)
            unions = member[a[first]] | member[c[first]]
            looked = _row_words(op.lookup_rows(np.repeat(member, m, axis=0),
                                               np.tile(unions, (n, 1)), order))
            at = np.arange(0, n * m, m)  # the row of (V_b, union 0), pair b * m + u
        out = np.empty((len(a), n), dtype=bool)
        step = max(1, APPLY_CHUNK_CELLS // max(n * width, 1))
        for lo in range(0, len(out), step):
            x = slice(lo, lo + step)
            out[x] = near[a[x]] <= near[c[x]] if dist is not None else \
                (looked[number[x, None] + at] & bits[a[x], None]).any(axis=-1)
        return out

    return premises


def _walk(premises, n, k_max):
    """The index chain of least k whose premises hold and whose conclusion
    fails, lexicographically first at that k, or None; the number of
    distinct (start, state) pairs reached; and the fixpoint, the deepest
    layer at which a live start reached a new state, or None when the walk
    found a chain or was cut off at ``k_max``.  With ``k_max`` None the walk
    runs until no live start reaches a new state.  ``premises`` is a
    ``_premise_reader``, read once.

    Layer j holds, for every start (V_0, V_1), the premise states
    (V_{j-1}, V_j) first reached through premises 1..j-1: whether a state
    closes the ring depends only on it and its start.  Layer 1, the starts,
    is read off ``q[a, b]``, which is premise(a, b, a): premise 1 is
    q[i0, i1] and the conclusion q[i1, i0].  A walk cut off at k = 1 reads
    just ``q``, from the n pairs (a, a); any other reads the premise tensor
    ``P[a, b, c]`` from all n^2 pairs (a, c), and takes ``q`` from it.
    Past k = 1 a start is walked only when it is live, its conclusion
    P[i1, i0, V_k] failing for some V_k; the others can never close a ring,
    so ``states`` counts the n^2 starts and the states the live starts
    reach.  From layer 2 on, a block of ``_walk_block`` holds max(1,
    ``APPLY_CHUNK_CELLS`` // n^2) live starts in ascending order, with n^2
    cells each; each block searches only for a k below the best one found."""
    if k_max is not None and k_max < 1:
        return None, 0, None
    if n == 0:
        return None, 0, 0
    a, c = (np.arange(n),) * 2 if k_max == 1 else np.divmod(np.arange(n * n), n)
    read = premises(a, c)
    q = read[a == c]  # q[a, b] = premise(a, b, a)
    P = read.reshape(n, n, n).transpose(0, 2, 1) if k_max != 1 else None  # P[a, b, c]
    hits, states = np.flatnonzero(q & ~q.T), n * n
    if len(hits):
        return tuple(int(i) for i in divmod(hits[0], n)), states, None
    if P is None:
        return None, states, None
    live = np.flatnonzero(~P.all(axis=2).T)  # start i0 * n + i1
    step = np.ascontiguousarray(P.transpose(1, 0, 2), dtype=np.float32)  # [b, a, c]
    block = max(1, APPLY_CHUNK_CELLS // n ** 2)
    best, fixpoint = None, 1
    for lo in range(0, len(live), block):
        k_top = k_max if best is None else best[0] - 1
        if k_top is not None and k_top < 2:
            break
        count, k, x = _walk_block(P, step, live[lo:lo + block], k_top)
        states += count
        if x is not None:
            best = (k, *divmod(int(live[lo + x]), n))
        fixpoint = fixpoint and k and max(fixpoint, k)  # None once a block is cut off
    if best is None:
        return None, states, fixpoint
    k, i0, i1 = best
    return _chain(P, i0, i1, k), states, None


def _walk_block(P, step, starts, k_top):
    """The number of states first reached from the s starts ``starts``,
    numbered i0 * n + i1, and the depth k and the first x at which
    ``starts[x]`` closes a counterexample; with x None, k is the deepest
    layer before the block ran dry, or None when it was cut off at
    ``k_top``.  Each layer is a batched float32 matmul of the last with the
    premises, read as ``> 0`` (its sums of 0/1 values are exact), less the
    states reached before.  The same product, read at column V_0, tells
    which states of the last layer close the ring.  A block holds 10 bytes
    a cell: the float32 layer multiplied and its product, the layer read
    and the states not yet reached, all freed when it returns."""
    n, s = len(P), len(starts)
    i0, i1 = np.divmod(starts, n)
    x = np.arange(s)
    # reached[b, x, c]: state (b, c) first reached from start x; layer 2 is
    # (i1, c) for every c with premise 1, less the start
    unseen = np.ones((n, s, n), dtype=bool)
    unseen[i0, x, i1] = False
    reached = np.zeros_like(unseen)
    reached[i1, x] = P[i0, i1]
    fails = ~P[i1, i0]  # [x, c]: the conclusion fails at V_k = c
    layer = np.empty(unseen.shape, dtype=np.float32)
    product = np.empty_like(layer)
    states = 0
    for k in itertools.count(2):
        reached &= unseen
        count = int(np.count_nonzero(reached))
        if not count:
            return states, k - 1, None
        states += count
        unseen ^= reached  # reached lies within unseen, so this clears just it
        # transposed and widened in one pass, read as bytes: a cast from
        # bool is about twice as slow
        np.copyto(layer, reached.view(np.uint8).transpose(2, 1, 0))
        # product[c, x, d]: the states (b, c) of layer k with premise
        # (b, c, d); at d = V_0 that premise closes the ring
        np.matmul(layer, step, out=product)
        hit = ((product[:, x, i0] > 0).T & fails).any(axis=1)
        if hit.any():
            return states, k, int(np.argmax(hit))
        if k == k_top:
            return states, None, None
        np.greater(product, 0, out=reached)


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


def check_loop(op, family, k_max=None, budget=10**6, samples=10**4):
    """Check the loop condition for chains from ``family``, for every k or
    for k <= the cut-off ``k_max``: ``_verdict`` over the sorted family,
    under ``budget``; an empty family raises ``FamilyError``.  ``samples``
    is accepted and unused, and ``LoopVerdict.sampled`` is always False:
    both stay for the benchmark's loop job until ROADMAP item 1a."""
    sets = sorted(validate_family(op.universe, family), key=sorted)
    if not sets:
        raise FamilyError("the family has no set to chain")
    return _verdict(op, sets, op.universe, k_max, budget)


def _verdict(op, sets, universe, k_max, budget=None):
    """The loop search: the verdict of one walk over the sorted ``sets``
    (``_walk``) off ``_premise_reader(op, sets, universe)``, its chain
    re-verified through ``op.lookup``.  Before it reads a premise, a walk of
    more than ``budget`` (if given) cells per layer raises
    ``BoundExceededError``: n^2 for a walk cut off at k = 1, else n^5 (n^2
    starts by n^2 states by n successors).  ``checked`` counts the chains up
    to the violation's k, the cut-off or the fixpoint."""
    n = len(sets)
    if budget is not None and (cells := n ** 2 if k_max == 1 else n ** 5) > budget:
        raise BoundExceededError(
            f"the loop walk over {n} sets needs {cells} cells per layer, "
            f"over the budget of {budget}"
        )
    found, states, fixpoint = _walk(_premise_reader(op, sets, universe), n, k_max)
    k = len(found) - 1 if found else fixpoint if k_max is None else k_max
    checked = sum(n ** (j + 1) for j in range(1, k + 1))
    if found is None:
        return LoopVerdict(True, k, (), checked, states=states, fixpoint=fixpoint)
    chain = tuple(sets[i] for i in found)
    if not recheck_chain(op, chain):
        raise WitnessError(f"loop chain {[sorted(s) for s in chain]} fails its recheck")
    return LoopVerdict(False, k, chain, checked, states=states)


def find_loop_violation(op, sets, k_max=None):
    """Directed search for a loop counterexample over the candidate
    ``sets``: ``_verdict`` with no closure requirement and no budget.  A set
    with a point outside ``op.universe`` raises ``FamilyError``."""
    sets = sorted({frozenset(s) for s in sets if s}, key=sorted)
    if not set().union(*sets) <= set(op.universe):
        raise FamilyError("family member outside the universe")
    return _verdict(op, sets, op.universe, k_max)
