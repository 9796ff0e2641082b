"""The cyclic counterexample gadget and its claim verification.

A gadget lives on 2m wheel points v1..vm, w1..wm (plus off-wheel extras)
with graded costs: the abstract gadget on labeled points under the real
order, the Hamming gadget on matrix valuations over 2m atoms under the
liberal order.  Each carries a modified operator, the wrap rung redirected
to a single point, that no pseudo-distance reproduces; ``Gadget.patch(r)``
gives, for each rung r < m, a patched operator and patched distance that
coincide exactly.  Both operators are tables over the distance whose
entries are the redirected rung pairs, each extended by the extras that
put no near pair across V x W: every off-wheel pair is near in the abstract
gadget, one below Hamming difference 3 in the Hamming gadget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .costs import (
    INF,
    OrderMode,
    PropertyReport,
    PseudoDistance,
    check_hir,
    check_property,
)
from .distops import (
    APPLY_CHUNK_CELLS,
    SWEEP_MAX_BYTES,
    OperatorTable,
    _mask_dtype,
    _rank_parts,
    _subset_table,
    check_inclusion,
    find_loop_violation,
    least_rank_rows,
)
from .errors import BoundExceededError, FamilyError, UndefinedPairError, UnknownAtomError
from .logic import Valuation, hamming_diff
from .realizability import solve_table

F = Fraction


# ---------------------------------------------------------------------------
# Gadgets


@dataclass(frozen=True)
class Gadget:
    """A cycle gadget over ``universe``, the 2m wheel labels first: the
    distance, the modified operator, the ``near`` test of off-wheel pairs
    and the ``patched_cost`` of the rungs a patch lowers, and for the
    Hamming gadget the valuation of every label."""

    m: int
    universe: tuple
    dist: PseudoDistance
    op: OperatorTable
    near: object  # (a, b) -> bool, read only for pairs with an extra
    patched_cost: Fraction
    points: dict = None  # label -> Valuation, Hamming only

    def patch(self, r):
        """Rung r's patched operator and distance, 1 <= r < m (any other r
        raises ``UnknownAtomError``): the operator also sends rung r to rung
        r + 1's single point, and the distance lowers the rungs beyond r to
        ``patched_cost`` so that both redirections become minimal."""
        m = self.m
        entries = _redirected(m, self.universe[2 * m:], ((m, m), (r, r + 1)), self.near)
        dist = self.dist.replaced({(f"{a}{i}", f"{b}{i}"): self.patched_cost
                                   for i in range(r + 1, m + 1) for a, b in ("vw", "wv")})
        return OperatorTable(self.universe, entries, backing=self.dist), dist


def _rung(i, m):
    """Rung i's doubletons ({v_i, v_j}, {w_i, w_j}) with j = i + 1, or 1
    for the wrap rung i = m."""
    j = i % m + 1
    return frozenset({f"v{i}", f"v{j}"}), frozenset({f"w{i}", f"w{j}"})


def find_fresh_rung(pairs, m):
    """Smallest rung index untouched by the given (V, W) pairs; exists by
    pigeonhole when there are at most m - 2 pairs."""
    if len(pairs) > m - 2:
        raise BoundExceededError("too many pairs for a guaranteed fresh rung")
    taken = [frozenset({frozenset(v), frozenset(w)}) for v, w in pairs]
    for r in range(1, m):
        if frozenset(_rung(r, m)) not in taken:
            return r
    raise AssertionError("pigeonhole guarantees a fresh rung")


def _redirected(m, extras, rungs, near):
    """Table entries that send rung i's doubleton pair to the single point
    of rung j, for each (i, j) of ``rungs``: ({v_i, v_i+1} + E, {w_i, w_i+1}
    + E') -> {w_j} and its mirror -> {v_j}, for every pair of extras subsets
    E, E' that puts no pair ``near`` across V x W."""
    subsets = [frozenset(c) for k in range(len(extras) + 1)
               for c in combinations(extras, k)]
    entries = {}
    for i, j in rungs:
        vv, ww = _rung(i, m)
        for side, other, out in ((vv, ww, f"w{j}"), (ww, vv, f"v{j}")):
            for ev in subsets:
                for ew in subsets:
                    v, w = side | ev, other | ew
                    if not any(near(a, b) for a in v for b in w
                               if a in ev or b in ew):
                        entries[v, w] = frozenset({out})
    return entries


def _build(m, extras, mode, ladder, off_cost, near, points=None):
    """The gadget whose wheel costs are ``ladder`` = (same side, rung,
    adjacent rungs, chord, patched rung), with ``off_cost`` on pairs that
    leave the wheel."""
    if m < 4:
        raise FamilyError("wheel needs m >= 4")
    side, rung, adjacent, chord, patched = ladder
    universe = tuple(f"{s}{i}" for s in "vw" for i in range(1, m + 1)) + tuple(extras)

    def cost(a, b):
        if a == b:
            return F(0)
        if a in extras or b in extras:
            return off_cost(a, b)
        if a[0] == b[0]:
            return side
        i, j = int(a[1:]), int(b[1:])
        if i == j:
            return rung
        return adjacent if abs(i - j) in (1, m - 1) else chord

    dist = PseudoDistance.from_function(universe, mode, cost)
    op = OperatorTable(universe, _redirected(m, extras, ((m, m),), near), backing=dist)
    return Gadget(m, universe, dist, op, near, patched, points)


def build_wheel_gadget(n=1, m=None):
    """The abstract gadget, m = n + 3 to defeat arity-n tests, under the
    real order; every pair with an extra costs 1 and is near."""
    return _build(n + 3 if m is None else m, ("x1", "x2"), OrderMode.REAL,
                  (F(11, 10), F(14, 10), F(2), F(12, 10), F(13, 10)),
                  lambda a, b: F(1), lambda a, b: True)


def build_hamming_wheel(n=1, m=None):
    """The Hamming gadget: unit valuations on 2m atoms plus three off-wheel
    valuations at Hamming difference 1, 2, and >= 3 from the wheel, under
    the liberal order; an off-wheel pair costs its difference h (7/5 for
    h = 1) and is near below h = 3."""
    if m is None:
        m = n + 3
    sig = tuple(f"p{i}" for i in range(1, m + 1)) + tuple(f"q{i}" for i in range(1, m + 1))

    def unit(*ones):
        return Valuation(sig, tuple("1" if a in ones else "0" for a in sig))

    points = {}
    for i in range(1, m + 1):
        points[f"v{i}"] = unit(f"p{i}")
        points[f"w{i}"] = unit(f"q{i}")
    # e1 at difference 1 from every wheel point, e2 at difference 2 from v1,
    # e3 at difference >= 3 from every wheel point and from e1/e2
    points["e1"] = unit()
    points["e2"] = unit("p1", "p2", "p3")
    points["e3"] = unit("p1", "q1", "p2", "q2")

    def diff(a, b):
        return len(hamming_diff(points[a], points[b]))

    return _build(m, ("e1", "e2", "e3"), OrderMode.LIBERAL,
                  (F(21, 10), F(24, 10), F(25, 10), F(22, 10), F(23, 10)),
                  lambda a, b: F(14, 10) if diff(a, b) == 1 else F(diff(a, b)),
                  lambda a, b: diff(a, b) < 3, points)


def proof_fragment(gadget):
    """The finite sub-table of the modified operator that already blocks
    realizability, its 2m-entry core: every rung doubleton with its
    singleton probe of v_{i%m+1}, the modified wrap rung included."""
    m, entries = gadget.m, {}
    for i in range(1, m + 1):
        vv, ww = _rung(i, m)
        for vset in (vv, frozenset({f"v{i % m + 1}"})):
            entries[(vset, ww)] = gadget.op.lookup(vset, ww)
    return OperatorTable(gadget.universe, entries)


def loop_family_generators(m):
    """Singletons and adjacent doubletons of the wheel points: the natural
    candidate sets for the loop-violation search."""
    sets = [frozenset({f"{s}{i}"}) for s in "vw" for i in range(1, m + 1)]
    for i in range(1, m + 1):
        sets.extend(_rung(i, m))
    return sets


# ---------------------------------------------------------------------------
# Subset sweeps
#
# Point k of the sweep's order is bit k of a mask, and V's rank row, read
# per chunk of V masks by ``least_rank_rows``, holds f_V(w), V's least rank
# toward w; the minimization of (V, W) keeps the members of W at the least
# f_V.  By Arrow's choice-function lemma (Economica 1959), two rows keep
# the same members of every W exactly when they order every pair of points
# alike.  So a sweep compares each V's two rows as weak orders, and folds
# the full W row only for the V's that fail or key a table entry, to list
# the mismatching pairs.  The same reading gives the Hamming reduction
# lemma: with A the points that no member of V is near and h the row of
# V's wheel part, the minimization over every W within A that meets the
# wheel is that of the wheel parts exactly when f_V and h order the wheel
# points of A alike and f_V puts the off-wheel points of A strictly above
# them.


def _least_members(rows, mask_t):
    """[V, W]: the members of W at the least rank of V's row, as a bitmask,
    for every W mask, by one fold over the W bits (all of W for a row of
    top ranks)."""
    k, n = rows.shape
    least = np.full((k, 1 << n), np.iinfo(rows.dtype).max, rows.dtype)
    bits = np.zeros((k, 1 << n), mask_t)
    for i in range(n):
        low, rank = 1 << i, rows[:, i:i + 1]
        new = np.minimum(least[:, :low], rank, out=least[:, low:2 * low])
        bits[:, low:2 * low] = (bits[:, :low] * (least[:, :low] == new)
                                | mask_t.type(low) * (rank == new))
    return bits


def _disordered(a, b):
    """Per row, whether the unsigned rank rows a and b [k, n] order some
    pair of points differently.  Each row's (a, b) pairs are sorted as
    packed keys a << s | b, twice the wider rank's width, in place; b then
    rises within each tie of a, so the rows agree exactly when b never
    falls and ties exactly where a ties."""
    shift = 8 * np.result_type(a, b).itemsize
    key = a.astype(f"u{shift // 4}")
    key <<= shift
    key |= b
    key.sort(axis=1)
    a, b = key >> shift, key & (1 << shift) - 1
    return np.any(((a[:, 1:] == a[:, :-1]) != (b[:, 1:] == b[:, :-1]))
                  | (b[:, 1:] < b[:, :-1]), axis=1)


def _row_flags(size, n, bad):
    """``bad(vm)`` over every V mask below ``size``, in chunks of about
    ``APPLY_CHUNK_CELLS`` (V, point) cells, into one flag per V."""
    step = max(1, APPLY_CHUNK_CELLS // n)
    flags = np.empty(size, bool)
    for lo in range(0, size, step):
        flags[lo:lo + step] = bad(np.arange(lo, min(lo + step, size)))
    return flags


def _witnesses(vmasks, order, cap, differ):
    """The first ``cap`` (V, W) label pairs, W ascending then V, where
    ``differ(vm)`` [k, 2^n] holds, read in chunks of the ascending V masks
    ``vmasks`` of about ``APPLY_CHUNK_CELLS`` cells."""
    n = len(order)
    step = max(1, APPLY_CHUNK_CELLS >> n)
    keys = [np.empty(0, np.int64)]
    for lo in range(0, len(vmasks), step):
        vm = vmasks[lo:lo + step]
        rows, wm = np.nonzero(differ(vm))
        keys.append(np.sort(wm.astype(np.int64) << n | vm[rows])[:cap])
    return [(_labels_of(key & (1 << n) - 1, order), _labels_of(key >> n, order))
            for key in np.sort(np.concatenate(keys))[:cap].tolist()]


def _labels_of(mask, order):
    return frozenset(order[j] for j in range(len(order)) if mask >> j & 1)


@dataclass
class EqualityReport:
    pairs_checked: int
    mismatches: list

    @property
    def passed(self):
        return not self.mismatches


def _folds(rows, ufunc):
    """``ufunc`` folded over rows[i] for the members i of each point mask
    (0 for none), read off the ``_subset_table``s of the low and the high
    half of the points: no table over every mask is held."""
    half = len(rows) // 2
    low, high = (_subset_table(part, ufunc, 0) for part in (rows[:half], rows[half:]))
    return lambda masks: ufunc(low[masks & (1 << half) - 1], high[masks >> half])


def _reduction_sweep(dist, near, nx, order, cap):
    """The Hamming gadget's in-wheel reduction lemma on the unpatched
    distance ``dist``, its V rows read in chunks by ``least_rank_rows``
    over ``order``: wherever V x W holds no near pair and both
    wheel parts (the low ``nx`` bits) are non-empty, the result is that of
    the wheel parts alone; ``near[i]`` masks the points that point i meets
    in an off-wheel near pair."""
    n = len(order)
    xmask = (1 << nx) - 1
    mask_t = _mask_dtype(n)
    near_of = _folds(near, np.bitwise_or)
    count = _folds(np.ones(n, np.int64), np.add)  # popcounts

    def f(vm):
        return least_rank_rows(dist, vm, order)

    top, bit = f([0])[0, 0], np.arange(n, dtype=mask_t)
    pairs = 0

    def bad(vm):
        # A, the points that no member of V is near, holds 2^|A| - 2^|A
        # off-wheel| W's that meet the wheel; the points outside A, at the
        # top rank on both sides, tie with each other above the rest, so
        # only the pairs of A count
        nonlocal pairs
        free = ~near_of(vm) & mask_t.type((1 << n) - 1)  # A
        wheel = (vm & xmask) != 0
        pairs += int(np.sum((1 << count(free)) - (1 << count(free >> nx)), where=wheel))
        inside = (free[:, None] >> bit & 1).astype(bool)
        fa = np.where(inside, f(vm), top)
        wheel_top = np.max(fa[:, :nx], axis=1, where=inside[:, :nx], initial=0)
        return wheel & (
            _disordered(fa[:, :nx], np.where(inside[:, :nx], f(vm & xmask)[:, :nx], top))
            | ((fa[:, nx:].min(axis=1, initial=top) <= wheel_top) & inside[:, :nx].any(axis=1)))

    def differ(vm):
        h = f(vm & xmask)
        h[:, nx:] = top  # the wheel part's minimization, off-wheel points never least
        found = _least_members(f(vm), mask_t) != _least_members(h, mask_t)
        wmask = np.arange(1 << n, dtype=mask_t)
        return found & ((wmask & near_of(vm)[:, None]) == 0) & ((wmask & xmask) != 0)

    flags = _row_flags(1 << n, n, bad)
    return EqualityReport(pairs, _witnesses(np.flatnonzero(flags), order, cap, differ))


def sweep_bytes(table, dist):
    """Bytes that the sweeps of a claims check hold at most, besides the
    mismatches they list: the exhaustive sweep of ``wheel_equality_sweep``
    and the Hamming reduction sweep.  Both hold the part tables of the
    table's backing and of ``dist`` over ``dist.universe`` (``_rank_parts``,
    built here if not yet held), which they read their V rows from, and one
    flag per V mask.  Then they hold the larger of two passes.  The order
    checks read V rows in chunks of about ``APPLY_CHUNK_CELLS`` (V, point)
    cells; per cell they hold two ranks read, their packed key of twice the
    rank's width, its two halves and at most four boolean pair tests.  The
    folds of the flagged V's run over chunks of as many W cells, one V at
    least; per cell they hold two folded masks, one least rank and the
    fold's transients, under two masks.  ``table`` must have a backing (else
    ``UndefinedPairError``), and it, its backing and ``dist`` the same
    points (else ``UnknownAtomError``)."""
    if table.backing is None:
        raise UndefinedPairError("the sweep reads pairs off the table's backing distance")
    if not set(table.universe) == set(table.backing.universe) == set(dist.universe):
        raise UnknownAtomError("the table, its backing and the distance have different points")
    n = len(dist.universe)
    mask = _mask_dtype(n).itemsize
    tables = [_rank_parts(d, dist.universe) for d in (table.backing, dist)]
    rank = max(top.itemsize for _, top, _ in tables)
    held = sum(part.nbytes for _, _, parts in tables for *_, part in parts) + (1 << n)
    order_cells = min(1 << n, max(1, APPLY_CHUNK_CELLS // n)) * n
    fold_cells = min(1 << n, max(1, APPLY_CHUNK_CELLS >> n)) << n
    return held + max((8 * rank + 4) * order_cells, (4 * mask + rank) * fold_cells)


def wheel_equality_sweep(table, dist, witness_cap=16):
    """The (V, W) pairs, over every subset pair of ``dist``'s universe, on
    which ``table`` and the minimization of ``dist`` differ, the first
    ``witness_cap`` of them.  ``table`` and its backing must be on
    ``dist``'s points, as ``sweep_bytes`` checks first; the sweep raises
    ``BoundExceededError`` before it allocates when ``sweep_bytes`` is over
    ``SWEEP_MAX_BYTES``."""
    need = sweep_bytes(table, dist)
    order = list(dist.universe)
    n = len(order)
    if need > SWEEP_MAX_BYTES:
        raise BoundExceededError(
            f"the exhaustive sweep over {n} points needs about {need >> 20} MiB, "
            f"over the {SWEEP_MAX_BYTES >> 20} MiB cap"
        )
    index = {lab: i for i, lab in enumerate(order)}
    mask_t = _mask_dtype(n)
    # the table entries by V mask, as (W mask, result mask); they override
    # the backing distance's minimization, so their V rows are always folded
    entries = {}
    for key, x in table.entries.items():
        v, w, x = (sum(1 << index[lab] for lab in labels) for labels in (*key, x))
        entries.setdefault(v, []).append((w, x))

    def f(vm):
        return least_rank_rows(table.backing, vm, order)

    def g(vm):
        return least_rank_rows(dist, vm, order)

    def differ(vm):
        left, right = _least_members(f(vm), mask_t), _least_members(g(vm), mask_t)
        left[vm == 0] = right[vm == 0] = 0  # empty V
        for row, v in enumerate(vm.tolist()):
            for w, x in entries.get(v, ()):
                left[row, w] = x
        return left != right

    flags = _row_flags(1 << n, n, lambda vm: _disordered(f(vm), g(vm)))
    flags[list(entries)] = True
    return EqualityReport(1 << 2 * n, _witnesses(np.flatnonzero(flags), order, witness_cap, differ))


# ---------------------------------------------------------------------------
# Claim verification


@dataclass
class ClaimsReport:
    rung: int  # the patched rung
    fragment_verdict: object
    inclusion: object
    equality: EqualityReport
    reduction: EqualityReport  # the Hamming gadget's reduction lemma, else None
    properties: dict  # report key -> PropertyReport
    loop: object

    @property
    def passed(self):
        return (
            self.fragment_verdict.status == "unsat"
            and self.inclusion.passed
            and self.equality.passed
            and (self.reduction is None or self.reduction.passed)
            and all(rep.passed for rep in self.properties.values())
            and not self.loop.passed  # a violation must exist
        )


def _verify(gadget, properties_of):
    """The claims common to both gadgets, on the fresh rung r that no pair
    takes: the modified operator's fragment is unrealizable, its entries
    are inclusive, rung r's patch equals the patched minimization, and the
    modified operator violates the loop condition.  ``properties_of`` maps
    the patched distance to the gadget's own property reports."""
    r = find_fresh_rung((), gadget.m)
    patched_op, patched_dist = gadget.patch(r)
    verdict = solve_table(proof_fragment(gadget))
    inclusion = check_inclusion(gadget.op)
    equality = wheel_equality_sweep(patched_op, patched_dist)
    loop = find_loop_violation(gadget.op, loop_family_generators(gadget.m), 2 * gadget.m)
    return ClaimsReport(r, verdict, inclusion, equality, None, properties_of(patched_dist), loop)


def verify_wheel_claims(gadget):
    """Machine-check the abstract gadget, with the four real-order
    properties of the patched distance.  The sweep is exhaustive."""
    return _verify(gadget, lambda patched: {f"patched.{prop}": check_property(patched, prop)
                                            for prop in ("symmetric", "ir", "positive", "tir")})


def check_sandwich(gadget, patched, witness_cap=16):
    """|h| <= d' <= d <= |h| + 1/2 on every finite-difference pair, d the
    gadget's distance and d' ``patched``."""
    found = []
    for a, b in product(gadget.universe, repeat=2):
        h = F(len(hamming_diff(gadget.points[a], gadget.points[b])))
        d, dp = gadget.dist.d(a, b), patched.d(a, b)
        if d is not INF and dp is not INF and not (h <= dp <= d <= h + F(1, 2)):
            found.append((a, b, h, dp, d))
    return PropertyReport.of("sandwich", found, witness_cap)


def verify_hamming_claims(gadget):
    """Machine-check the Hamming gadget, with Hamming-inequality respect,
    liberal triangle respect, the sandwich bound and, once the equality
    sweep has passed its size check, the in-wheel reduction lemma on the
    unpatched distance.  The sweeps are exhaustive."""
    report = _verify(gadget, lambda patched: {
        "hamming_respect": check_hir(patched, gadget.points),
        "liberal_triangle": check_property(patched, "liberal_tir"),
        "sandwich": check_sandwich(gadget, patched),
    })
    order, nx = gadget.universe, 2 * gadget.m
    near = np.array([sum(1 << j for j, b in enumerate(order)
                         if max(i, j) >= nx and gadget.near(a, b))
                     for i, a in enumerate(order)], dtype=_mask_dtype(len(order)))
    report.reduction = _reduction_sweep(gadget.dist, near, nx, order, 16)
    return report
