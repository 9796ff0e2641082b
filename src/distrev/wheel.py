"""The cyclic counterexample gadget and its claim verification.

A gadget lives on 2m wheel points v1..vm, w1..wm (plus off-wheel extras)
with graded costs: the abstract gadget on labeled points under the real
order, the Hamming gadget on matrix valuations over 2m atoms under the
liberal order.  Each carries a modified operator, the wrap rung redirected
to a single point, that no pseudo-distance reproduces, together with a
patched operator and patched distance that coincide exactly.  Both
operators are tables over the distance whose entries are the redirected
rung pairs, each extended by the extras that put no near pair across
V x W: every off-wheel pair is near in the abstract gadget, one below
Hamming difference 3 in the Hamming gadget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    OperatorTable,
    _mask_dtype,
    _subset_table,
    apply_rows,
    check_inclusion,
    distance_int_matrix,
    find_loop_violation,
)
from .errors import BoundExceededError, FamilyError
from .logic import CLASSICAL, Valuation, hamming_diff
from .realizability import solve_table

F = Fraction


# ---------------------------------------------------------------------------
# Gadgets


@dataclass(frozen=True)
class Gadget:
    """A cycle gadget over ``universe``, the 2m wheel labels first: the
    distance, the modified operator, the patched rung ``r`` with the
    patched operator and distance, and for the Hamming gadget the
    valuation of every label."""

    m: int
    universe: tuple
    dist: PseudoDistance
    op: OperatorTable
    r: int
    patched_op: OperatorTable
    patched_dist: PseudoDistance
    points: dict = None  # label -> Valuation, Hamming only


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


def _build(m, extras, mode, ladder, off_cost, near, taken_pairs, points=None):
    """The gadget whose wheel costs are ``ladder`` = (same side, rung,
    adjacent rungs, chord, patched rung), with ``off_cost`` on pairs that
    leave the wheel; the patch lowers the rungs beyond the fresh one to the
    patched rung cost so that its redirection becomes minimal."""
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
    r = find_fresh_rung(list(taken_pairs), m)
    op = OperatorTable(universe, _redirected(m, extras, ((m, m),), near), backing=dist)
    patched_op = OperatorTable(
        universe, _redirected(m, extras, ((m, m), (r, r + 1)), near), backing=dist)
    patched_dist = dist.replaced({(f"{a}{i}", f"{b}{i}"): patched
                                  for i in range(r + 1, m + 1) for a, b in ("vw", "wv")})
    return Gadget(m, universe, dist, op, r, patched_op, patched_dist, points)


def build_wheel_gadget(n=1, m=None, taken_pairs=(), extras=("x1", "x2")):
    """The abstract gadget, m = n + 3 to defeat arity-n tests, under the
    real order; every pair with an extra costs 1 and is near."""
    return _build(n + 3 if m is None else m, tuple(extras), OrderMode.REAL,
                  (F(11, 10), F(14, 10), F(2), F(12, 10), F(13, 10)),
                  lambda a, b: F(1), lambda a, b: True, taken_pairs)


def _near(points, a, b):
    return len(hamming_diff(points[a], points[b])) < 3


def build_hamming_wheel(n=1, m=None, matrix=CLASSICAL, taken_pairs=()):
    """The Hamming gadget: unit valuations on 2m atoms plus three off-wheel
    valuations at Hamming difference 1, 2, and >= 3 from the wheel, under
    the liberal order; an off-wheel pair costs its difference h (7/5 for
    h = 1) and is near below h = 3."""
    if m is None:
        m = n + 3
    one = min(matrix.designated)
    zero = next(t for t in matrix.values if t not in matrix.designated)
    sig = tuple(f"p{i}" for i in range(1, m + 1)) + tuple(f"q{i}" for i in range(1, m + 1))

    def unit(*ones):
        return Valuation(sig, tuple(one if a in ones else zero for a in sig))

    points = {}
    for i in range(1, m + 1):
        points[f"v{i}"] = unit(f"p{i}")
        points[f"w{i}"] = unit(f"q{i}")
    # e1 at difference 1 from every wheel point, e2 at difference 2 from v1,
    # e3 at difference >= 3 from every wheel point and from e1/e2
    points["e1"] = unit()
    points["e2"] = unit("p1", "p2", "p3")
    points["e3"] = unit("p1", "q1", "p2", "q2")

    def off_cost(a, b):
        h = len(hamming_diff(points[a], points[b]))
        return F(14, 10) if h == 1 else F(h)

    return _build(m, ("e1", "e2", "e3"), OrderMode.LIBERAL,
                  (F(21, 10), F(24, 10), F(25, 10), F(22, 10), F(23, 10)),
                  off_cost, lambda a, b: _near(points, a, b), taken_pairs, points)


def proof_fragment(gadget):
    """The finite sub-table of the modified operator that already blocks
    realizability: every rung doubleton with its singleton probes, the
    modified wrap rung included."""
    m, entries = gadget.m, {}
    for i in range(1, m + 1):
        vv, ww = _rung(i, m)
        for vset in (vv, frozenset({f"v{i}"}), frozenset({f"v{i % m + 1}"})):
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
# Costs enter as the distance's compiled integer ranks.  Point k of the
# sweep's order is bit k of a mask, and the minimization's result for every
# (V, W) pair is a bitmask, produced one W column at a time by ``_columns``.

EXHAUSTIVE_MAX_POINTS = 12  # verify_wheel_claims samples above this
HAMMING_MAX_BYTES = 1 << 30  # verify_hamming_claims refuses larger sweeps


def _block_bits(n):
    """t such that a block of 2^t W columns over n points holds about
    ``APPLY_CHUNK_CELLS`` cells."""
    return min(n, max(0, APPLY_CHUNK_CELLS.bit_length() - 1 - n))


def _columns(cost, cost2):
    """Yield ``(wlo, cols, cols2)`` for blocks of 2^t consecutive W masks in
    ascending order: row L of ``cols`` is the column of W = wlo + L, so
    cols[L, vmask] is the bitmask of the members of W at minimal ``cost``
    over V x W (0 when V or W is empty); ``cols2`` is the same under
    ``cost2``.  Ranks are kept in their narrowest dtype and bitmasks in
    ``_mask_dtype(n)``.

    W splits into its high part H = wlo and its low part L < 2^t.  The
    columns of every L are tabulated once per matrix; the column of H
    extends the column of H minus its lowest member, the last one built
    with one member fewer, so n - t + 1 of them per matrix stay live.  A
    block cell takes the tie bits of whichever part has the lesser minimum,
    of both on a tie.  The yielded blocks are buffers that the next step rewrites; the caller may
    overwrite them in between."""
    n = len(cost)
    size, t = 1 << n, _block_bits(n)
    shape, mask_t = (1 << t, size), _mask_dtype(n)
    lows = np.arange(1 << t, dtype=mask_t)[:, None]
    tables, live = [], [None] * (n - t + 1)  # live: per member count of H
    live[0] = []
    for c in (cost, cost2):
        top = int(c.max(initial=0)) + 1  # the minimum over no point
        rank_t = np.min_scalar_type(top)
        top = rank_t.type(top)
        rowmin = _subset_table(c.astype(rank_t), np.minimum, top)  # [w, vmask]
        lmin = np.ascontiguousarray(_subset_table(rowmin[:t], np.minimum, top).T)
        lbits = np.zeros(shape, mask_t)  # the members of L at L's minimum
        for j in range(t):
            lbits |= mask_t.type(1 << j) * (lmin == rowmin[j])
        lbits &= lows
        lbits[:, 0] = 0  # empty V
        tables.append((rowmin, lmin, lbits, np.empty(shape, mask_t)))
        live[0].append((np.full(size, top), np.zeros(size, mask_t)))
    tie, tmp = np.empty(shape, bool), np.empty(shape, mask_t)
    for wlo in range(0, size, 1 << t):
        k = wlo.bit_count()
        if wlo:
            low = wlo & -wlo
            live[k] = []
            for (hmin, hbits), (rowmin, *_) in zip(live[k - 1], tables):
                c = rowmin[low.bit_length() - 1]
                new = np.minimum(hmin, c)
                bits = hbits * (hmin == new) | mask_t.type(low) * (c == new)
                bits[0] = 0  # empty V
                live[k].append((new, bits))
        for (hmin, hbits), (_, lmin, lbits, block) in zip(live[k], tables):
            np.multiply(lbits, np.less_equal(lmin, hmin, out=tie), out=block)
            block |= np.multiply(hbits, np.less_equal(hmin, lmin, out=tie), out=tmp)
        yield wlo, tables[0][3], tables[1][3]


def _mask_of(labels, index):
    mask = 0
    for lab in labels:
        mask |= 1 << index[lab]
    return mask


def _mask_rows(masks, n):
    """Boolean membership rows of the given point masks over n points."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                           dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(bool)


def _labels_of(mask, order):
    return frozenset(order[j] for j in range(len(order)) if mask >> j & 1)


@dataclass
class EqualityReport:
    pairs_checked: int
    mismatches: list
    sampled: bool
    reduction: EqualityReport = None  # the exhaustive sweep of a Hamming gadget

    @property
    def passed(self):
        return not self.mismatches

    def note(self, mismatch, wlo, order, cap):
        """Record the mismatching pairs of one block, whose row L holds the
        V masks of W = wlo + L: W ascending, then V, up to ``cap`` in all."""
        room = cap - len(self.mismatches)
        if room > 0 and mismatch.any():
            rows, vmasks = np.nonzero(mismatch)
            for row, vm in zip(rows[:room].tolist(), vmasks[:room].tolist()):
                self.mismatches.append((_labels_of(vm, order), _labels_of(wlo + row, order)))


def _reduction_lemma(gadget, order, witness_cap):
    """The Hamming gadget's in-wheel reduction lemma, read off the blocks of
    the unpatched minimization: wherever V x W holds no near pair and both
    wheel parts are non-empty, the result is that of the wheel parts alone.
    Returns the report and the step that checks one block.  The wheel labels
    take the low bits, so the wheel-only table fills from the first blocks."""
    n, nx = len(order), 2 * gadget.m
    size, xsize = 1 << n, 1 << nx
    mask_t = _mask_dtype(n)
    # near[vmask]: the points that some member of V meets in an off-wheel
    # near pair; V x W holds none exactly when near & W is zero
    near = _subset_table(np.array([
        sum(1 << j for j, b in enumerate(order)
            if max(i, j) >= nx and _near(gadget.points, a, b))
        for i, a in enumerate(order)
    ], dtype=mask_t), np.bitwise_or, 0)
    vx_any = np.arange(size) % xsize != 0  # V has wheel points
    wheel_cols = np.empty((xsize, xsize), dtype=mask_t)  # [W, V], wheel-only
    shape = (1 << _block_bits(n), size)  # the sweep's blocks
    guard = np.empty(shape, mask_t)
    scope, differ = np.empty(shape, bool), np.empty(shape, bool)
    report = EqualityReport(0, [], sampled=False)

    def step(wlo, cols):
        wmasks = np.arange(wlo, wlo + len(cols), dtype=mask_t)
        wx = wmasks % xsize
        if wlo < xsize:
            wheel_cols[wlo:wlo + len(cols)] = cols[:xsize - wlo, :xsize]
        # row W's V masks, as (V off-wheel part, V wheel part), against the
        # wheel-only row of W's wheel part
        np.equal(np.bitwise_and(near, wmasks[:, None], out=guard), 0, out=scope)
        np.logical_and(scope, vx_any, out=scope)
        scope[wx == 0] = False
        report.pairs_checked += int(np.count_nonzero(scope))
        np.not_equal(cols.reshape(len(cols), -1, xsize), wheel_cols[wx][:, None, :],
                     out=differ.reshape(len(cols), -1, xsize))
        report.note(np.logical_and(scope, differ, out=differ), wlo, order, witness_cap)

    return report, step


def wheel_equality_sweep(gadget, sample=None, seed=0, witness_cap=16):
    """Check that the patched operator equals the minimization of the
    patched distance on every subset pair of the universe, or on ``sample``
    seeded random pairs when given.  The exhaustive sweep of a Hamming
    gadget also checks the reduction lemma, in the same pass, into the
    report's ``reduction``."""
    order = list(gadget.universe)
    n = len(order)
    report = EqualityReport(0, [], sampled=sample is not None)
    if sample is not None:
        rng = random.Random(seed)
        report.pairs_checked = sample
        pairs = [(rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(sample)]
        vrows, wrows = (_mask_rows([pair[side] for pair in pairs], n) for side in (0, 1))
        lhs = gadget.patched_op.lookup_rows(vrows, wrows, order)
        rhs = apply_rows(gadget.patched_dist, vrows, wrows, order)
        for p in np.flatnonzero((lhs != rhs).any(axis=1))[:witness_cap]:
            vmask, wmask = pairs[p]
            report.mismatches.append((_labels_of(vmask, order), _labels_of(wmask, order)))
        return report
    index = {lab: i for i, lab in enumerate(order)}
    # the table entries as (V mask, W mask) -> result mask; they override
    # the backing distance's minimization
    entries = {(_mask_of(v, index), _mask_of(w, index)): _mask_of(x, index)
               for (v, w), x in gadget.patched_op.entries.items()}
    read_reduction = None
    if gadget.points is not None:
        report.reduction, read_reduction = _reduction_lemma(gadget, order, witness_cap)
    differ = np.empty((1 << _block_bits(n), 1 << n), bool)
    cost = distance_int_matrix(gadget.patched_op.backing, order)
    for wlo, cols, cols2 in _columns(cost, distance_int_matrix(gadget.patched_dist, order)):
        if read_reduction is not None:
            read_reduction(wlo, cols)
        for (vm, wm), bits in entries.items():
            if wlo <= wm < wlo + len(cols):
                cols[wm - wlo, vm] = bits
        report.note(np.not_equal(cols, cols2, out=differ), wlo, order, witness_cap)
    report.pairs_checked = 1 << 2 * n
    return report


# ---------------------------------------------------------------------------
# Claim verification


@dataclass
class ClaimsReport:
    fragment_verdict: object
    inclusion: object
    equality: EqualityReport
    reduction: EqualityReport  # None for the abstract gadget
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


def _verify(gadget, properties, sample=None, seed=0, witness_cap=16, loop_k_max=None):
    """The claims common to both gadgets: the modified operator's fragment
    is unrealizable, its entries are inclusive, the patch equals the
    patched minimization, and the modified operator violates the loop
    condition."""
    verdict = solve_table(proof_fragment(gadget))
    inclusion = check_inclusion(gadget.op)
    equality = wheel_equality_sweep(gadget, sample, seed, witness_cap)
    k_max = loop_k_max if loop_k_max is not None else 2 * gadget.m
    loop = find_loop_violation(gadget.op, loop_family_generators(gadget.m), k_max)
    return ClaimsReport(verdict, inclusion, equality, equality.reduction, properties, loop)


def verify_wheel_claims(gadget, sample=None, seed=0, loop_k_max=None):
    """Machine-check the abstract gadget, with the four real-order
    properties of the patched distance.  The sweep is exhaustive up to
    ``EXHAUSTIVE_MAX_POINTS`` points and above draws ``sample`` pairs
    (10^5 by default)."""
    if len(gadget.universe) <= EXHAUSTIVE_MAX_POINTS:
        sample = None
    elif sample is None:
        sample = 10**5
    properties = {f"patched.{prop}": check_property(gadget.patched_dist, prop)
                  for prop in ("symmetric", "ir", "positive", "tir")}
    return _verify(gadget, properties, sample, seed, loop_k_max=loop_k_max)


def check_sandwich(gadget, dist=None, patched=None, witness_cap=16):
    """|h| <= d' <= d <= |h| + 1/2 on every finite-difference pair."""
    dist = dist if dist is not None else gadget.dist
    patched = patched if patched is not None else gadget.patched_dist
    report = PropertyReport("sandwich", True, witness_cap=witness_cap)
    for a in gadget.universe:
        for b in gadget.universe:
            h = F(len(hamming_diff(gadget.points[a], gadget.points[b])))
            d = dist.d(a, b)
            dp = patched.d(a, b)
            if d is INF or dp is INF:
                continue
            if not (h <= dp <= d <= h + F(1, 2)):
                report.record((a, b, h, dp, d))
    return report


def hamming_sweep_bytes(gadget):
    """Bytes that the sweep of ``verify_hamming_claims`` holds at most: the
    wheel-only and near tables, per matrix the row-minimum table and the
    live H columns of ``_columns``, and per block cell the low-part tables
    and block of each matrix, the shared block buffers of ``_columns``, of
    the equality and of the reduction check, and the transients of building
    the low-part tables."""
    n, nx = len(gadget.universe), 2 * gadget.m
    mask = _mask_dtype(n).itemsize
    rank = max(np.min_scalar_type(int(distance_int_matrix(d).max()) + 1).itemsize
               for d in (gadget.dist, gadget.patched_dist))
    t = _block_bits(n)
    per_column = mask + 2 * (rank * n + (rank + mask) * (n - t + 1))
    per_cell = 2 * (rank + 2 * mask) + (2 * mask + 4) + (rank + mask + 1)
    return (mask << 2 * nx) + (per_column << n) + (per_cell << n + t)


def verify_hamming_claims(gadget, witness_cap=16):
    """Machine-check the Hamming gadget, with the in-wheel reduction lemma,
    Hamming-inequality respect, liberal triangle respect and the sandwich
    bound.  The sweep is exhaustive; raises ``BoundExceededError`` before
    it allocates when it would exceed ``HAMMING_MAX_BYTES``."""
    need = hamming_sweep_bytes(gadget)
    if need > HAMMING_MAX_BYTES:
        raise BoundExceededError(
            f"the Hamming sweep over {len(gadget.universe)} points needs about "
            f"{need >> 20} MiB, over the {HAMMING_MAX_BYTES >> 20} MiB cap"
        )
    properties = {
        "hamming_respect": check_hir(gadget.patched_dist, gadget.points, witness_cap),
        "liberal_triangle": check_property(gadget.patched_dist, "liberal_tir", witness_cap),
        "sandwich": check_sandwich(gadget, witness_cap=witness_cap),
    }
    return _verify(gadget, properties, witness_cap=witness_cap)
