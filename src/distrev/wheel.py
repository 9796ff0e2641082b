"""The two cyclic counterexample gadgets and their claim verification.

The abstract wheel lives on 2m labeled points (plus off-wheel extras); the
Hamming wheel realizes the same cycle with matrix valuations over 2m atoms,
guarded by a Hamming-difference threshold.  Both carry a deliberately
modified operator that no pseudo-distance reproduces, together with a
patched operator and patched distance that coincide exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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
    apply,
    apply_rows,
    check_inclusion,
    distance_int_matrix,
    find_loop_violation,
)
from .errors import BoundExceededError, FamilyError, MatrixError
from .logic import CLASSICAL, Valuation, hamming_diff
from .realizability import solve_table

F = Fraction


# ---------------------------------------------------------------------------
# Abstract wheel


@dataclass(frozen=True)
class WheelParams:
    """Cycle size and off-wheel extras; m = n + 3 defeats arity-n tests."""

    m: int
    extras: tuple = ("x1", "x2")

    def __post_init__(self):
        if self.m < 4:
            raise FamilyError("wheel needs m >= 4")

    @classmethod
    def for_arity(cls, n, extras=("x1", "x2")):
        if n < 1:
            raise FamilyError("characterization arity must be at least 1")
        return cls(m=n + 3, extras=tuple(extras))

    def v(self, i):
        return f"v{i}"

    def w(self, i):
        return f"w{i}"

    @property
    def v_labels(self):
        return tuple(self.v(i) for i in range(1, self.m + 1))

    @property
    def w_labels(self):
        return tuple(self.w(i) for i in range(1, self.m + 1))

    @property
    def wheel_labels(self):
        return self.v_labels + self.w_labels

    @property
    def universe(self):
        return self.wheel_labels + self.extras


def _rung_index(label):
    return int(label[1:])


def build_wheel_distance(params):
    """The seven-case cost table of the cycle gadget (real order)."""
    m = params.m
    vs = set(params.v_labels)
    ws = set(params.w_labels)
    wheel = vs | ws

    def cost(a, b):
        if a == b:
            return F(0)
        if a not in wheel or b not in wheel:
            return F(1)
        if (a in vs and b in vs) or (a in ws and b in ws):
            return F(11, 10)
        i, j = _rung_index(a), _rung_index(b)
        if i == j:
            return F(14, 10)
        if abs(i - j) in (1, m - 1):
            return F(2)
        return F(12, 10)

    return PseudoDistance.from_function(params.universe, OrderMode.REAL, cost)


def _rung(i, m):
    """Rung i's doubletons ({v_i, v_j}, {w_i, w_j}) with j = i + 1, or 1
    for the wrap rung i = m."""
    j = i % m + 1
    return frozenset({f"v{i}", f"v{j}"}), frozenset({f"w{i}", f"w{j}"})


def build_modified_operator(dist, params):
    """The wheel distance operator with the wrap rung redirected to a
    single point in each direction."""
    m = params.m
    vv, ww = _rung(m, m)
    entries = {
        (vv, ww): frozenset({params.w(m)}),
        (ww, vv): frozenset({params.v(m)}),
    }
    return OperatorTable(params.universe, entries, backing=dist)


def _rung_fragment(m, universe, lookup):
    """The finite sub-table that already blocks realizability: every rung
    doubleton with its singleton probes, the modified wrap rung included."""
    entries = {}
    for i in range(1, m + 1):
        vv, ww = _rung(i, m)
        for vset in (vv, frozenset({f"v{i}"}), frozenset({f"v{i % m + 1}"})):
            entries[(vset, ww)] = lookup(vset, ww)
    return OperatorTable(universe, entries)


def proof_fragment(op, params):
    return _rung_fragment(params.m, params.universe, op.lookup)


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


def build_patched(op, dist, params, r):
    """The patched operator (rung r redirected) and the patched distance
    (rung costs beyond r lowered so the redirection becomes minimal)."""
    if not 1 <= r <= params.m - 1:
        raise FamilyError("rung index out of range")
    vv, ww = _rung(r, params.m)
    entries = dict(op.entries)
    entries[(vv, ww)] = frozenset({params.w(r + 1)})
    entries[(ww, vv)] = frozenset({params.v(r + 1)})
    patched_op = OperatorTable(params.universe, entries, backing=dist)
    overrides = {}
    for i in range(r + 1, params.m + 1):
        overrides[(params.v(i), params.w(i))] = F(13, 10)
        overrides[(params.w(i), params.v(i))] = F(13, 10)
    patched_dist = dist.replaced(overrides)
    return patched_op, patched_dist


# ---------------------------------------------------------------------------
# Subset sweeps
#
# Costs enter as the distance's compiled integer ranks.  Point k of the
# sweep's order is bit k of a mask, and the minimization's result for every
# (V, W) pair is a bitmask, produced one W column at a time by ``_columns``.

EXHAUSTIVE_MAX_POINTS = 12  # the abstract sweep samples above this
HAMMING_MAX_BYTES = 1 << 30  # the Hamming sweep refuses larger tables


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


def _block_bits(n):
    """t such that a block of 2^t W columns over n points holds about
    ``APPLY_CHUNK_CELLS`` cells."""
    return min(n, max(0, APPLY_CHUNK_CELLS.bit_length() - 1 - n))


def _mask_dtype(n):
    """The narrowest unsigned dtype that holds a mask of n points."""
    return np.min_scalar_type((1 << n) - 1)


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


def wheel_equality_sweep(params, patched_op, patched_dist, sample=None, seed=0,
                         witness_cap=16):
    """Check that the patched operator equals the minimization of the
    patched distance on all subset pairs of the universe (exhaustive up to
    ``EXHAUSTIVE_MAX_POINTS`` points, sampled above)."""
    order = list(params.universe)
    n = len(order)
    report = EqualityReport(0, [], sampled=sample is not None or n > EXHAUSTIVE_MAX_POINTS)
    if not report.sampled:
        index = {lab: i for i, lab in enumerate(order)}
        # the table entries as (V mask, W mask) -> result mask; they
        # override the backing distance's minimization
        entries = {(_mask_of(v, index), _mask_of(w, index)): _mask_of(x, index)
                   for (v, w), x in patched_op.entries.items()}
        cost = distance_int_matrix(patched_op.backing, order)
        for wlo, cols, cols2 in _columns(cost, distance_int_matrix(patched_dist, order)):
            for (vm, wm), bits in entries.items():
                if wlo <= wm < wlo + len(cols):
                    cols[wm - wlo, vm] = bits
            report.note(cols != cols2, wlo, order, witness_cap)
        report.pairs_checked = 1 << 2 * n
        return report
    rng = random.Random(seed)
    report.pairs_checked = sample if sample is not None else 10**5
    pairs = [(rng.randrange(1 << n), rng.randrange(1 << n))
             for _ in range(report.pairs_checked)]
    vrows, wrows = (_mask_rows([pair[side] for pair in pairs], n) for side in (0, 1))
    lhs = patched_op.lookup_rows(vrows, wrows, order)
    rhs = apply_rows(patched_dist, vrows, wrows, order)
    for p in np.flatnonzero((lhs != rhs).any(axis=1))[:witness_cap]:
        vmask, wmask = pairs[p]
        report.mismatches.append((_labels_of(vmask, order), _labels_of(wmask, order)))
    return report


# ---------------------------------------------------------------------------
# Abstract-wheel claim verification


@dataclass(frozen=True)
class WheelGadget:
    params: WheelParams
    dist: PseudoDistance
    op: OperatorTable
    r: int
    patched_op: OperatorTable
    patched_dist: PseudoDistance


def build_wheel_gadget(n=1, m=None, taken_pairs=(), extras=("x1", "x2")):
    params = WheelParams.for_arity(n, extras) if m is None else WheelParams(m, tuple(extras))
    dist = build_wheel_distance(params)
    op = build_modified_operator(dist, params)
    r = find_fresh_rung(list(taken_pairs), params.m)
    patched_op, patched_dist = build_patched(op, dist, params, r)
    return WheelGadget(params, dist, op, r, patched_op, patched_dist)


def loop_family_generators(params):
    """Singletons and adjacent doubletons of the wheel points: the natural
    candidate sets for the loop-violation search."""
    sets = [frozenset({p}) for p in params.wheel_labels]
    for i in range(1, params.m + 1):
        sets.extend(_rung(i, params.m))
    return sets


@dataclass
class WheelClaimsReport:
    fragment_verdict: object
    inclusion: object
    equality: EqualityReport
    properties: dict
    loop: object

    @property
    def passed(self):
        return (
            self.fragment_verdict.status == "unsat"
            and self.inclusion.passed
            and self.equality.passed
            and all(rep.passed for rep in self.properties.values())
            and not self.loop.passed  # a violation must exist
        )


def verify_wheel_claims(gadget, sample=None, seed=0, loop_k_max=None):
    """Machine-check the abstract gadget: the modified operator is
    unrealizable, the patch equals the patched minimization everywhere,
    the patched distance has the four real-order properties, and the
    modified operator violates the loop condition."""
    params = gadget.params
    fragment = proof_fragment(gadget.op, params)
    verdict = solve_table(fragment)
    inclusion = check_inclusion(gadget.op)
    equality = wheel_equality_sweep(
        params, gadget.patched_op, gadget.patched_dist, sample=sample, seed=seed
    )
    properties = {
        prop: check_property(gadget.patched_dist, prop)
        for prop in ("symmetric", "ir", "positive", "tir")
    }
    k_max = loop_k_max if loop_k_max is not None else 2 * params.m
    loop = find_loop_violation(gadget.op, loop_family_generators(params), k_max)
    return WheelClaimsReport(verdict, inclusion, equality, properties, loop)


# ---------------------------------------------------------------------------
# Hamming wheel over matrix valuations


@dataclass(frozen=True)
class HammingWheelGadget:
    m: int
    matrix: object
    signature: tuple
    points: dict  # label -> Valuation
    wheel_labels: tuple
    extra_labels: tuple
    dist: PseudoDistance
    r: int
    patched_dist: PseudoDistance

    @property
    def universe(self):
        return self.wheel_labels + self.extra_labels

    def x_set(self):
        return frozenset(self.wheel_labels)


def _two_values(matrix):
    one = min(matrix.designated)
    rest = [t for t in matrix.values if t not in matrix.designated]
    if not rest:
        raise MatrixError("matrix needs a non-designated value")
    return rest[0], one


def build_hamming_wheel(n=1, m=None, matrix=CLASSICAL, taken_pairs=()):
    """The Hamming cycle gadget: unit valuations on 2m atoms plus three
    off-wheel valuations at Hamming difference 1, 2, and >= 3 from the
    wheel."""
    if m is None:
        m = n + 3
    if m < 4:
        raise FamilyError("wheel needs m >= 4")
    zero, one = _two_values(matrix)
    sig = tuple(f"p{i}" for i in range(1, m + 1)) + tuple(
        f"q{i}" for i in range(1, m + 1)
    )

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
    wheel_labels = tuple(f"v{i}" for i in range(1, m + 1)) + tuple(
        f"w{i}" for i in range(1, m + 1)
    )
    extra_labels = ("e1", "e2", "e3")
    xset = set(wheel_labels)

    def cost(a, b):
        if a == b:
            return F(0)
        if a not in xset or b not in xset:
            h = len(hamming_diff(points[a], points[b]))
            if h == 1:
                return F(14, 10)
            return F(h)
        av, bv = a[0] == "v", b[0] == "v"
        if av == bv:
            return F(21, 10)
        i, j = _rung_index(a), _rung_index(b)
        if i == j:
            return F(24, 10)
        if abs(i - j) in (1, m - 1):
            return F(25, 10)
        return F(22, 10)

    universe = wheel_labels + extra_labels
    dist = PseudoDistance.from_function(universe, OrderMode.LIBERAL, cost)
    r = find_fresh_rung(list(taken_pairs), m)
    overrides = {}
    for i in range(r + 1, m + 1):
        overrides[(f"v{i}", f"w{i}")] = F(23, 10)
        overrides[(f"w{i}", f"v{i}")] = F(23, 10)
    patched = dist.replaced(overrides)
    return HammingWheelGadget(
        m, matrix, sig, points, wheel_labels, extra_labels, dist, r, patched
    )


def _case2_holds(gadget, vset, wset):
    """Some cross pair leaves the wheel at Hamming difference below 3."""
    xset = gadget.x_set()
    for v in vset:
        for w in wset:
            if (v in xset and w in xset):
                continue
            if len(hamming_diff(gadget.points[v], gadget.points[w])) < 3:
                return True
    return False


def hamming_operator(gadget, patched=False, guard=None):
    """The guarded modified operator (and its patched variant) as a
    function on label sets.  ``guard`` overrides the closeness test (used
    by mutation checks)."""
    case2 = guard if guard is not None else _case2_holds
    xset = gadget.x_set()
    m, r = gadget.m, gadget.r
    wrap_v, wrap_w = _rung(m, m)
    rung_v, rung_w = _rung(r, m)

    def op(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        if not case2(gadget, vset, wset):
            vx, wx = vset & xset, wset & xset
            if patched and vx == rung_v and wx == rung_w:
                return frozenset({f"w{r + 1}"})
            if patched and vx == rung_w and wx == rung_v:
                return frozenset({f"v{r + 1}"})
            if vx == wrap_v and wx == wrap_w:
                return frozenset({f"w{m}"})
            if vx == wrap_w and wx == wrap_v:
                return frozenset({f"v{m}"})
        return apply(gadget.dist, vset, wset)

    return op


def hamming_proof_fragment(gadget):
    """Wheel-only sub-table of the guarded operator; same unrealizable core
    as the abstract fragment."""
    return _rung_fragment(gadget.m, gadget.universe, hamming_operator(gadget))


@dataclass
class HammingClaimsReport:
    equality: EqualityReport
    reduction: EqualityReport
    hir: object
    liberal_tir: object
    sandwich: object
    fragment_verdict: object

    @property
    def passed(self):
        return (
            self.equality.passed
            and self.reduction.passed
            and self.hir.passed
            and self.liberal_tir.passed
            and self.sandwich.passed
            and self.fragment_verdict.status == "unsat"
        )


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
    and block of each matrix, the shared block buffers of ``_columns`` and
    of the guard and reduction checks, and the transients of building the
    low-part tables."""
    n, nx = len(gadget.universe), len(gadget.wheel_labels)
    mask = _mask_dtype(n).itemsize
    rank = max(np.min_scalar_type(int(distance_int_matrix(d).max()) + 1).itemsize
               for d in (gadget.dist, gadget.patched_dist))
    t = _block_bits(n)
    per_column = mask + 2 * (rank * n + (rank + mask) * (n - t + 1))
    per_cell = 2 * (rank + 2 * mask) + (2 * mask + 4) + (rank + mask + 1)
    return (mask << 2 * nx) + (per_column << n) + (per_cell << n + t)


def verify_hamming_claims(gadget, witness_cap=16):
    """Machine-check the Hamming gadget claims: the patched operator equals
    the patched minimization on every subset pair of the pool, the in-wheel
    reduction lemma, Hamming-inequality respect, liberal triangle respect,
    the sandwich bound, and unrealizability of the guarded operator's core.

    The wheel labels come first in the universe, so they take the low bits;
    the reduction lemma reads only the wheel-only table of the first
    columns.  Raises ``BoundExceededError`` when that table and the sweep's
    own tables and blocks would exceed ``HAMMING_MAX_BYTES``."""
    need = hamming_sweep_bytes(gadget)
    if need > HAMMING_MAX_BYTES:
        raise BoundExceededError(
            f"the Hamming sweep over {len(gadget.universe)} points needs about "
            f"{need >> 20} MiB, over the {HAMMING_MAX_BYTES >> 20} MiB cap"
        )
    order = list(gadget.universe)
    n, nx = len(order), len(gadget.wheel_labels)
    size, xsize = 1 << n, 1 << nx
    mask_t = _mask_dtype(n)
    index = {lab: i for i, lab in enumerate(order)}
    # near[vmask]: the points that some member of V meets in an off-wheel
    # pair below Hamming difference 3; the guard routes V x W to plain
    # minimization exactly when near & W is non-zero
    near = _subset_table(np.array([
        sum(1 << j for j, b in enumerate(order)
            if max(i, j) >= nx
            and len(hamming_diff(gadget.points[a], gadget.points[b])) < 3)
        for i, a in enumerate(order)
    ], dtype=mask_t), np.bitwise_or, 0)
    # special[W wheel part] = (V wheel part, result bit) of the patched
    # operator's four redirected entries
    special = {}
    for i, out in ((gadget.m, gadget.m), (gadget.r, gadget.r + 1)):
        vv, ww = (_mask_of(s, index) for s in _rung(i, gadget.m))
        special[ww] = (vv, 1 << index[f"w{out}"])
        special[vv] = (ww, 1 << index[f"v{out}"])
    vx_any = np.arange(size) % xsize != 0  # V has wheel points
    wheel_cols = np.empty((xsize, xsize), dtype=mask_t)  # [W, V], wheel-only

    eq = EqualityReport(size * size, [], sampled=False)
    red = EqualityReport(0, [], sampled=False)
    cost = distance_int_matrix(gadget.dist, order)
    cost2 = distance_int_matrix(gadget.patched_dist, order)
    for wlo, cols, cols2 in _columns(cost, cost2):
        if not wlo:  # buffers of the block shape
            guard, case1, scope, differ = (np.empty(cols.shape, dt)
                                           for dt in (mask_t, bool, bool, bool))
        wmasks = np.arange(wlo, wlo + len(cols), dtype=mask_t)
        wx = wmasks % xsize
        if wlo < xsize:
            wheel_cols[wlo:wlo + len(cols)] = cols[:xsize - wlo, :xsize]
        # the guard lets the special entries stand on case-1 pairs
        np.equal(np.bitwise_and(near, wmasks[:, None], out=guard), 0, out=case1)
        # reduction lemma on case-1 pairs with both wheel parts non-empty;
        # row W's V masks, as (V off-wheel part, V wheel part), against the
        # wheel-only row of W's wheel part
        np.logical_and(case1, vx_any, out=scope)
        scope[wx == 0] = False
        red.pairs_checked += int(np.count_nonzero(scope))
        np.not_equal(cols.reshape(len(cols), -1, xsize), wheel_cols[wx][:, None, :],
                     out=differ.reshape(len(cols), -1, xsize))
        red.note(np.logical_and(scope, differ, out=differ), wlo, order, witness_cap)
        for wkey, (vs, bit) in special.items():
            for row in np.flatnonzero(wx == wkey):
                expected = cols[row, vs::xsize]  # the V masks whose wheel part is vs
                expected[case1[row, vs::xsize]] = bit
        eq.note(np.not_equal(cols, cols2, out=differ), wlo, order, witness_cap)

    hir = check_hir(gadget.patched_dist, gadget.points, witness_cap)
    ltir = check_property(gadget.patched_dist, "liberal_tir", witness_cap)
    sandwich = check_sandwich(gadget, witness_cap=witness_cap)
    fragment = hamming_proof_fragment(gadget)
    verdict = solve_table(fragment)
    return HammingClaimsReport(eq, red, hir, ltir, sandwich, verdict)
