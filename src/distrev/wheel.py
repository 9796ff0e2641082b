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
    PseudoDistance,
    check_hir,
    check_property,
)
from .distops import OperatorTable, apply, check_inclusion, find_loop_violation
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


def wrap_pair(params):
    m = params.m
    return (
        frozenset({params.v(m), params.v(1)}),
        frozenset({params.w(m), params.w(1)}),
    )


def rung_pair(params, r):
    return (
        frozenset({params.v(r), params.v(r + 1)}),
        frozenset({params.w(r), params.w(r + 1)}),
    )


def build_modified_operator(dist, params):
    """The wheel distance operator with the wrap rung redirected to a
    single point in each direction."""
    vv, ww = wrap_pair(params)
    m = params.m
    entries = {
        (vv, ww): frozenset({params.w(m)}),
        (ww, vv): frozenset({params.v(m)}),
    }
    return OperatorTable(params.universe, entries, backing=dist)


def proof_fragment(op, params):
    """The finite sub-table that already blocks realizability: every rung
    doubleton with its singleton probes, plus the modified wrap entry."""
    m = params.m
    entries = {}

    def put(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        entries[(vset, wset)] = op.lookup(vset, wset)

    for i in range(1, m):
        put({params.v(i), params.v(i + 1)}, {params.w(i), params.w(i + 1)})
        put({params.v(i)}, {params.w(i), params.w(i + 1)})
        put({params.v(i + 1)}, {params.w(i), params.w(i + 1)})
    put({params.v(m)}, {params.w(m), params.w(1)})
    put({params.v(1)}, {params.w(m), params.w(1)})
    put({params.v(m), params.v(1)}, {params.w(m), params.w(1)})
    return OperatorTable(params.universe, entries)


def find_fresh_rung(pairs, m):
    """Smallest rung index untouched by the given (V, W) pairs; exists by
    pigeonhole when there are at most m - 2 pairs."""
    if len(pairs) > m - 2:
        raise BoundExceededError("too many pairs for a guaranteed fresh rung")
    taken = [frozenset({frozenset(v), frozenset(w)}) for v, w in pairs]
    for r in range(1, m):
        vv = frozenset({f"v{r}", f"v{r + 1}"})
        ww = frozenset({f"w{r}", f"w{r + 1}"})
        if frozenset({vv, ww}) not in taken:
            return r
    raise AssertionError("pigeonhole guarantees a fresh rung")


def build_patched(op, dist, params, r):
    """The patched operator (rung r redirected) and the patched distance
    (rung costs beyond r lowered so the redirection becomes minimal)."""
    if not 1 <= r <= params.m - 1:
        raise FamilyError("rung index out of range")
    vv, ww = rung_pair(params, r)
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
# Vectorized subset sweeps
#
# Costs enter as the distance's compiled integer ranks; the result of the
# minimization for every (V, W) subset pair is computed column-by-column as
# a bitmask over the point order.


def distance_int_matrix(dist, order):
    """The distance's integer rank matrix, reindexed to ``order``; the
    infinite marker ranks above every finite entry."""
    index, ranks = dist.kernel
    rows = [index[p] for p in order]
    return np.array(ranks, dtype=np.int64)[np.ix_(rows, rows)]


_SENTINEL = np.int64(2**62)


def _rowmin_table(cost):
    """rv[mask, j] = min cost from any member of mask to point j."""
    n = cost.shape[0]
    size = 1 << n
    rv = np.full((size, n), _SENTINEL, dtype=np.int64)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rv[mask] = np.minimum(rv[mask ^ low], cost[i])
    return rv


def _apply_column(rv, wmask):
    """Result bitmasks of the minimization for all V against one W."""
    cols = [j for j in range(rv.shape[1]) if wmask >> j & 1]
    if not cols:
        return np.zeros(rv.shape[0], dtype=np.int64)
    sub = rv[:, cols]
    minc = sub.min(axis=1)
    weights = np.array([1 << j for j in cols], dtype=np.int64)
    bits = ((sub == minc[:, None]) * weights).sum(axis=1)
    bits[0] = 0  # empty V
    return bits


def apply_mask_matrix(cost, max_points=12):
    """Full (2^n, 2^n) minimization table as bitmasks; n capped."""
    n = cost.shape[0]
    if n > max_points:
        raise BoundExceededError(f"{n} points exceed the full-sweep cap")
    size = 1 << n
    out = np.zeros((size, size), dtype=np.int64)
    rv = _rowmin_table(cost)
    for wmask in range(1, size):
        out[:, wmask] = _apply_column(rv, wmask)
    return out


def _mask_of(labels, index):
    mask = 0
    for lab in labels:
        mask |= 1 << index[lab]
    return mask


def _labels_of(mask, order):
    return frozenset(order[j] for j in range(len(order)) if mask >> j & 1)


def apply_int_scalar(cost, vmask, wmask):
    """Scalar minimization over masks; reference for sampled sweeps."""
    if vmask == 0 or wmask == 0:
        return 0
    vs = [i for i in range(cost.shape[0]) if vmask >> i & 1]
    ws = [j for j in range(cost.shape[0]) if wmask >> j & 1]
    best = min(int(cost[v, w]) for v in vs for w in ws)
    out = 0
    for w in ws:
        if any(int(cost[v, w]) == best for v in vs):
            out |= 1 << w
    return out


@dataclass
class EqualityReport:
    pairs_checked: int
    mismatches: list
    sampled: bool

    @property
    def passed(self):
        return not self.mismatches


def wheel_equality_sweep(params, patched_op, patched_dist, sample=None, seed=0,
                         witness_cap=16):
    """Check that the patched operator equals the minimization of the
    patched distance on all subset pairs of the universe (exhaustive up to
    12 points, sampled above)."""
    order = list(params.universe)
    index = {lab: i for i, lab in enumerate(order)}
    n = len(order)
    dist = patched_op.backing
    cost = distance_int_matrix(dist, order)
    cost2 = distance_int_matrix(patched_dist, order)
    patches = {
        (_mask_of(v, index), _mask_of(w, index)): _mask_of(x, index)
        for (v, w), x in patched_op.entries.items()
    }
    mismatches = []
    if n <= 12 and sample is None:
        size = 1 << n
        rv = _rowmin_table(cost)
        rv2 = _rowmin_table(cost2)
        by_col = {}
        for (vm, wm), bits in patches.items():
            by_col.setdefault(wm, []).append((vm, bits))
        for wmask in range(size):
            col = _apply_column(rv, wmask)
            col2 = _apply_column(rv2, wmask)
            for vm, bits in by_col.get(wmask, ()):
                col[vm] = bits
            bad = np.nonzero(col != col2)[0]
            for vm in bad[:witness_cap]:
                if len(mismatches) < witness_cap:
                    mismatches.append(
                        (_labels_of(int(vm), order), _labels_of(wmask, order))
                    )
        return EqualityReport(size * size, mismatches, sampled=False)
    rng = random.Random(seed)
    count = sample if sample is not None else 10**5
    for _ in range(count):
        vmask = rng.randrange(1 << n)
        wmask = rng.randrange(1 << n)
        expected = patches.get((vmask, wmask))
        if expected is None:
            expected = apply_int_scalar(cost, vmask, wmask)
        actual = apply_int_scalar(cost2, vmask, wmask)
        if expected != actual:
            if len(mismatches) < witness_cap:
                mismatches.append(
                    (_labels_of(vmask, order), _labels_of(wmask, order))
                )
    return EqualityReport(count, mismatches, sampled=True)


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
    m = params.m
    sets = [frozenset({p}) for p in params.wheel_labels]
    for i in range(1, m):
        sets.append(frozenset({params.v(i), params.v(i + 1)}))
        sets.append(frozenset({params.w(i), params.w(i + 1)}))
    sets.append(frozenset({params.v(m), params.v(1)}))
    sets.append(frozenset({params.w(m), params.w(1)}))
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
    wrap_v = frozenset({f"v{m}", "v1"})
    wrap_w = frozenset({f"w{m}", "w1"})
    rung_v = frozenset({f"v{r}", f"v{r + 1}"})
    rung_w = frozenset({f"w{r}", f"w{r + 1}"})

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
    m = gadget.m
    op = hamming_operator(gadget)
    entries = {}

    def put(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        entries[(vset, wset)] = op(vset, wset)

    for i in range(1, m):
        put({f"v{i}", f"v{i + 1}"}, {f"w{i}", f"w{i + 1}"})
        put({f"v{i}"}, {f"w{i}", f"w{i + 1}"})
        put({f"v{i + 1}"}, {f"w{i}", f"w{i + 1}"})
    put({f"v{m}"}, {f"w{m}", "w1"})
    put({"v1"}, {f"w{m}", "w1"})
    put({f"v{m}", "v1"}, {f"w{m}", "w1"})
    return OperatorTable(gadget.universe, entries)


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
    from .costs import PropertyReport

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


def verify_hamming_claims(gadget, witness_cap=16):
    """Machine-check the Hamming gadget claims: the patched operator equals
    the patched minimization on every subset pair of the pool, the in-wheel
    reduction lemma, Hamming-inequality respect, liberal triangle respect,
    the sandwich bound, and unrealizability of the guarded operator's core."""
    order = list(gadget.universe)
    index = {lab: i for i, lab in enumerate(order)}
    n = len(order)
    xmask = _mask_of(gadget.wheel_labels, index)
    cost = distance_int_matrix(gadget.dist, order)
    cost2 = distance_int_matrix(gadget.patched_dist, order)
    hmat = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            hmat[i, j] = len(hamming_diff(gadget.points[a], gadget.points[b]))
    in_x = np.array([(1 << i) & xmask != 0 for i in range(n)])
    bad = (~(in_x[:, None] & in_x[None, :])) & (hmat < 3)

    size = 1 << n
    rv = _rowmin_table(cost)
    rv2 = _rowmin_table(cost2)
    # badrow[mask, j]: some member of mask forms a below-threshold off-wheel
    # pair with point j
    badrow = np.zeros((size, n), dtype=bool)
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        badrow[mask] = badrow[mask ^ low] | bad[i]

    m, r = gadget.m, gadget.r
    wrap_v = _mask_of({f"v{m}", "v1"}, index)
    wrap_w = _mask_of({f"w{m}", "w1"}, index)
    rung_v = _mask_of({f"v{r}", f"v{r + 1}"}, index)
    rung_w = _mask_of({f"w{r}", f"w{r + 1}"}, index)
    bit = {lab: np.int64(1 << index[lab]) for lab in order}
    vmasks = np.arange(size, dtype=np.int64)
    vx = vmasks & xmask

    eq = EqualityReport(0, [], sampled=False)
    red = EqualityReport(0, [], sampled=False)
    apply_d = np.zeros((size, size), dtype=np.int64)
    for wmask in range(size):
        apply_d[:, wmask] = _apply_column(rv, wmask)
    for wmask in range(size):
        col_d = apply_d[:, wmask]
        col_d2 = _apply_column(rv2, wmask)
        wcols = [j for j in range(n) if wmask >> j & 1]
        case2 = badrow[:, wcols].any(axis=1) if wcols else np.zeros(size, dtype=bool)
        case1 = ~case2
        wx = wmask & xmask
        # patched guarded operator column
        col_op = col_d.copy()
        if wx == wrap_w:
            col_op[case1 & (vx == wrap_v)] = bit[f"w{m}"]
        if wx == wrap_v:
            col_op[case1 & (vx == wrap_w)] = bit[f"v{m}"]
        if wx == rung_w:
            col_op[case1 & (vx == rung_v)] = bit[f"w{r + 1}"]
        if wx == rung_v:
            col_op[case1 & (vx == rung_w)] = bit[f"v{r + 1}"]
        mismatch = np.nonzero(col_op != col_d2)[0]
        eq.pairs_checked += size
        for vm in mismatch:
            if len(eq.mismatches) < witness_cap:
                eq.mismatches.append(
                    (_labels_of(int(vm), order), _labels_of(wmask, order))
                )
            else:
                break
        # reduction lemma on guarded pairs with both wheel parts non-empty
        scope = case1 & (vx != 0)
        if wx != 0:
            target = apply_d[vx[scope], wx]
            bad_red = np.nonzero(col_d[scope] != target)[0]
            red.pairs_checked += int(scope.sum())
            src = np.nonzero(scope)[0]
            for k in bad_red:
                if len(red.mismatches) < witness_cap:
                    vm = int(src[k])
                    red.mismatches.append(
                        (_labels_of(vm, order), _labels_of(wmask, order))
                    )

    hir = check_hir(gadget.patched_dist, gadget.points, witness_cap)
    ltir = check_property(gadget.patched_dist, "liberal_tir", witness_cap)
    sandwich = check_sandwich(gadget, witness_cap=witness_cap)
    fragment = hamming_proof_fragment(gadget)
    verdict = solve_table(fragment)
    return HammingClaimsReport(eq, red, hir, ltir, sandwich, verdict)
