import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from distrev import distops, wheel
from distrev.costs import INF, OrderMode, PseudoDistance, check_hir, check_property
from distrev.distops import (
    OperatorTable,
    apply,
    check_inclusion,
    distance_int_matrix,
    find_loop_violation,
    least_rank_rows,
    recheck_chain,
)
from distrev.errors import (
    BoundExceededError,
    FamilyError,
    UndefinedPairError,
    UnknownAtomError,
)
from distrev.logic import hamming_diff
from distrev.realizability import _tag, solve_table, verify_witness
from distrev.wheel import (
    _disordered,
    _labels_of,
    _least_members,
    _mask_dtype,
    _redirected,
    build_hamming_wheel,
    build_wheel_gadget,
    check_sandwich,
    find_fresh_rung,
    loop_family_generators,
    proof_fragment,
    sweep_bytes,
    verify_hamming_claims,
    verify_wheel_claims,
    wheel_equality_sweep,
)

F = Fraction


def test_params_validation():
    for build in (build_wheel_gadget, build_hamming_wheel):
        with pytest.raises(FamilyError):
            build(m=3)
        with pytest.raises(FamilyError):
            build(n=0)
        g = build(n=1)
        assert g.m == 4
        assert g.universe[:8] == ("v1", "v2", "v3", "v4", "w1", "w2", "w3", "w4")
    assert build_wheel_gadget(n=1).universe[8:] == ("x1", "x2")


def test_wheel_distance_cases():
    d = build_wheel_gadget(m=4).dist
    assert d.d("v1", "v1") == F(0)
    assert d.d("v1", "x1") == F(1)  # off the wheel
    assert d.d("v1", "v3") == F(11, 10)  # same side
    assert d.d("v2", "w2") == F(14, 10)  # rung
    assert d.d("v1", "w2") == F(2)  # adjacent
    assert d.d("v4", "w1") == F(2)  # wrap-adjacent
    assert d.d("v1", "w3") == F(12, 10)  # chord
    assert check_property(d, "symmetric").passed
    assert check_property(d, "ir").passed
    assert check_property(d, "positive").passed
    assert check_property(d, "tir").passed


def test_modified_operator_entries():
    op = build_wheel_gadget(m=4).op
    # every off-wheel pair is near, so only the wrap rung's two pairs remain
    assert len(op.entries) == 2
    assert op.lookup({"v4", "v1"}, {"w4", "w1"}) == {"w4"}
    assert op.lookup({"w4", "w1"}, {"v4", "v1"}) == {"v4"}
    # away from the wrap rung the operator is plain minimization
    assert op.lookup({"v1", "v2"}, {"w1", "w2"}) == {"w1", "w2"}
    assert op.lookup({"v1"}, {"w1", "w2"}) == {"w1"}


def _core_keys(m):
    """Each rung's doubleton with its probe of v_{i+1}; the wrap rung's
    probe is of v1."""
    keys = []
    for i in range(1, m + 1):
        vv, ww = wheel._rung(i, m)
        keys += [(vv, ww), (frozenset({f"v{i % m + 1}"}), ww)]
    return keys


def test_fragment_is_unrealizable_for_all_small_m():
    # propagation at the root refutes every fragment, and the conflict names
    # the whole fragment, the 2m-entry core; removing any core entry leaves
    # a realizable table
    gadgets = [build_wheel_gadget(m=m) for m in range(4, 13)]
    gadgets += [build_hamming_wheel(m=m) for m in (4, 5, 6)]
    for gadget in gadgets:
        fragment = proof_fragment(gadget)
        verdict = solve_table(fragment)
        assert (verdict.status, verdict.nodes) == ("unsat", 1), gadget.m
        assert len(fragment.entries) == 2 * gadget.m
        keys = _core_keys(gadget.m)
        assert verdict.conflict == sorted(_tag(sorted(v), sorted(w)) for v, w in keys)
        for dropped in keys:
            rest = OperatorTable(gadget.universe, {
                key: fragment.entries[key] for key in keys if key != dropped})
            verdict = solve_table(rest)
            assert verdict.status == "sat", (gadget.m, dropped)
            assert verify_witness(verdict.witness, rest)


def test_unmodified_operator_fragment_is_sat():
    gadget = build_wheel_gadget(m=4)
    d = gadget.dist
    fragment = proof_fragment(gadget)
    # undo the modification: replace the wrap entry by the true minimization
    entries = dict(fragment.entries)
    vv = frozenset({"v4", "v1"})
    ww = frozenset({"w4", "w1"})
    entries[(vv, ww)] = apply(d, vv, ww)
    verdict = solve_table(OperatorTable(gadget.universe, entries))
    assert verdict.status == "sat"


def test_fresh_rung_pigeonhole():
    assert find_fresh_rung([], 4) == 1
    pair1 = ({"v1", "v2"}, {"w1", "w2"})
    assert find_fresh_rung([pair1], 4) == 2
    # order inside a pair is irrelevant
    assert find_fresh_rung([({"w1", "w2"}, {"v1", "v2"})], 4) == 2
    with pytest.raises(BoundExceededError):
        find_fresh_rung([pair1, pair1, pair1], 4)


def test_patched_distance_costs():
    gadget = build_wheel_gadget(n=1)
    patched_op, dp = gadget.patch(1)
    assert dp.d("v1", "w1") == F(14, 10)  # rung r keeps its cost
    for i in (2, 3, 4):
        assert dp.d(f"v{i}", f"w{i}") == F(13, 10)
        assert dp.d(f"w{i}", f"v{i}") == F(13, 10)
    assert patched_op.lookup({"v1", "v2"}, {"w1", "w2"}) == {"w2"}
    assert patched_op.lookup({"w1", "w2"}, {"v1", "v2"}) == {"v2"}
    assert patched_op.backing is gadget.dist
    for r in (0, 4):  # the wrap rung is patched with every rung, never alone
        with pytest.raises(UnknownAtomError):
            gadget.patch(r)


def _dense_columns(ranks, wmasks):
    # {W mask: [V mask] -> the tie bits of V against W} for each W of
    # ``wmasks``, by brute force over the rank matrix: V's least rank in
    # each column through one (V, v, w) broadcast that folds nothing over
    # subsets, then per W the columns of W that tie with the least
    n = len(ranks)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1  # [mask, point]
    top = int(ranks.max()) + 1
    vmin = np.broadcast_to(ranks, (1 << n, n, n)).min(axis=1, where=bits[:, :, None],
                                                      initial=top)
    out = {}
    for wmask in wmasks:
        col = np.where(bits[wmask], vmin, top)
        best = col.min(axis=1, keepdims=True)
        out[wmask] = ((col == best) & (best < top)) @ (1 << np.arange(n))
    return out


def _assert_rows_match_dense(order, dist, seed):
    # every V of 300 seeded random W columns, read off the sweep's fold of
    # each V row over the W bits, against the dense minimization; that in
    # turn against the set-level apply (itself checked against a Fraction
    # minimizer in test_kernels.py) on 20 of the columns
    n = len(order)
    sets = [_labels_of(mask, order) for mask in range(1 << n)]
    index = {lab: i for i, lab in enumerate(order)}
    wanted = random.Random(seed).sample(range(1 << n), 300)
    dense = _dense_columns(distance_int_matrix(dist, order), wanted)
    for wmask in wanted[:20]:
        for vmask, bits in enumerate(dense[wmask].tolist()):
            got = apply(dist, sets[vmask], sets[wmask])
            assert bits == sum(1 << index[lab] for lab in got), (sets[vmask], sets[wmask])
    rows = _least_members(least_rank_rows(dist, np.arange(1 << n), order), _mask_dtype(n))
    rows[0] = 0  # the fold keeps all of W for the empty V; the sweep clears it
    for wmask in wanted:
        differ = np.flatnonzero(rows[:, wmask] != dense[wmask])
        assert not len(differ), (sets[differ[0]], sets[wmask])


def test_sweep_columns_match_apply():
    gadget = build_wheel_gadget(n=1)
    _assert_rows_match_dense(list(gadget.universe), gadget.patch(1)[1], seed=0)
    g = build_hamming_wheel(n=1)
    assert g.dist.mode is OrderMode.LIBERAL
    _assert_rows_match_dense(list(g.universe), g.dist, seed=1)


def _disordered_pairwise(a, b):
    # a row is disordered iff some pair (i, j) compares differently in a and b
    def signs(r):
        r = r.astype(np.int64)
        return np.sign(r[:, :, None] - r[:, None, :])

    return (signs(a) != signs(b)).any(axis=(1, 2))


@pytest.mark.parametrize("types", [("u1", "u1"), ("u1", "u2"), ("u2", "u2")])
def test_disordered_matches_pairwise_reference(types):
    # seeded rank rows over 0 to 16 columns, drawn from five levels that
    # set the low, the middle and the top bits of each dtype, so ties
    # abound and every bit of the packed key counts; b is an
    # order-preserving copy of a with some cells redrawn, or drawn on its
    # own; then an all-equal row, a reversed row and a row with one tie
    # broken
    rng = np.random.default_rng(27)
    ta, tb = (np.dtype(t) for t in types)
    la, lb = (np.array([0, 1, 1 << 4 * t.itemsize, np.iinfo(t).max - 1, np.iinfo(t).max], t)
              for t in (ta, tb))
    for n in range(17):
        a = la[rng.integers(0, 5, (300, n))]
        b = lb[np.searchsorted(la, a)]
        redraw = rng.random((300, n)) < 0.1
        b[redraw] = lb[rng.integers(0, 5, redraw.sum())]
        b[::3] = lb[rng.integers(0, 5, (100, n))]
        flags = _disordered(a, b)
        assert flags.dtype == bool and flags.shape == (300,)
        assert (flags == _disordered_pairwise(a, b)).all(), n
        if n >= 2:
            assert flags.any() and not flags.all()
        rising = np.arange(n)
        tied = rising // 2 * 2  # (0, 0, 2, 2, ...): the first tie broken below
        broken = tied.copy()
        broken[1:2] += 1
        special = [(np.zeros(n), np.zeros(n), False), (rising, rising[::-1], n >= 2),
                   (tied, broken, n >= 2)]
        for x, y, expected in special:
            row = _disordered(x[None].astype(ta), y[None].astype(tb))
            assert row.tolist() == [expected] == _disordered_pairwise(x[None], y[None]).tolist()


def _random_distance(rng, order, liberal, far=()):
    # seeded costs: sevenths from 0 to 6 under the real order, or four
    # values with inf under the liberal order, so that ties abound; a
    # finite pair with a point of ``far`` costs 100 more
    def cost(a, b):
        c = rng.choice((F(0), F(1), F(2), INF)) if liberal else F(rng.randrange(43), 7)
        return c + 100 if c is not INF and (a in far or b in far) else c

    return PseudoDistance.from_function(
        order, OrderMode.LIBERAL if liberal else OrderMode.REAL, cost)


def _direct_sweeps(a, b, entries, near, nx):
    # both sweeps by direct enumeration of every (W, V) cell of the dense
    # columns a (the backing, with ``entries`` over it) and b: the
    # equality's mismatching (V, W) masks, V ascending then W, the
    # reduction's scope count and its mismatching masks
    size, xmask = len(a), (1 << nx) - 1
    near_of = [0] * size  # the points that some member of V is near
    for v in range(1, size):
        low = v & -v
        near_of[v] = near_of[v ^ low] | near[low.bit_length() - 1]
    vm, near_of = np.arange(size), np.array(near_of)
    equal, reduction, pairs = [], [], 0
    for wm in range(size):
        col = a[wm].copy()
        for (v, w), x in entries.items():
            if w == wm:
                col[v] = x
        equal += [(v, wm) for v in np.flatnonzero(col != b[wm]).tolist()]
        scope = ((vm & xmask) != 0) & ((near_of & wm) == 0) & ((wm & xmask) != 0)
        pairs += int(scope.sum())
        differ = a[wm] != a[wm & xmask][vm & xmask]
        reduction += [(v, wm) for v in np.flatnonzero(scope & differ).tolist()]
    return sorted(equal), pairs, sorted(reduction)


@pytest.mark.parametrize("seed", range(12))
def test_sweeps_match_direct_enumeration(seed, monkeypatch):
    # seeded random distances on 6 to 8 points, real or liberal, the second
    # an order-preserving copy of the first with 0 to 2 cells redrawn;
    # random table entries, half of them the true minimization, the first
    # for the empty V; a random wheel part and random near sets of 1 to 3
    # points.  The V rows that each sweep folds, its verdict, its witnesses
    # capped and uncapped and the reduction's scope count all equal a
    # direct (W, V) enumeration, with the V rows read off one part table
    # and, at 64 cells, off two or three.
    rng = random.Random(seed)
    n, nx = 6 + seed % 3, rng.randint(1, 5)
    order = [f"p{i}" for i in range(n)]
    d1 = _random_distance(rng, order, seed % 2 == 1, far=order[nx:] if seed % 4 >= 2 else ())
    table = {k: c if c is INF else 2 * c + 1 for k, c in d1.table.items()}
    values = list(table.values())
    for k in rng.sample(sorted(table), rng.randrange(3)):
        table[k] = rng.choice(values)
    d2 = PseudoDistance(tuple(order), d1.mode, table)
    size = 1 << n
    a, b = (_dense_columns(distance_int_matrix(d, order), range(size)) for d in (d1, d2))
    entries = {}
    for k in range(rng.randrange(5)):
        v, w = rng.randrange(size) if k else 0, rng.randrange(size)  # the first for empty V
        entries[v, w] = int(a[w][v]) if rng.random() < 0.5 else w & rng.randrange(size)
    near = np.array([sum(1 << j for j in rng.sample(range(n), rng.randint(1, 3)))
                     for _ in range(n)], dtype=_mask_dtype(n))
    equal, pairs, reduction = _direct_sweeps(a, b, entries, near, nx)
    # the V rows with a mismatch or an entry, which the sweeps must fold
    # into full W rows, and no other
    flagged = [sorted({v for v, _ in equal} | {v for v, _ in entries}),
               sorted({v for v, _ in reduction})]
    folded, real = [], wheel._witnesses

    def spy(vmasks, *rest):
        folded.append(vmasks.tolist())
        return real(vmasks, *rest)

    def labels(found):
        return [(_labels_of(v, order), _labels_of(w, order)) for v, w in found]

    monkeypatch.setattr(wheel, "_witnesses", spy)
    op = OperatorTable(order, {(_labels_of(v, order), _labels_of(w, order)): _labels_of(x, order)
                               for (v, w), x in entries.items()}, backing=d1)
    for cells, cap in itertools.product((distops.APPLY_CHUNK_CELLS, 64), (5, 1 << 30)):
        monkeypatch.setattr(distops, "APPLY_CHUNK_CELLS", cells)
        folded.clear()
        report = wheel_equality_sweep(op, d2, witness_cap=cap)
        red = wheel._reduction_sweep(d1, near, nx, order, cap)
        assert (len(distops._rank_parts(d1, order)[2]) > 1) == (cells == 64)
        assert folded == flagged
        assert (report.pairs_checked, report.passed) == (size * size, not equal)
        assert report.mismatches == labels(equal[:cap])
        assert (red.pairs_checked, red.passed) == (pairs, not reduction)
        assert red.mismatches == labels(reduction[:cap])


def test_full_claims_m4():
    gadget = build_wheel_gadget(n=1)
    report = verify_wheel_claims(gadget)
    assert report.fragment_verdict.status == "unsat"
    assert report.inclusion.passed
    assert report.equality.passed
    assert report.equality.pairs_checked == (1 << 10) ** 2
    assert all(r.passed for r in report.properties.values())
    assert not report.loop.passed
    assert report.loop.k <= 8
    assert report.passed


def test_loop_chain_is_independently_checkable():
    gadget = build_wheel_gadget(n=1)
    report = verify_wheel_claims(gadget)
    assert recheck_chain(gadget.op, report.loop.chain)


LOOP_GADGETS = [("abstract", m) for m in range(4, 9)] + [("hamming", m) for m in range(4, 7)]


@pytest.mark.parametrize("variant, m", LOOP_GADGETS)
def test_loop_walk_to_its_fixpoint_decides_both_sides(variant, m):
    # the modified operator's least violation has k = 2m - 1 over the
    # generators, with no cut-off; each rung's patched distance passes for
    # every k, its walk running dry at depth 2m + 3 - 2 min(r, m - r)
    gadget = (build_wheel_gadget if variant == "abstract" else build_hamming_wheel)(m=m)
    sets = loop_family_generators(m)
    verdict = find_loop_violation(gadget.op, sets)
    assert (verdict.passed, verdict.k, verdict.fixpoint) == (False, 2 * m - 1, None)
    assert recheck_chain(gadget.op, verdict.chain)
    for r in range(1, m):
        patched = OperatorTable(gadget.universe, backing=gadget.patch(r)[1])
        verdict = find_loop_violation(patched, sets)
        depth = 2 * m + 3 - 2 * min(r, m - r)
        assert (verdict.passed, verdict.k, verdict.fixpoint) == (True, depth, depth), r


def test_loop_walk_memory_stays_within_chunks():
    # m = 10: 40 candidate sets, 2.56M (start, state) cells.  One float32
    # layer of the unchunked walk alone is 10 MiB, so an 8 MiB bound fails
    # it; the walk in blocks of starts peaks near 3 MiB.
    gadget = build_wheel_gadget(m=10)
    sets = loop_family_generators(gadget.m)
    assert len(sets) == 40
    tracemalloc.start()
    try:
        verdict = find_loop_violation(gadget.op, sets, 2 * gadget.m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.passed and verdict.k == 19
    assert recheck_chain(gadget.op, verdict.chain)
    assert peak < 8 << 20


def test_no_k1_loop_violation_over_every_set():
    # the pigeonhole bound where it can be exhaustive: a loop with k = 1 is
    # a condition over two (V, W) pairs, and m = 4 admits none violated over
    # all 1,023 non-empty sets of the 10 points.  The k = 1 walk reads
    # premise(a, b, a) for each of the 1,023^2 starts.
    gadget = build_wheel_gadget(n=1)
    sets = [frozenset(c) for r in range(1, 11)
            for c in itertools.combinations(gadget.universe, r)]
    tracemalloc.start()
    try:
        verdict = find_loop_violation(gadget.op, sets, k_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.passed
    assert verdict.states == 1023 ** 2
    assert peak < 128 << 20


# The mismatches of the m=4 mutation checks below as {W mask: V masks},
# over each gadget's universe order: frozen from the blocked W-column sweep
# that the row-wise sweep replaced.
ABSTRACT_RUNG3 = {
    6: (64, 96), 12: (64, 192), 14: (64,), 96: (4, 6), 192: (4, 12), 224: (4,),
}
HAMMING_RUNG3 = {
    6: (64, 96, 1088, 1120), 12: (64, 192, 1088, 1216), 14: (64, 1088),
    96: (4, 6, 516, 518, 1028, 1030, 1540, 1542),
    192: (4, 12, 516, 524, 1028, 1036, 1540, 1548), 224: (4, 516, 1028, 1540),
    518: (64, 96, 1088, 1120), 524: (64, 192, 1088, 1216), 526: (64, 1088),
    1030: (64, 96), 1036: (64, 192), 1038: (64,), 1120: (4, 6, 516, 518),
    1216: (4, 12, 516, 524), 1248: (4, 516), 1542: (64, 96), 1548: (64, 192),
    1550: (64,),
}
UNGUARDED = {
    3: (304, 560, 816, 1328, 1584, 1840), 9: (400, 656, 912, 1424, 1680, 1936),
    48: (259, 771, 1283, 1795), 144: (265, 777, 1289, 1801),
    259: (48, 304, 560, 816, 1072, 1328, 1584, 1840),
    265: (144, 400, 656, 912, 1168, 1424, 1680, 1936),
    304: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    400: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
    515: (304, 560, 816, 1328, 1584, 1840), 521: (400, 656, 912, 1424, 1680, 1936),
    560: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    656: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
    771: (48, 304, 560, 816, 1072, 1328, 1584, 1840),
    777: (144, 400, 656, 912, 1168, 1424, 1680, 1936),
    816: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    912: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
    1027: (304, 560, 816, 1072, 1328, 1584, 1840),
    1033: (400, 656, 912, 1168, 1424, 1680, 1936),
    1072: (259, 771, 1027, 1283, 1539, 1795), 1168: (265, 777, 1033, 1289, 1545, 1801),
    1283: (48, 304, 560, 816, 1072, 1328, 1584, 1840),
    1289: (144, 400, 656, 912, 1168, 1424, 1680, 1936),
    1328: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    1424: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
    1539: (304, 560, 816, 1072, 1328, 1584, 1840),
    1545: (400, 656, 912, 1168, 1424, 1680, 1936),
    1584: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    1680: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
    1795: (48, 304, 560, 816, 1072, 1328, 1584, 1840),
    1801: (144, 400, 656, 912, 1168, 1424, 1680, 1936),
    1840: (3, 259, 515, 771, 1027, 1283, 1539, 1795),
    1936: (9, 265, 521, 777, 1033, 1289, 1545, 1801),
}


def _frozen(by_w, order, cap=None):
    # the (V, W) label pairs of a frozen mismatch list, in the sweep's
    # order: V ascending, then W
    return [(_labels_of(v, order), _labels_of(w, order))
            for v, w in sorted((v, w) for w, vs in by_w.items() for v in vs)][:cap]


def test_corrupted_patched_rung_breaks_equality():
    # mutation check: nudging one patched rung cost off its value makes the
    # exhaustive operator-equality sweep fail, on the frozen pairs
    gadget = build_wheel_gadget(n=1)
    patched_op, patched_dist = gadget.patch(1)
    corrupted = patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    report = wheel_equality_sweep(patched_op, corrupted)
    assert not report.passed
    assert report.mismatches == _frozen(ABSTRACT_RUNG3, gadget.universe)


def test_claims_fail_on_equality_alone(monkeypatch):
    # a patch whose operator sends rung 1 to the wrong point: the patched
    # distance keeps every property, so only the equality sweep can fail
    # the claims check
    gadget = build_wheel_gadget(n=1)
    patch = wheel.Gadget.patch
    key = (frozenset({"v1", "v2"}), frozenset({"w1", "w2"}))

    def misrouted(g, r):
        patched_op, patched_dist = patch(g, r)
        entries = {**patched_op.entries, key: frozenset({"w1"})}
        return OperatorTable(g.universe, entries, backing=g.dist), patched_dist

    monkeypatch.setattr(wheel.Gadget, "patch", misrouted)
    report = verify_wheel_claims(gadget)
    assert report.equality.mismatches == [key]
    assert all(rep.passed for rep in report.properties.values())
    assert report.fragment_verdict.status == "unsat" and report.inclusion.passed
    assert not report.loop.passed
    assert not report.passed


def _corrupt_rung3(dist):
    return dist.replaced({("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)})


def _sweep_reports(monkeypatch, cells):
    # the equality reports of both gadgets at m=4, each with a corrupted
    # patched rung, and the Hamming gadget's reduction report, when a block
    # holds about ``cells`` cells
    monkeypatch.setattr(wheel, "APPLY_CHUNK_CELLS", cells)
    gadget = build_wheel_gadget(n=1)
    g = build_hamming_wheel(n=1)
    reduction = verify_hamming_claims(g).reduction
    reports = []
    for cap in (16, 1 << 30):
        for table, dist in (gadget.patch(1), g.patch(1)):
            reports.append(wheel_equality_sweep(table, _corrupt_rung3(dist), witness_cap=cap))
        reports.append(reduction)
    return [(r.pairs_checked, r.mismatches) for r in reports]


def test_sweep_block_size_does_not_change_reports(monkeypatch):
    # one V row per chunk, then every flagged row of the table in one chunk
    # (11 points at most), against the default chunk size and the frozen
    # lists: the same pair counts and the same mismatches in the same order,
    # capped and uncapped
    abstract, hamming = build_wheel_gadget(n=1).universe, build_hamming_wheel(n=1).universe
    expected = []
    for cap in (16, None):
        expected += [(1 << 20, _frozen(ABSTRACT_RUNG3, abstract, cap)),
                     (1 << 22, _frozen(HAMMING_RUNG3, hamming, cap)), (242_505, [])]
    assert len(expected[4][1]) > 16  # the cap of 16 cuts the Hamming list
    assert _sweep_reports(monkeypatch, wheel.APPLY_CHUNK_CELLS) == expected
    assert _sweep_reports(monkeypatch, 1) == expected
    assert _sweep_reports(monkeypatch, 1 << 22) == expected


def test_exhaustive_sweep_passes_m6():
    gadget = build_wheel_gadget(n=3)
    assert len(gadget.universe) == 14
    report = wheel_equality_sweep(*gadget.patch(1))
    assert report.pairs_checked == 1 << 28
    assert report.passed


def test_exhaustive_sweep_catches_corrupted_rung_m6():
    patched_op, patched_dist = build_wheel_gadget(n=3).patch(1)
    corrupted = _corrupt_rung3_below_all(patched_dist)
    report = wheel_equality_sweep(patched_op, corrupted)
    # the first 16 of many pairs, each a true mismatch
    assert len(report.mismatches) == 16
    assert all(patched_op.lookup(v, w) != apply(corrupted, v, w) for v, w in report.mismatches)


def _corrupt_rung3_below_all(dist):
    # rung 3 made cheaper than every other cost between distinct points:
    # about half of all V masks fail the order check
    return dist.replaced({("v3", "w3"): F(1, 2), ("w3", "v3"): F(1, 2)})


def test_failing_sweep_stops_at_its_witness_cap(monkeypatch):
    # m=7: 16 points, so a chunk holds 4 flagged V's, whose W rows already
    # hold 16 mismatches; folding every flagged V took about 30 s
    patched_op, patched_dist = build_wheel_gadget(m=7).patch(1)
    corrupted = _corrupt_rung3_below_all(patched_dist)
    chunks, real = [], wheel._witnesses

    def spy(vmasks, order, cap, differ):
        def counted(vm):
            chunks.append(len(vm))
            return differ(vm)
        return real(vmasks, order, cap, counted)

    monkeypatch.setattr(wheel, "_witnesses", spy)
    report = wheel_equality_sweep(patched_op, corrupted)
    assert chunks == [wheel.APPLY_CHUNK_CELLS >> 16]
    assert len(report.mismatches) == 16
    assert all(patched_op.lookup(v, w) != apply(corrupted, v, w) for v, w in report.mismatches)


def test_capped_mismatches_head_the_uncapped_list():
    # m=5: the uncapped list holds 116,036 pairs, the capped one its first 16
    patched_op, patched_dist = build_wheel_gadget(m=5).patch(1)
    corrupted = _corrupt_rung3_below_all(patched_dist)
    listed = wheel_equality_sweep(patched_op, corrupted, witness_cap=1 << 30).mismatches
    assert len(listed) == 116_036
    assert wheel_equality_sweep(patched_op, corrupted).mismatches == listed[:16]


def test_exhaustive_sweep_catches_corrupted_entry_m6():
    # a wrong table entry at one seeded pair
    gadget = build_wheel_gadget(n=3)
    patched_op, patched_dist = gadget.patch(1)
    order = list(gadget.universe)
    rng = random.Random(0)
    vset, wset = (_labels_of(rng.randrange(1 << len(order)), order) for _ in "vw")
    entries = dict(patched_op.entries)
    entries[vset, wset] = apply(patched_dist, vset, wset) ^ {"x1"}
    corrupted = OperatorTable(order, entries, backing=patched_op.backing)
    assert wheel_equality_sweep(corrupted, patched_dist).mismatches == [(vset, wset)]


@pytest.mark.parametrize("entry", range(4))
def test_exhaustive_sweep_lists_each_widened_patch_entry_m6(entry):
    # the abstract m = 6 patch has 4 entries, the two rungs it redirects
    # and their mirrors; widening one result by a point of W outside it is
    # a mismatch on that entry alone
    patched_op, patched_dist = build_wheel_gadget(n=3).patch(1)
    assert len(patched_op.entries) == 4
    (vset, wset), result = sorted(patched_op.entries.items(), key=repr)[entry]
    entries = dict(patched_op.entries)
    entries[vset, wset] = result | {min(wset - result)}
    corrupted = OperatorTable(patched_op.universe, entries, backing=patched_op.backing)
    assert wheel_equality_sweep(corrupted, patched_dist).mismatches == [(vset, wset)]


def test_the_rung_after_a_taken_one_patches():
    # a taken rung 1 leaves rung 2 fresh, and rung 2's patch equals its
    # patched minimization with the real-order properties intact
    assert find_fresh_rung([({"v1", "v2"}, {"w1", "w2"})], 4) == 2
    patched_op, patched_dist = build_wheel_gadget(n=1).patch(2)
    assert patched_op.lookup({"v2", "v3"}, {"w2", "w3"}) == {"w3"}
    assert wheel_equality_sweep(patched_op, patched_dist).passed
    for prop in ("symmetric", "ir", "positive", "tir"):
        assert check_property(patched_dist, prop).passed, prop


def _redirected_count(g, patched_op):
    """The table entries on which the modified and patched operators differ."""
    keys = g.op.entries.keys() | patched_op.entries.keys()
    return sum(g.op.entries.get(key) != patched_op.entries.get(key) for key in keys)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_every_abstract_patch_rung_passes(m):
    g = build_wheel_gadget(m=m)
    for r in range(1, m):
        patched_op, patched_dist = g.patch(r)
        assert _redirected_count(g, patched_op) == 2  # every extra is near: no extended pair
        assert wheel_equality_sweep(patched_op, patched_dist).passed, (m, r)
        for prop in ("symmetric", "ir", "positive", "tir"):
            assert check_property(patched_dist, prop).passed, (m, r, prop)


@pytest.mark.parametrize("m", [4, 5])
def test_every_hamming_patch_rung_passes(m):
    g = build_hamming_wheel(m=m)
    for r in range(1, m):
        patched_op, patched_dist = g.patch(r)
        # e2 is near v1..v3 only, so rungs from 4 on extend by it on more sides
        assert _redirected_count(g, patched_op) == (12 if r <= 3 else 18), (m, r)
        assert wheel_equality_sweep(patched_op, patched_dist).passed, (m, r)
        assert check_hir(patched_dist, g.points).passed, (m, r)
        assert check_property(patched_dist, "liberal_tir").passed, (m, r)
        assert check_sandwich(g, patched_dist).passed, (m, r)


def _rung_entries(g, r):
    """The (V, W) keys that redirect rung r of ``g``, extended by the
    extras that put no near pair across V x W."""
    return set(_redirected(g.m, g.universe[2 * g.m:], ((r, r),), g.near))


def _listed_exactly(table, dist, seed):
    # the uncapped sweep's list, checked against lookup and apply: each
    # listed pair differs, and of 2,000 seeded pairs exactly the listed
    # ones do
    listed = wheel_equality_sweep(table, dist, witness_cap=1 << 30).mismatches
    found = set(listed)
    assert len(found) == len(listed)
    for v, w in listed:
        assert table.lookup(v, w) != apply(dist, v, w), (v, w)
    order, rng = dist.universe, random.Random(seed)
    for _ in range(2_000):
        v, w = (_labels_of(rng.randrange(1 << len(order)), order) for _ in "vw")
        assert ((v, w) in found) == (table.lookup(v, w) != apply(dist, v, w)), (v, w)
    return found


@pytest.mark.parametrize("build, m", [(build_wheel_gadget, 4), (build_wheel_gadget, 5),
                                      (build_wheel_gadget, 6), (build_hamming_wheel, 4)])
def test_correction_sets_of_the_pigeonhole_argument(build, m):
    # the modified operator differs from the unpatched distance's
    # minimization on the wrap rung's pairs only, and from patch r's on
    # rung r's pairs only: m disjoint correction sets, 2 pairs each in the
    # abstract gadget and 12 in the Hamming one
    g = build(m=m)
    size = 2 if build is build_wheel_gadget else 12
    wrap = _listed_exactly(g.op, g.dist, seed=0)
    assert wrap == g.op.entries.keys() == _rung_entries(g, m) and len(wrap) == size
    for r in range(1, m):
        rung = _listed_exactly(g.op, g.patch(r)[1], seed=r)
        assert rung == _rung_entries(g, r) and len(rung) == size, r
    # at m = 4, rung 3 of patch 1 moved below every other cost, and above
    # it: larger correction sets
    if m == 4:
        for cost, count in zip((F(1, 2), F(26, 10)), (12_596, 12) if size == 2 else (36_534, 72)):
            moved = g.patch(1)[1].replaced({("v3", "w3"): cost, ("w3", "v3"): cost})
            assert len(_listed_exactly(g.op, moved, seed=m)) == count, cost


def test_sweep_needs_a_backed_table_on_the_distance_points():
    g = build_wheel_gadget(n=1)
    unbacked = OperatorTable(g.universe, g.op.entries)
    with pytest.raises(UndefinedPairError):
        sweep_bytes(unbacked, g.dist)
    # a table over one more point than its backing is refused as it is built
    with pytest.raises(UnknownAtomError):
        OperatorTable(g.universe + ("y",), g.op.entries, backing=g.dist)
    # one over fewer points than its backing and the distance
    narrower = OperatorTable(g.universe[1:], {}, backing=g.dist)
    with pytest.raises(UndefinedPairError):
        wheel_equality_sweep(unbacked, g.dist)
    with pytest.raises(UnknownAtomError):
        wheel_equality_sweep(g.op, build_wheel_gadget(n=2).dist)
    with pytest.raises(UnknownAtomError):
        wheel_equality_sweep(narrower, g.dist)


# ---------------------------------------------------------------------------
# Hamming variant


def test_hamming_points():
    g = build_hamming_wheel(n=1)
    assert len(g.points["v1"].atoms) == 8
    assert len(g.universe) == 11

    # wheel points pairwise at difference 2; extras at 1 / 2 / >= 3
    assert len(hamming_diff(g.points["v1"], g.points["w3"])) == 2
    assert len(hamming_diff(g.points["e1"], g.points["v1"])) == 1
    assert len(hamming_diff(g.points["e2"], g.points["v1"])) == 2
    for lab in g.universe[:2 * g.m]:
        assert len(hamming_diff(g.points["e3"], g.points[lab])) >= 3
    assert len(hamming_diff(g.points["e3"], g.points["e1"])) >= 3
    assert len(hamming_diff(g.points["e3"], g.points["e2"])) >= 3


def test_hamming_distance_cases():
    g = build_hamming_wheel(n=1)
    d = g.dist
    assert d.mode is OrderMode.LIBERAL
    assert d.d("v1", "v1") == F(0)
    assert d.d("e1", "v1") == F(14, 10)  # off-wheel, difference 1
    assert d.d("e2", "v1") == F(2)  # off-wheel, difference 2
    assert d.d("e3", "v1") == F(3)  # off-wheel, difference >= 3
    assert d.d("v1", "v3") == F(21, 10)  # same side
    assert d.d("v2", "w2") == F(24, 10)  # rung
    assert d.d("v1", "w2") == F(25, 10)  # adjacent
    assert d.d("v1", "w3") == F(22, 10)  # chord
    assert g.patch(1)[1].d("v3", "w3") == F(23, 10)


def test_hamming_guard_routes_to_minimization():
    g = build_hamming_wheel(n=1)
    op = g.op.lookup
    wrap_v = {"v4", "v1"}
    wrap_w = {"w4", "w1"}
    assert op(wrap_v, wrap_w) == {"w4"}
    assert op(wrap_w, wrap_v) == {"v4"}
    # polluting either side with a close extra triggers the guard
    assert op(wrap_v | {"e1"}, wrap_w) == apply(g.dist, wrap_v | {"e1"}, wrap_w)
    # a far extra keeps the special entry in force
    assert op(wrap_v | {"e3"}, wrap_w) == {"w4"}


def test_hamming_table_sizes():
    # the redirected rung pairs with the extras that stay clear of the guard
    for m in (4, 5, 6, 7):
        g = build_hamming_wheel(m=m)
        assert (len(g.op.entries), len(g.patch(1)[0].entries)) == (12, 24), m


def _scalar_hamming_operator(g, r):
    # the guarded operator pair by pair, patched at rung r unless r is
    # None: the wheel parts of a redirected
    # rung pair keep a single point unless some cross pair leaves the wheel
    # below Hamming difference 3; every other pair is minimized
    m, wheel = g.m, set(g.universe[:2 * g.m])
    close = {(a, b): len(hamming_diff(g.points[a], g.points[b])) < 3
             for a in g.universe for b in g.universe}
    special = {}
    for i, j in [(m, m)] + ([(r, r + 1)] if r else []):
        nxt = i % m + 1
        vv, ww = frozenset({f"v{i}", f"v{nxt}"}), frozenset({f"w{i}", f"w{nxt}"})
        special[vv, ww] = frozenset({f"w{j}"})
        special[ww, vv] = frozenset({f"v{j}"})

    def op(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        key = (vset & wheel, wset & wheel)
        if key in special and not any(
                close[v, w] for v in vset for w in wset if not {v, w} <= wheel):
            return special[key]
        return apply(g.dist, vset, wset)

    return op


@pytest.mark.parametrize("m", [4, 5])
def test_hamming_tables_match_scalar_guard(m):
    g = build_hamming_wheel(m=m)
    extras = g.universe[2 * m:]
    subsets = [frozenset(e for k, e in enumerate(extras) if bits >> k & 1)
               for bits in range(1 << len(extras))]
    rungs = [(m, m), (1, 2)]
    pairs = []
    for i, _ in rungs:
        vv = frozenset({f"v{i}", f"v{i % m + 1}"})
        ww = frozenset({f"w{i}", f"w{i % m + 1}"})
        for side, other in ((vv, ww), (ww, vv)):
            pairs += [(side | ev, other | ew) for ev in subsets for ew in subsets]
    assert len(pairs) == 4 * 64
    rng = random.Random(m)
    order = list(g.universe)
    for _ in range(20_000):
        pairs.append(tuple(_labels_of(rng.randrange(1 << len(order)), order) for _ in "vw"))
    for table, r in ((g.op, None), (g.patch(1)[0], 1)):
        reference = _scalar_hamming_operator(g, r)
        bad = [(v, w) for v, w in pairs if table.lookup(v, w) != reference(v, w)]
        assert not bad, (r, bad[:3])


def test_hamming_full_claims():
    g = build_hamming_wheel(n=1)
    report = verify_hamming_claims(g)
    assert report.equality.passed
    assert report.equality.pairs_checked == 4_194_304
    assert report.reduction.passed
    assert report.reduction.pairs_checked == 242_505
    assert set(report.properties) == {"hamming_respect", "liberal_triangle", "sandwich"}
    assert all(r.passed for r in report.properties.values())
    assert report.fragment_verdict.status == "unsat"
    assert report.inclusion.passed
    assert not report.loop.passed and report.loop.k == 7
    assert recheck_chain(g.op, report.loop.chain)
    assert report.passed


def test_hamming_claims_m5_stay_exhaustive():
    # 13 points: the sweep covers every pair and the reduction lemma with it
    g = build_hamming_wheel(n=2)
    assert len(g.universe) == 13
    report = verify_hamming_claims(g)
    assert report.equality.pairs_checked == 67_108_864
    assert report.reduction.pairs_checked == 3_919_113
    assert report.inclusion.passed
    assert check_inclusion(g.patch(1)[0]).passed
    assert not report.loop.passed and report.loop.k == 9
    assert recheck_chain(g.op, report.loop.chain)
    assert report.passed


def test_hamming_claims_m6_stay_exhaustive():
    # 15 points: every one of the 2^30 pairs, and the reduction lemma
    g = build_hamming_wheel(n=3)
    report = verify_hamming_claims(g)
    assert report.equality.pairs_checked == 1_073_741_824
    assert report.reduction.pairs_checked == 62_862_345
    assert not report.loop.passed and report.loop.k == 11
    assert recheck_chain(g.op, report.loop.chain)
    assert report.passed


def test_dropped_guard_breaks_equality():
    # mutation check: ignoring the closeness guard when keying the special
    # entries must surface as operator-equality mismatches
    g = build_hamming_wheel(n=1)
    patched_op, patched_dist = g.patch(1)
    unguarded = OperatorTable(g.universe, _redirected(
        g.m, g.universe[2 * g.m:], ((g.m, g.m), (1, 2)), lambda a, b: False), backing=g.dist)
    # a polluted wrap pair now fires the special entry, disagreeing with the
    # patched minimization, which the guarded table still equals
    polluted_v = frozenset({"v4", "v1", "e1"})
    wrap_w = frozenset({"w4", "w1"})
    expected = apply(patched_dist, polluted_v, wrap_w)
    assert patched_op.lookup(polluted_v, wrap_w) == expected
    assert unguarded.lookup(polluted_v, wrap_w) == {"w4"}
    assert unguarded.lookup(polluted_v, wrap_w) != expected
    report = wheel_equality_sweep(unguarded, patched_dist, witness_cap=1 << 30)
    assert (polluted_v, wrap_w) in report.mismatches
    assert report.mismatches == _frozen(UNGUARDED, g.universe)


def test_corrupted_hamming_rung_breaks_sandwich_not_hir():
    g = build_hamming_wheel(n=1)
    patched_dist = g.patch(1)[1]
    corrupted = patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    assert check_hir(corrupted, g.points).passed
    assert not check_sandwich(g, corrupted).passed
    # a patched rung above the unpatched 12/5, still within |h| + 1/2,
    # breaks only d' <= d
    raised = patched_dist.replaced({("v3", "w3"): F(49, 20)})
    report = check_sandwich(g, raised)
    assert report.witnesses == [("v3", "w3", 2, F(49, 20), F(12, 5))]


def test_sandwich_witnesses_follow_enumeration_order():
    # raising every off-diagonal cost by 1/4 breaks d' <= d on each
    # finite pair
    g = build_hamming_wheel(n=1)
    raised = PseudoDistance.from_function(
        g.universe, g.dist.mode,
        lambda a, b: g.dist.d(a, b) + F(1, 4) if a != b else g.dist.d(a, b))
    found = []
    for a, b in itertools.product(g.universe, repeat=2):
        h = F(len(hamming_diff(g.points[a], g.points[b])))
        d, dp = g.dist.d(a, b), raised.d(a, b)
        if INF not in (d, dp) and not (h <= dp and dp <= d and d <= h + F(1, 2)):
            found.append((a, b, h, dp, d))
    assert len(found) > 16
    report = check_sandwich(g, raised)
    assert (report.name, report.passed) == ("sandwich", False)
    assert report.witnesses == found[:16]
    assert report.total_violations == len(found)


def test_corrupted_hamming_rung_breaks_equality(monkeypatch):
    # mutation check: the same rung corruption makes the Hamming sweep's
    # operator equality fail, and with it the claims check
    g = build_hamming_wheel(n=1)
    patch = wheel.Gadget.patch

    def corrupted(gadget, r):
        patched_op, patched_dist = patch(gadget, r)
        return patched_op, _corrupt_rung3(patched_dist)

    monkeypatch.setattr(wheel.Gadget, "patch", corrupted)
    report = verify_hamming_claims(g)
    assert not report.equality.passed
    assert report.equality.mismatches == _frozen(HAMMING_RUNG3, g.universe, 16)
    assert report.reduction.passed  # the reduction reads the unpatched distance
    assert not report.passed


def _claims_peak(verify, g):
    # the traced peak of a passing claims check
    tracemalloc.start()
    try:
        assert verify(g).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refusal_peak(verify, g):
    # the traced peak of a claims check refused over the sweep cap
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError):
            verify(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_estimate_bounds_peak(verify, g):
    # the estimate covers the traced peak of a claims check, and from 18
    # points on, where the sweeps outweigh the rest, is within 1.5 times it
    peak = _claims_peak(verify, g)
    assert peak <= sweep_bytes(*g.patch(1))
    if len(g.universe) >= 18:
        assert sweep_bytes(*g.patch(1)) <= 1.5 * peak


def test_hamming_sweep_estimate_covers_its_peak():
    for m in (4, 5, 6, 8):
        _assert_estimate_bounds_peak(verify_hamming_claims, build_hamming_wheel(m=m))


@pytest.mark.parametrize("m", (4, 5, 6, 7, 8, 9))
def test_abstract_sweep_estimate_covers_its_peak(m):
    # one estimate for both gadgets' claims checks
    _assert_estimate_bounds_peak(verify_wheel_claims, build_wheel_gadget(m=m))


def test_hamming_sweep_refuses_oversized_tables_before_allocating():
    # m=12, 27 points: the folded W rows of 2^27 masks put the estimate at
    # about 2.3 GiB; m=11 is the largest it admits
    assert sweep_bytes(*build_hamming_wheel(m=11).patch(1)) <= wheel.SWEEP_MAX_BYTES
    assert _refusal_peak(verify_hamming_claims, build_hamming_wheel(m=12)) < 16 << 20


def test_abstract_sweep_refuses_oversized_tables_before_allocating():
    # m=12, 26 points: the same estimate is just over 1.1 GiB; m=11 is the
    # largest it admits
    assert sweep_bytes(*build_wheel_gadget(m=11).patch(1)) <= wheel.SWEEP_MAX_BYTES
    assert _refusal_peak(verify_wheel_claims, build_wheel_gadget(m=12)) < 16 << 20
