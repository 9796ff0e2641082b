import dataclasses
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from distrev import wheel
from distrev.costs import OrderMode, check_property
from distrev.distops import (
    OperatorTable,
    apply,
    check_inclusion,
    find_loop_violation,
    recheck_chain,
)
from distrev.errors import BoundExceededError, FamilyError
from distrev.logic import hamming_diff
from distrev.realizability import _entry_tag, solve_table
from distrev.wheel import (
    _columns,
    _labels_of,
    _redirected,
    build_hamming_wheel,
    build_wheel_gadget,
    distance_int_matrix,
    find_fresh_rung,
    hamming_sweep_bytes,
    loop_family_generators,
    proof_fragment,
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


def test_fragment_is_unrealizable_for_all_small_m():
    # propagation at the root refutes every fragment, through all 3m entries
    gadgets = [build_wheel_gadget(m=m) for m in range(4, 13)]
    gadgets += [build_hamming_wheel(m=m) for m in (4, 5, 6)]
    for gadget in gadgets:
        fragment = proof_fragment(gadget)
        verdict = solve_table(fragment)
        assert (verdict.status, verdict.nodes) == ("unsat", 1), gadget.m
        assert len(fragment.entries) == 3 * gadget.m
        assert verdict.conflict == sorted(_entry_tag(v, w) for v, w in fragment.entries)


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
    assert gadget.r == 1
    dp = gadget.patched_dist
    assert dp.d("v1", "w1") == F(14, 10)  # rung r keeps its cost
    for i in (2, 3, 4):
        assert dp.d(f"v{i}", f"w{i}") == F(13, 10)
        assert dp.d(f"w{i}", f"v{i}") == F(13, 10)
    assert gadget.patched_op.lookup({"v1", "v2"}, {"w1", "w2"}) == {"w2"}
    assert gadget.patched_op.lookup({"w1", "w2"}, {"v1", "v2"}) == {"v2"}


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


def _assert_columns_match_dense(order, dists, side, seed):
    # every V of 300 seeded random W columns of dists[side], read off the
    # rows of the sweep's blocks, against the dense minimization; that in
    # turn against the set-level apply (itself checked against a Fraction
    # minimizer in test_kernels.py) on 20 of the columns
    n = len(order)
    sets = [_labels_of(mask, order) for mask in range(1 << n)]
    index = {lab: i for i, lab in enumerate(order)}
    wanted = random.Random(seed).sample(range(1 << n), 300)
    dense = _dense_columns(distance_int_matrix(dists[side], order), wanted)
    for wmask in wanted[:20]:
        for vmask, bits in enumerate(dense[wmask].tolist()):
            got = apply(dists[side], sets[vmask], sets[wmask])
            assert bits == sum(1 << index[lab] for lab in got), (sets[vmask], sets[wmask])
    seen = 0
    for wlo, *blocks in _columns(*(distance_int_matrix(d, order) for d in dists)):
        for row, col in enumerate(blocks[side]):
            wmask = wlo + row
            if wmask in dense:
                seen += 1
                differ = np.flatnonzero(col != dense[wmask])
                assert not len(differ), (sets[differ[0]], sets[wmask])
    assert seen == 300


def test_sweep_columns_match_apply():
    gadget = build_wheel_gadget(n=1)
    _assert_columns_match_dense(
        list(gadget.universe), (gadget.dist, gadget.patched_dist), 1, seed=0)
    g = build_hamming_wheel(n=1)
    assert g.dist.mode is OrderMode.LIBERAL
    _assert_columns_match_dense(list(g.universe), (g.dist, g.patched_dist), 0, seed=1)


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


def test_corrupted_patched_rung_breaks_equality():
    # mutation check: nudging one patched rung cost off its value makes the
    # exhaustive operator-equality sweep fail
    gadget = build_wheel_gadget(n=1)
    corrupted = gadget.patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    report = wheel_equality_sweep(dataclasses.replace(gadget, patched_dist=corrupted))
    assert not report.passed


def _corrupt_rung3(dist):
    return dist.replaced({("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)})


def _sweep_reports(monkeypatch, cells):
    # the equality reports of both gadgets at m=4, each with a corrupted
    # patched rung, when a block holds about ``cells`` cells
    monkeypatch.setattr(wheel, "APPLY_CHUNK_CELLS", cells)
    gadget = build_wheel_gadget(n=1)
    g = build_hamming_wheel(n=1)
    reports = []
    for cap in (16, 1 << 30):
        reports.append(wheel_equality_sweep(
            dataclasses.replace(gadget, patched_dist=_corrupt_rung3(gadget.patched_dist)),
            witness_cap=cap))
        claims = verify_hamming_claims(
            dataclasses.replace(g, patched_dist=_corrupt_rung3(g.patched_dist)),
            witness_cap=cap)
        reports += [claims.equality, claims.reduction]
    return [(r.pairs_checked, r.mismatches) for r in reports]


def test_sweep_block_size_does_not_change_reports(monkeypatch):
    # one W per block, then one block for the whole table (11 points at
    # most), against the default block size: the same pair counts and the
    # same mismatches in the same order, capped and uncapped
    default = _sweep_reports(monkeypatch, wheel.APPLY_CHUNK_CELLS)
    abstract, hamming = default[3][1], default[4][1]
    assert abstract and len(hamming) > 16  # the cap of 16 cuts the Hamming list
    assert _sweep_reports(monkeypatch, 1) == default
    assert _sweep_reports(monkeypatch, 1 << 22) == default


def _scalar_sampled_mismatches(gadget, sample, seed, cap=16):
    # the per-pair lookup-versus-apply loop over the sampled sweep's draws
    order = list(gadget.universe)
    patched_op, patched_dist = gadget.patched_op, gadget.patched_dist
    rng = random.Random(seed)
    found = []
    for _ in range(sample):
        vset = _labels_of(rng.randrange(1 << len(order)), order)
        wset = _labels_of(rng.randrange(1 << len(order)), order)
        if patched_op.lookup(vset, wset) != apply(patched_dist, vset, wset):
            found.append((vset, wset))
    return found[:cap]


def test_sampled_sweep_passes_m6():
    gadget = build_wheel_gadget(n=3)
    assert len(gadget.universe) == 14
    report = wheel_equality_sweep(gadget, sample=10_000, seed=0)
    assert report.sampled
    assert report.pairs_checked == 10_000
    assert report.passed


def test_sampled_sweep_catches_corrupted_rung_m6():
    # rung 3 made cheaper than every other cost between distinct points
    gadget = build_wheel_gadget(n=3)
    corrupted = dataclasses.replace(gadget, patched_dist=gadget.patched_dist.replaced(
        {("v3", "w3"): F(1, 2), ("w3", "v3"): F(1, 2)}
    ))
    report = wheel_equality_sweep(corrupted, sample=10_000, seed=0)
    assert not report.passed
    assert report.mismatches == _scalar_sampled_mismatches(corrupted, 10_000, seed=0)


def test_sampled_sweep_catches_corrupted_entry_m6():
    # a wrong table entry at the third pair the sweep draws
    gadget = build_wheel_gadget(n=3)
    order = list(gadget.universe)
    rng = random.Random(0)
    for _ in range(3):
        vset, wset = (_labels_of(rng.randrange(1 << len(order)), order) for _ in "vw")
    entries = dict(gadget.patched_op.entries)
    entries[vset, wset] = apply(gadget.patched_dist, vset, wset) ^ {"x1"}
    corrupted = dataclasses.replace(gadget, patched_op=OperatorTable(
        order, entries, backing=gadget.patched_op.backing))
    report = wheel_equality_sweep(corrupted, sample=10_000, seed=0)
    assert report.mismatches == [(vset, wset)]
    assert report.mismatches == _scalar_sampled_mismatches(corrupted, 10_000, seed=0)


def test_taken_pairs_shift_the_fresh_rung():
    taken = [({"v1", "v2"}, {"w1", "w2"})]
    gadget = build_wheel_gadget(n=1, taken_pairs=taken)
    assert gadget.r == 2
    assert verify_wheel_claims(gadget).passed


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
    assert g.patched_dist.d("v3", "w3") == F(23, 10)


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
        assert (len(g.op.entries), len(g.patched_op.entries)) == (12, 24), m


def _scalar_hamming_operator(g, patched):
    # the guarded operator pair by pair: the wheel parts of a redirected
    # rung pair keep a single point unless some cross pair leaves the wheel
    # below Hamming difference 3; every other pair is minimized
    m, wheel = g.m, set(g.universe[:2 * g.m])
    close = {(a, b): len(hamming_diff(g.points[a], g.points[b])) < 3
             for a in g.universe for b in g.universe}
    special = {}
    for i, j in [(m, m)] + ([(g.r, g.r + 1)] if patched else []):
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
    rungs = [(m, m), (g.r, g.r + 1)]
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
    for table, patched in ((g.op, False), (g.patched_op, True)):
        reference = _scalar_hamming_operator(g, patched)
        bad = [(v, w) for v, w in pairs if table.lookup(v, w) != reference(v, w)]
        assert not bad, (patched, bad[:3])


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
    # 13 points, over EXHAUSTIVE_MAX_POINTS: the Hamming sweep still covers
    # every pair and the reduction lemma with it
    g = build_hamming_wheel(n=2)
    assert len(g.universe) > wheel.EXHAUSTIVE_MAX_POINTS
    report = verify_hamming_claims(g)
    assert not report.equality.sampled
    assert report.equality.pairs_checked == 67_108_864
    assert report.reduction.pairs_checked == 3_919_113
    assert report.inclusion.passed
    assert check_inclusion(g.patched_op).passed
    assert not report.loop.passed and report.loop.k == 9
    assert recheck_chain(g.op, report.loop.chain)
    assert report.passed


def test_dropped_guard_breaks_equality():
    # mutation check: ignoring the closeness guard when keying the special
    # entries must surface as operator-equality mismatches
    g = build_hamming_wheel(n=1)
    rungs = ((g.m, g.m), (g.r, g.r + 1))
    unguarded = OperatorTable(g.universe, _redirected(
        g.m, g.universe[2 * g.m:], rungs, lambda a, b: False), backing=g.dist)
    # a polluted wrap pair now fires the special entry, disagreeing with the
    # patched minimization, which the guarded table still equals
    polluted_v = frozenset({"v4", "v1", "e1"})
    wrap_w = frozenset({"w4", "w1"})
    expected = apply(g.patched_dist, polluted_v, wrap_w)
    assert g.patched_op.lookup(polluted_v, wrap_w) == expected
    assert unguarded.lookup(polluted_v, wrap_w) == {"w4"}
    assert unguarded.lookup(polluted_v, wrap_w) != expected
    report = wheel_equality_sweep(dataclasses.replace(g, patched_op=unguarded),
                                  witness_cap=1 << 30)
    assert (polluted_v, wrap_w) in report.mismatches


def test_corrupted_hamming_rung_breaks_sandwich_not_hir():
    from distrev.costs import check_hir
    from distrev.wheel import check_sandwich

    g = build_hamming_wheel(n=1)
    corrupted = g.patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    assert check_hir(corrupted, g.points).passed
    assert not check_sandwich(g, patched=corrupted).passed


def test_corrupted_hamming_rung_breaks_equality():
    # mutation check: the same rung corruption makes the Hamming sweep's
    # operator equality fail
    g = build_hamming_wheel(n=1)
    corrupted = g.patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    report = verify_hamming_claims(dataclasses.replace(g, patched_dist=corrupted))
    assert not report.equality.passed
    assert not report.passed


def test_hamming_sweep_estimate_covers_its_peak():
    for m in (4, 5):
        g = build_hamming_wheel(m=m)
        tracemalloc.start()
        try:
            assert verify_hamming_claims(g).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hamming_sweep_bytes(g), m


def test_hamming_sweep_refuses_oversized_tables_before_allocating():
    g = build_hamming_wheel(m=7)  # a 1 GiB wheel-only table
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError):
            verify_hamming_claims(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
