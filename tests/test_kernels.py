"""Differential tests of the integer kernels against plain references: the
rank-compiled minimization and its batch form, the index-keyed loop search
and the coded definability closure."""

import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from distrev import distops, logic
from distrev.costs import INF, OrderMode, PseudoDistance
from distrev.distops import (
    OperatorTable,
    apply,
    apply_rows,
    check_loop,
    find_loop_violation,
    least_rank_rows,
    recheck_chain,
)
from distrev.errors import UndefinedPairError
from distrev.logic import CLASSICAL, Matrix, enumerate_valuations, formula_extensions
from distrev.revision import (
    RevisionOperator,
    nonempty_model_sets,
    per_source_order_operator,
    valuation_universe,
)
from distrev.wheel import build_wheel_gadget, loop_family_generators
from test_logic import _identity_matrix

F = Fraction
POINTS = ("a", "b", "c", "d", "e")
# few distinct values, so ties are frequent
COSTS = (F(0), F(1, 3), F(1, 2), F(1), F(7, 5), F(2))


def _reference_apply(dist, vset, wset):
    """Brute-force minimization over the exact costs, INF on top."""
    if not vset or not wset:
        return frozenset()

    def key(c):
        return (1, F(0)) if c is INF else (0, c)

    best = min(key(dist.d(v, w)) for v in vset for w in wset)
    return frozenset(
        w for w in wset if any(key(dist.d(v, w)) == best for v in vset)
    )


@st.composite
def distances(draw):
    universe = POINTS[:draw(st.integers(1, len(POINTS)))]
    mode = draw(st.sampled_from([OrderMode.REAL, OrderMode.LIBERAL]))
    values = COSTS + ((INF,) if mode is OrderMode.LIBERAL else ())
    # every pair drawn on its own: tables are asymmetric in general
    table = {
        (v, w): draw(st.sampled_from(values)) for v in universe for w in universe
    }
    return PseudoDistance(universe, mode, table)


def _subsets(universe):
    return st.sets(st.sampled_from(universe)).map(frozenset)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_apply_matches_fraction_minimizer(data):
    dist = data.draw(distances())
    for _ in range(8):
        vset = data.draw(_subsets(dist.universe))
        wset = data.draw(_subsets(dist.universe))
        assert apply(dist, vset, wset) == _reference_apply(dist, vset, wset)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_replaced_distance_compiles_its_own_kernel(data):
    dist = data.draw(distances())
    full = frozenset(dist.universe)
    before = apply(dist, full, full)  # compiles and caches dist's kernel
    values = COSTS + ((INF,) if dist.mode is OrderMode.LIBERAL else ())
    pairs = st.tuples(st.sampled_from(dist.universe), st.sampled_from(dist.universe))
    overrides = data.draw(st.dictionaries(pairs, st.sampled_from(values), min_size=1))
    patched = dist.replaced(overrides)
    assert patched.kernel is not dist.kernel
    for _ in range(6):
        vset = data.draw(_subsets(dist.universe))
        wset = data.draw(_subsets(dist.universe))
        assert apply(patched, vset, wset) == _reference_apply(patched, vset, wset)
    assert apply(dist, full, full) == before


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_replaced_distance_builds_its_own_rank_tables(data):
    dist = data.draw(distances())
    order = data.draw(st.permutations(dist.universe))
    full = _rows([frozenset(order)], order)
    before = apply_rows(dist, full, full, order)  # builds and keeps dist's tables
    values = COSTS + ((INF,) if dist.mode is OrderMode.LIBERAL else ())
    pairs = st.tuples(st.sampled_from(dist.universe), st.sampled_from(dist.universe))
    overrides = data.draw(st.dictionaries(pairs, st.sampled_from(values), min_size=1))
    patched = dist.replaced(overrides)
    subsets = _subsets(dist.universe)
    queries = data.draw(st.lists(st.tuples(subsets, subsets), min_size=1, max_size=6))
    got = apply_rows(patched, _rows([v for v, _ in queries], order),
                     _rows([w for _, w in queries], order), order)
    assert [frozenset(itertools.compress(order, row)) for row in got] == \
        [_reference_apply(patched, v, w) for v, w in queries]
    assert (apply_rows(dist, full, full, order) == before).all()


def _rows(sets, order):
    return np.array([[p in s for p in order] for s in sets],
                    dtype=bool).reshape(len(sets), len(order))


def _assert_rows_match_apply(dist, pairs, order=None):
    cols = dist.universe if order is None else order
    got = apply_rows(dist, _rows([v for v, _ in pairs], cols),
                     _rows([w for _, w in pairs], cols), order)
    assert got.shape == (len(pairs), len(cols))
    expected = {}  # repeated pairs ask the scalar apply once
    for (vset, wset), row in zip(pairs, got):
        if (vset, wset) not in expected:
            expected[vset, wset] = apply(dist, vset, wset)
        assert frozenset(p for p, bit in zip(cols, row) if bit) == expected[vset, wset]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_rows_matches_scalar_apply(data):
    # both order modes with INF, frequent ties (distances()), empty V and W
    # rows, a caller's point order unlike the distance's, and a chunk size
    # drawn small enough that the batch spans several chunks
    dist = data.draw(distances())
    order = data.draw(st.permutations(dist.universe))
    subsets = _subsets(dist.universe)
    pairs = data.draw(st.lists(st.tuples(subsets, subsets), max_size=12))
    pairs += [(frozenset(), frozenset(order)), (frozenset(order), frozenset())]
    cells = data.draw(st.integers(1, 3 * len(order) ** 2))
    with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells):
        _assert_rows_match_apply(dist, pairs, order)


def test_apply_rows_default_order_and_full_chunks():
    # more pairs than one chunk of the default size, a chunk holding
    # APPLY_CHUNK_CELLS // n pairs of n cells; rows over dist.universe
    dist = PseudoDistance(POINTS, OrderMode.LIBERAL, {
        (v, w): F(0) if v == w else COSTS[(3 * i + j) % len(COSTS)] if i != 4 else INF
        for i, v in enumerate(POINTS) for j, w in enumerate(POINTS)
    })
    rng = random.Random(5)
    count = 2 * distops.APPLY_CHUNK_CELLS // len(POINTS) + 7
    pairs = [tuple(frozenset(p for p in POINTS if rng.random() < 0.4) for _ in "vw")
             for _ in range(count)]
    _assert_rows_match_apply(dist, pairs)


def test_apply_rows_splits_twenty_points_into_parts():
    # at the default chunk size 20 points split into tabulated parts of 13
    # and 7 points; liberal order with INF, frequent ties, empty V and W rows
    rng = random.Random(11)
    points = tuple(f"x{i}" for i in range(20))
    values = COSTS + (INF,)
    dist = PseudoDistance(points, OrderMode.LIBERAL, {
        (v, w): rng.choice(values) for v in points for w in points})
    order = rng.sample(points, len(points))
    pairs = [tuple(frozenset(p for p in points if rng.random() < density)
                   for density in (rng.random(), rng.random()))
             for _ in range(400)]
    pairs += [(frozenset(), frozenset(points)), (frozenset(points), frozenset()),
              (frozenset(order[13:]), frozenset(points)),
              (frozenset(order[:13]), frozenset(order[12:]))]
    _assert_rows_match_apply(dist, pairs, order)


def _twenty_point_case():
    """A liberal 20-point distance with INF and frequent ties, a point order
    unlike its own, and 60 random pairs."""
    rng = random.Random(11)
    points = tuple(f"x{i}" for i in range(20))
    values = COSTS + (INF,)
    dist = PseudoDistance(points, OrderMode.LIBERAL, {
        (v, w): rng.choice(values) for v in points for w in points})
    order = tuple(rng.sample(points, len(points)))
    pairs = [tuple(frozenset(p for p in points if rng.random() < density)
                   for density in (rng.random(), rng.random()))
             for _ in range(60)]
    return dist, order, pairs


def test_apply_rows_builds_its_rank_tables_once_per_order():
    dist, order, pairs = _twenty_point_case()
    with mock.patch.object(distops, "distance_int_matrix",
                           wraps=distops.distance_int_matrix) as built:
        # the default order is the distance's own: one key for both forms
        for cols in (None, dist.universe, dist.universe, order, order, order):
            _assert_rows_match_apply(dist, pairs, cols)
    assert built.call_count == 2
    for cols in (dist.universe, order):  # both orders answer as a fresh distance
        fresh = PseudoDistance(dist.universe, dist.mode, dist.table)
        vrows, wrows = (_rows(sets, cols) for sets in zip(*pairs))
        assert (apply_rows(dist, vrows, wrows, cols)
                == apply_rows(fresh, vrows, wrows, cols)).all()


def test_apply_rows_rebuilds_its_parts_when_the_chunk_size_changes():
    # 20 points split into parts of 13 and 7 at the default chunk size and
    # into parts of 3 at 160 cells; a part size the cache did not build for
    # must be built again, not served from the last call
    dist, order, pairs = _twenty_point_case()
    for cells, sizes in ((distops.APPLY_CHUNK_CELLS, [13, 7]), (160, [3] * 6 + [2]),
                         (distops.APPLY_CHUNK_CELLS, [13, 7])):
        with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells), \
                mock.patch.object(distops, "_subset_table",
                                  wraps=distops._subset_table) as tabled:
            _assert_rows_match_apply(dist, pairs, order)
        assert [len(call.args[0]) for call in tabled.call_args_list] == sizes


@pytest.mark.parametrize("cells, parts", [(distops.APPLY_CHUNK_CELLS, 1), (288, 2), (144, 3)])
def test_least_rank_rows_match_the_whole_subset_table(cells, parts):
    # nine points of a liberal distance with INF and frequent ties, in an
    # order unlike the distance's; every V mask, shuffled, the empty one
    # among them, read off one, two and three part tables; and no columns
    # on a distance without points
    rng = random.Random(3)
    points = tuple(f"x{i}" for i in range(9))
    dist = PseudoDistance(points, OrderMode.LIBERAL, {
        (v, w): rng.choice(COSTS + (INF,)) for v in points for w in points})
    order = tuple(rng.sample(points, len(points)))
    masks = np.array(rng.sample(range(1 << 9), 1 << 9))
    ranks, top = distops.narrow_ranks(dist, order)
    expected = distops._subset_table(ranks, np.minimum, top).T[masks]
    with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells):
        rows = least_rank_rows(dist, masks, order)
        assert len(distops._rank_parts(dist, order)[2]) == parts
    assert rows.dtype == expected.dtype and (rows == expected).all()
    assert (rows[masks == 0] == top).all()
    assert least_rank_rows(PseudoDistance((), OrderMode.REAL, {}), [0, 0]).shape == (2, 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lookup_rows_matches_row_by_row_lookup(data):
    # entries that override the backing or, without one, are all there is;
    # entries reaching outside the query's point order; a permuted order of
    # some of the points, whose entry results are cut to it
    dist = data.draw(distances())
    subsets = _subsets(dist.universe)
    entries = data.draw(st.dictionaries(st.tuples(subsets, subsets), subsets, max_size=6))
    op = OperatorTable(dist.universe, entries,
                       backing=dist if data.draw(st.booleans()) else None)
    order = data.draw(st.permutations(dist.universe))
    order = tuple(order[:data.draw(st.integers(1, len(order)))])
    queries = st.tuples(_subsets(order), _subsets(order))
    inside = sorted((key for key in op.entries if key[0] | key[1] <= set(order)),
                    key=lambda key: (sorted(key[0]), sorted(key[1])))
    if inside:
        queries = st.one_of(queries, st.sampled_from(inside))
    pairs = data.draw(st.lists(queries, max_size=12))
    expected, error = [], None
    for vset, wset in pairs:
        try:
            expected.append(op.lookup(vset, wset) & frozenset(order))
        except UndefinedPairError as exc:
            error = str(exc)
            break
    vrows, wrows = _rows([v for v, _ in pairs], order), _rows([w for _, w in pairs], order)
    if error is not None:
        with pytest.raises(UndefinedPairError) as raised:
            op.lookup_rows(vrows, wrows, order)
        assert str(raised.value) == error
    else:
        got = op.lookup_rows(vrows, wrows, order)
        assert got.shape == (len(pairs), len(order))
        assert [frozenset(itertools.compress(order, row)) for row in got] == expected


@pytest.mark.parametrize("cells", [distops.APPLY_CHUNK_CELLS, 40])
def test_row_packers_match_packbits(cells):
    # 0 rows, 1 row and several chunks' worth; the words are np.packbits's
    # bytes of each row, one zero byte for a row of no points, zero-padded
    # to whole words
    rng = np.random.default_rng(7)
    with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells):
        for points in (0, 1, 7, 8, 9, 63, 64, 65, 130):
            for count in (0, 1, 2 * cells // 8 + 3):
                rows = rng.random((count, points)) < 0.5
                packed = np.packbits(rows, axis=1, bitorder="little")
                if not points:
                    packed = np.zeros((count, 1), dtype=np.uint8)
                words = distops._row_words(rows)
                padded = np.zeros((count, 8 * -(-packed.shape[1] // 8)), dtype=np.uint8)
                padded[:, :packed.shape[1]] = packed
                assert words.dtype == np.dtype("<u8")
                assert np.array_equal(words, padded.view("<u8"))


@pytest.mark.parametrize("points", (0, 1, 8, 63, 64, 65, 130))
def test_row_index_matches_a_dict_of_rows(points):
    # distinct table rows; half the queries are table rows, half random
    rng = np.random.default_rng(points)
    table = np.unique(rng.random((40, points)) < 0.5, axis=0)
    rows = np.vstack([table[rng.integers(0, len(table), 30)], rng.random((30, points)) < 0.5])
    index = {row.tobytes(): i for i, row in enumerate(table)}
    at, found = distops._row_index(distops._row_words(table))(distops._row_words(rows))
    assert found.tolist() == [row.tobytes() in index for row in rows]
    assert at[found].tolist() == [index[row.tobytes()] for row in rows[found]]


@pytest.mark.parametrize("points", (0, 1, 8, 63, 64, 65, 130))
def test_distinct_rows_match_a_dict_of_rows(points):
    # rows drawn with repeats from a pool in which each row has a twin that
    # differs only at the last point, so past 64 points twins share all
    # words but the last
    rng = np.random.default_rng(points)
    pool = np.repeat(rng.random((6, points)) < 0.5, 2, axis=0)
    pool[::2, -1:] ^= True
    for count in (0, 1, 200):
        words = distops._row_words(pool[rng.integers(0, len(pool), count)])
        first, number, _ = logic._distinct_rows(words)
        # numbers run 0..count-1 in ascending order of the rows' word tuples
        rank = {row: i for i, row in enumerate(sorted(set(map(tuple, words.tolist()))))}
        assert number.tolist() == [rank[row] for row in map(tuple, words.tolist())]
        assert len(first) == len(rank)
        assert np.array_equal(words[first[number]], words)  # representatives


def _first_chain_brute_force(op, family, k_max):
    """Lexicographic enumeration of every chain; the first counterexample
    with its k and the number of chains counted up to and including its k."""
    sets = sorted(family, key=sorted)
    checked = 0
    for k in range(1, k_max + 1):
        checked += len(sets) ** (k + 1)
        for chain in itertools.product(sets, repeat=k + 1):
            if recheck_chain(op, chain):
                return k, chain, checked
    return None, (), checked


@st.composite
def loop_operators(draw):
    universe = POINTS[:3]
    table = {
        (v, w): F(0) if v == w else draw(st.sampled_from(COSTS[1:]))
        for v in universe for w in universe
    }
    dist = PseudoDistance(universe, OrderMode.REAL, table)
    family = [
        frozenset(c) for r in range(1, 4) for c in itertools.combinations(universe, r)
    ]
    # a few explicit entries break the distance's loop condition at times
    entries = {}
    for _ in range(draw(st.integers(0, 2))):
        vset, wset = draw(st.sampled_from(family)), draw(st.sampled_from(family))
        entries[vset, wset] = frozenset(
            draw(st.sets(st.sampled_from(sorted(wset)), min_size=0))
        )
    return OperatorTable(universe, entries, backing=dist), family


@settings(max_examples=60, deadline=None)
@given(loop_operators())
def test_check_loop_matches_lexicographic_enumeration(case):
    op, family = case
    k, chain, checked = _first_chain_brute_force(op, family, k_max=3)
    verdict = check_loop(op, family, k_max=3)
    assert verdict.checked == checked
    for verdict in (verdict, find_loop_violation(op, family, 3)):
        assert verdict.passed == (k is None)
        assert verdict.chain == chain
        if k is not None:
            assert verdict.k == k
    # at k_max = 1 the walk reads premise(a, b, a) alone
    walked = check_loop(op, family, k_max=1)
    assert walked.chain == (chain if k == 1 else ())


def _first_chain_by_extension(op, sets, k_max):
    """Plain chain enumeration to ``k_max``: every index chain V_0..V_k
    whose premises hold, extended one set at a time in lexicographic
    order, each premise read once by a scalar lookup; the least k at which
    one of them closes with a failing conclusion, and the first such chain,
    or (None, ())."""
    n = len(sets)
    P = np.array([[[bool(op.lookup(b, a | c) & a) for c in sets] for b in sets]
                  for a in sets]).reshape(n, n, n)
    chains = np.array(list(itertools.product(range(n), repeat=2)), dtype=np.int8)
    for k in range(1, k_max + 1):
        if k > 1:
            # premise k - 1 is (V_{k-2}, V_{k-1}, V_k)
            rows, last = np.nonzero(P[chains[:, -2], chains[:, -1]])
            chains = np.column_stack([chains[rows], last.astype(np.int8)])
        # premise k is (V_{k-1}, V_k, V_0), the conclusion (V_1, V_0, V_k)
        closing = (P[chains[:, -2], chains[:, -1], chains[:, 0]]
                   & ~P[chains[:, 1], chains[:, 0], chains[:, -1]])
        if closing.any():
            return k, tuple(sets[i] for i in chains[np.argmax(closing)])
    return None, ()


def _seeded_operator(rng, points, entries):
    """A distance-backed operator over ``points``, symmetric or not, with
    up to ``entries`` explicit entries, and its non-empty subsets."""
    subsets = [frozenset(c) for r in range(1, len(points) + 1)
               for c in itertools.combinations(points, r)]
    symmetric = rng.random() < 0.5
    table = {}
    for i, v in enumerate(points):
        for w in points[i:]:
            table[v, w] = F(0) if v == w else rng.choice(COSTS[1:])
            table[w, v] = table[v, w] if symmetric or v == w else rng.choice(COSTS[1:])
    chosen = {}
    for _ in range(rng.randrange(entries + 1)):
        vset, wset = rng.choice(subsets), rng.choice(subsets)
        chosen[vset, wset] = frozenset(p for p in sorted(wset) if rng.random() < 0.5)
    dist = PseudoDistance(points, OrderMode.REAL, table)
    return OperatorTable(points, chosen, backing=dist), subsets


def test_fixpoint_walk_matches_chain_enumeration_to_k7():
    # 3-point operators over every set (check_loop) and 4-point ones over
    # up to six candidate sets (find_loop_violation), both walked to their
    # fixpoint: a pass at the fixpoint has no chain up to k = 7, and a
    # violation is the enumeration's least k and first chain
    rng = random.Random(28)
    tally = {"fixpoint": 0, "violated": 0}
    for i in range(60):
        if i % 2:
            op, subsets = _seeded_operator(rng, POINTS[:4], 4)
            sets = rng.sample(subsets, rng.randrange(1, 7))
            verdict = find_loop_violation(op, sets)
        else:
            op, sets = _seeded_operator(rng, POINTS[:3], 3)
            verdict = check_loop(op, sets)
        k, chain = _first_chain_by_extension(op, sorted(sets, key=sorted), 7)
        if verdict.passed:
            assert verdict.fixpoint is not None and verdict.k == verdict.fixpoint
            assert k is None, i
            tally["fixpoint"] += 1
        else:
            assert verdict.fixpoint is None
            assert (verdict.k, verdict.chain) == (k, chain), i
            tally["violated"] += 1
    assert min(tally.values()) >= 20, tally


class _CachedLookups:
    """An operator whose lookups are memoized, so that brute-force chain
    enumeration stays fast."""

    def __init__(self, op):
        self.op, self.universe, self.memo = op, op.universe, {}

    def lookup(self, vset, wset):
        key = (vset, wset)
        if key not in self.memo:
            self.memo[key] = self.op.lookup(vset, wset)
        return self.memo[key]


def _reached_states(op, sets, k):
    """Distinct (start, state) pairs first reached at depths 1..k: a state
    (V_{j-1}, V_j) at depth j has premises 1..j-1 holding.  Past depth 1
    only the live starts count, those whose conclusion (V_1, V_0, V_k)
    fails for some V_k."""
    total = 0
    for v0, v1 in itertools.product(sets, repeat=2):
        live = any(not op.lookup(v0, v1 | c) & v1 for c in sets)
        seen = layer = {(v0, v1)}
        for _ in range(k if live else min(k, 1)):
            total += len(layer)
            layer = {(b, c) for a, b in layer for c in sets
                     if op.lookup(b, a | c) & a} - seen
            seen = seen | layer
    return total


@st.composite
def candidate_operators(draw):
    """Operators over 2-3 points, asymmetric or symmetric backings with a
    few explicit entries, and candidate sets drawn without any closure."""
    universe = POINTS[:draw(st.integers(2, 3))]
    subsets = [frozenset(c) for r in range(1, len(universe) + 1)
               for c in itertools.combinations(universe, r)]
    symmetric = draw(st.booleans())
    table = {}
    for i, v in enumerate(universe):
        for w in universe[i:]:
            table[v, w] = F(0) if v == w else draw(st.sampled_from(COSTS[1:]))
            table[w, v] = table[v, w] if symmetric else draw(st.sampled_from(COSTS[1:]))
    dist = PseudoDistance(universe, OrderMode.REAL, table)
    entries = {}
    for _ in range(draw(st.integers(0, 4))):
        vset, wset = draw(st.sampled_from(subsets)), draw(st.sampled_from(subsets))
        entries[vset, wset] = frozenset(
            draw(st.sets(st.sampled_from(sorted(wset)), min_size=0))
        )
    sets = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6, unique=True))
    return OperatorTable(universe, entries, backing=dist), sets


@settings(max_examples=150, deadline=None)
@given(candidate_operators(), st.sampled_from((5, 4, 3, 2, 1)), st.integers(1, 400))
def test_find_loop_violation_matches_enumeration_on_unclosed_sets(case, k_max, cells):
    op, sets = case
    cached = _CachedLookups(op)
    k, chain, _ = _first_chain_brute_force(cached, sets, k_max)
    # at the default chunk size every family here fits one block of
    # starts, so the walk reaches every state at every depth up to the k
    # it stops at
    verdict = find_loop_violation(op, sets, k_max)
    assert verdict.states == _reached_states(cached, sorted(sets, key=sorted), verdict.k)
    # a chunk size drawn small enough that the starts span several blocks
    with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells):
        blocked = find_loop_violation(op, sets, k_max)
    for verdict in (verdict, blocked):
        assert verdict.passed == (k is None)
        assert verdict.chain == chain
        assert verdict.k == (k_max if k is None else k)


def _wheel_premise_case():
    # the generators key the gadget's two explicit entries, and the extras
    # bring the points to 10, past the first byte of each packed row
    gadget = build_wheel_gadget(n=1)
    return gadget.op, loop_family_generators(4) + [frozenset({"x1"}), frozenset({"x2"})]


def _model_set_premise_case():
    # a function operator over the valuations of 3 atoms, its answers on
    # every pair the premises ask about held as explicit entries
    sig, sets = _sampled_model_sets()
    op = per_source_order_operator(sig, seed=2)
    entries = {(b, a | c): op.revise_models(b, a | c)
               for a, b, c in itertools.product(sets, repeat=3)}
    return OperatorTable(valuation_universe(sig), entries), sets


def _sampled_model_sets():
    sig = ("p", "q", "r")
    return sig, random.Random(5).sample(nonempty_model_sets(sig), 12)


def _function_revision_premise_case():
    # the per-source operator itself, asked through its revision table
    sig, sets = _sampled_model_sets()
    return per_source_order_operator(sig, seed=2), sets


def _distance_revision_premise_case():
    # an asymmetric distance over the valuations of 3 atoms: a plain
    # minimization, read off its set distances
    sig, sets = _sampled_model_sets()
    universe, rng = valuation_universe(sig), random.Random(6)
    table = {(v, w): F(0) if v == w else rng.choice(COSTS[1:]) for v in universe for w in universe}
    return RevisionOperator.from_distance(
        PseudoDistance(universe, OrderMode.REAL, table), sig), sets


def _wide_premise_case():
    # 70 points, so packed rows span two 64-bit words; an asymmetric
    # backing with explicit entries on (V_b, V_a u V_c) pairs the premises
    # ask about
    rng = random.Random(7)
    universe = tuple(f"p{i:02}" for i in range(70))
    table = {(v, w): F(0) if v == w else rng.choice(COSTS[1:])
             for v in universe for w in universe}
    sets = [frozenset(universe[i::7]) for i in range(7)]
    sets += [frozenset(rng.sample(universe, 3)) for _ in range(3)]
    entries = {}
    for _ in range(6):
        a, b, c = (rng.choice(sets) for _ in range(3))
        entries[b, a | c] = frozenset(rng.sample(sorted(a | c), 2))
    dist = PseudoDistance(universe, OrderMode.REAL, table)
    return OperatorTable(universe, entries, backing=dist), sets


def _entry_free_premise_case(size, costs, mode, seed):
    # an asymmetric backing and no entries: the premises are read off the
    # set distances, where ties between V_a and V_c decide many of them
    rng = random.Random(seed)
    universe = tuple(f"p{i:02}" for i in range(size))
    table = {(v, w): rng.choice(costs) for v in universe for w in universe}
    sets = list(dict.fromkeys(frozenset(rng.sample(universe, rng.randint(1, 3)))
                              for _ in range(12)))
    return OperatorTable(universe, {}, backing=PseudoDistance(universe, mode, table)), sets


def _tied_premise_case():
    return _entry_free_premise_case(6, (F(0), F(1), F(1), F(2)), OrderMode.REAL, 11)


def _liberal_premise_case():
    return _entry_free_premise_case(6, (F(0), F(1, 2), INF, INF), OrderMode.LIBERAL, 12)


def _many_point_premise_case():
    return _entry_free_premise_case(24, COSTS, OrderMode.REAL, 13)


@pytest.mark.parametrize("cells", [distops.APPLY_CHUNK_CELLS, 40])
@pytest.mark.parametrize("case", [_wheel_premise_case, _model_set_premise_case,
                                  _wide_premise_case, _tied_premise_case,
                                  _liberal_premise_case, _many_point_premise_case,
                                  _distance_revision_premise_case,
                                  _function_revision_premise_case])
def test_premise_reads_match_the_scalar_premise(case, cells):
    op, sets = case()
    n = len(sets)
    expected = np.array([distops._premise(op, a, b, c)
                         for a, b, c in itertools.product(sets, repeat=3)]).reshape(n, n, n)
    if isinstance(op, OperatorTable):
        universe, plain = op.universe, not op.entries
    else:
        universe, plain = valuation_universe(op.signature), op.dist is not None
    # a plain distance minimization reads no lookup_rows batch
    batch = None if plain else type(op).lookup_rows
    # a chunk size of 40 splits every read and bit test into many chunks
    with mock.patch.object(distops, "APPLY_CHUNK_CELLS", cells), \
            mock.patch.object(type(op), "lookup_rows", batch):
        premises = distops._premise_reader(op, sets, universe)
        a, c = np.divmod(np.arange(n * n), n)
        assert (premises(a, c) == expected.transpose(0, 2, 1).reshape(n * n, n)).all()
        same = np.arange(n)
        assert (premises(same, same) == expected[same, :, same]).all()
    # nor does it build a revision table
    assert not (plain and "_revision_table" in vars(op))


def test_set_distance_premises_of_every_subset_read_in_chunks():
    # an entry-free table over 8 points and its 255 non-empty subsets: the
    # 255^2 premise rows are a 15.8 MiB result; the set distances and the
    # chunks of the comparison add well under 8 MiB to it
    rng = random.Random(8)
    universe = tuple(f"p{i}" for i in range(8))
    dist = PseudoDistance(universe, OrderMode.REAL, {
        (v, w): rng.choice(COSTS) for v in universe for w in universe})
    op = OperatorTable(universe, {}, backing=dist)
    sets = sorted((frozenset(s) for r in range(1, 9)
                   for s in itertools.combinations(universe, r)), key=sorted)
    n = len(sets)
    a, c = np.divmod(np.arange(n * n), n)
    premises = distops._premise_reader(op, sets, universe)
    tracemalloc.start()
    try:
        every = premises(a, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20
    picks = np.random.default_rng(8).choice(n * n * n, 2000, replace=False)
    for x, b in zip(*np.divmod(picks, n)):
        assert every[x, b] == distops._premise(op, sets[a[x]], sets[b], sets[c[x]])


def _naive_extensions(signature, matrix):
    """Fixpoint of the connectives over value tuples, one pair at a time."""
    vals = enumerate_valuations(signature, matrix)
    known = {tuple(v[a] for v in vals) for a in signature}
    known |= {
        (matrix.tables[c][()],) * len(vals) for c in ("true", "false") if c in matrix.tables
    }
    unary = [matrix.tables[n] for n in ("not",) if n in matrix.tables]
    binary = [matrix.tables[n] for n in ("and", "or", "implies", "iff") if n in matrix.tables]
    while True:
        new = {tuple(t[(x,)] for x in f) for t in unary for f in known}
        new |= {
            tuple(t[(x, y)] for x, y in zip(f, g))
            for t in binary for f in known for g in known
        }
        if new <= known:
            return known
        known |= new


def _kleene():
    vals = ("0", "h", "1")
    order = {x: i for i, x in enumerate(vals)}

    def lo(x, y):
        return min(x, y, key=order.get)

    def hi(x, y):
        return max(x, y, key=order.get)

    neg = {"0": "1", "h": "h", "1": "0"}
    tables = {
        "not": {(x,): neg[x] for x in vals},
        "and": {(x, y): lo(x, y) for x in vals for y in vals},
        "or": {(x, y): hi(x, y) for x in vals for y in vals},
        "implies": {(x, y): hi(neg[x], y) for x in vals for y in vals},
        "iff": {(x, y): lo(hi(neg[x], y), hi(neg[y], x)) for x in vals for y in vals},
        "true": {(): "1"},
        "false": {(): "0"},
    }
    return Matrix(values=vals, designated=frozenset({"1"}), tables=tables)


def _extension_labels(signature, matrix):
    _, codes = formula_extensions(signature, matrix)
    return {tuple(matrix.values[c] for c in row) for row in codes}


# SHA-256 of the closure's code rows, as the closure emitted them before it
# stopped at saturation
_EXTENSION_DIGESTS = {
    ("classical", 1): "eddbfad5043d7f782086e4976c28f8d5a98199e02f2c893e891c4ad4da8e8573",
    ("classical", 2): "c846396e609cfcc947c890f26ada8414f3cbbd9bd3ed6c705d0879051c41e626",
    ("classical", 3): "5ae6b69a42394f1f42f5a455ee783093c4107badecdd6cbd04e037ee9f2923b0",
    ("identity", 2): "88bb90ca6d46365e9a5e1bda1ff64711fc40094cd039a3552b3aba106e7d0f74",
    ("kleene", 2): "f4fdbf5adc04aad41cb0f506328c1a172557fea71f7fbeb9c78a3d47d513557a",
}


@pytest.mark.parametrize("name, atoms", sorted(_EXTENSION_DIGESTS))
def test_formula_extensions_stop_at_saturation(name, atoms):
    matrix = {"classical": CLASSICAL, "identity": _identity_matrix(), "kleene": _kleene()}[name]
    sig = ("p", "q", "r")[:atoms]
    known, distinct_rows = set(), logic._distinct_rows
    before = []  # functions known when each batch of candidates is deduplicated

    def spy(words):
        before.append(len(known))
        out = distinct_rows(words)
        known.update(row.tobytes() for row in words[out[0]])
        return out

    with mock.patch.object(logic, "_distinct_rows", spy):
        vals, codes = formula_extensions(sig, matrix)
    assert hashlib.sha256(codes.tobytes()).hexdigest() == _EXTENSION_DIGESTS[name, atoms]
    assert len(known) == len(codes)
    assert max(before) < len(matrix.values) ** len(vals)


def test_formula_extensions_classical_three_atoms():
    sig = ("p", "q", "r")
    got = _extension_labels(sig, CLASSICAL)
    assert len(got) == 256
    assert got == _naive_extensions(sig, CLASSICAL)


def test_formula_extensions_three_valued_matrices():
    for matrix, sig in ((_identity_matrix(), ("p", "q")), (_kleene(), ("p", "q"))):
        _, codes = formula_extensions(sig, matrix)
        assert len(codes) == len(_extension_labels(sig, matrix))  # rows are distinct
        assert _extension_labels(sig, matrix) == _naive_extensions(sig, matrix)


@st.composite
def random_matrices(draw):
    vals = ("0", "1", "2")
    pick = st.sampled_from(vals)
    tables = {"true": {(): "1"}}
    # sparse connective sets leave fewer paths to each function, so every
    # operand order of the closure matters
    if draw(st.booleans()):
        tables["not"] = {(x,): draw(pick) for x in vals}
    for name in ("and", "or", "implies", "iff"):
        if draw(st.booleans()):
            tables[name] = {(x, y): draw(pick) for x in vals for y in vals}
    return Matrix(values=vals, designated=frozenset({"1"}), tables=tables)


@settings(max_examples=150, deadline=None)
@given(random_matrices())
def test_formula_extensions_random_matrices(matrix):
    sig = ("p",)
    assert _extension_labels(sig, matrix) == _naive_extensions(sig, matrix)
