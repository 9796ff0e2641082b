"""Differential tests of the integer kernels against plain references: the
rank-compiled minimization and its batch form, the index-keyed loop search
and the coded definability closure."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from distrev import distops
from distrev.costs import INF, OrderMode, PseudoDistance
from distrev.distops import (
    LoopVerdict,
    OperatorTable,
    apply,
    apply_rows,
    check_loop,
    find_loop_violation,
    recheck_chain,
)
from distrev.errors import UndefinedPairError
from distrev.logic import CLASSICAL, Matrix, enumerate_valuations, formula_extensions
from test_distops import _cyclic_override_op
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


def _rows(sets, order):
    return np.array([[p in s for p in order] for s in sets],
                    dtype=bool).reshape(len(sets), len(order))


def _assert_rows_match_apply(dist, pairs, order=None):
    cols = dist.universe if order is None else order
    got = apply_rows(dist, _rows([v for v, _ in pairs], cols),
                     _rows([w for _, w in pairs], cols), order)
    assert got.shape == (len(pairs), len(cols))
    for (vset, wset), row in zip(pairs, got):
        assert frozenset(p for p, bit in zip(cols, row) if bit) == apply(dist, vset, wset)


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
    # more pairs than one chunk of the default size, rows over dist.universe
    dist = PseudoDistance(POINTS, OrderMode.LIBERAL, {
        (v, w): F(0) if v == w else COSTS[(3 * i + j) % len(COSTS)] if i != 4 else INF
        for i, v in enumerate(POINTS) for j, w in enumerate(POINTS)
    })
    rng = random.Random(5)
    count = 2 * distops.APPLY_CHUNK_CELLS // len(POINTS) ** 2 + 7
    pairs = [tuple(frozenset(p for p in POINTS if rng.random() < 0.4) for _ in "vw")
             for _ in range(count)]
    _assert_rows_match_apply(dist, pairs)


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


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 255, 256])
def test_draws_replay_the_choice_stream(n):
    # each seed's first bulk draw yields about as many kept words as were
    # asked for, so some seeds fall short and top up
    topped_up = 0
    for seed in range(20):
        rng, words = random.Random(seed), []
        draw = rng.getrandbits
        rng.getrandbits = lambda bits: words.append(bits) or draw(bits)
        count = 40 * n + 7 + seed
        got = distops._draws(rng, n, count)
        choice = random.Random(seed).choice
        assert got.tolist() == [choice(range(n)) for _ in range(count)]
        topped_up += len(words) > 1
    assert topped_up
    assert distops._draws(random.Random(0), n, 0).tolist() == []


def test_draws_refuse_an_empty_range():
    with pytest.raises(ValueError):
        distops._draws(random.Random(0), 0, 1)


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


def _sampled_loop_reference(op, family, k_max, k_walk, samples, seed):
    """check_loop's verdict from a chain-at-a-time search: lexicographic
    enumeration up to ``k_walk``, then each longer k over the same draws,
    one chain and one scalar lookup at a time, the first counterexample in
    sample order."""
    sets = sorted(family, key=sorted)
    n = len(sets)
    k, chain, checked = _first_chain_brute_force(op, sets, k_walk)
    k = k_walk if k is None else k
    while not chain and k < k_max:
        k += 1
        checked += samples
        draws = distops._draws(random.Random(f"{seed}:{k}"), n, samples * (k + 1))
        for indices in draws.reshape(samples, k + 1).tolist():
            candidate = tuple(sets[i] for i in indices)
            if recheck_chain(op, candidate):
                chain = candidate
                break
    states = n * n if k_walk else 0
    return LoopVerdict(not chain, k if chain else k_max, chain, checked, k > k_walk, states)


@settings(max_examples=40, deadline=None)
@given(loop_operators(), st.sampled_from((1, 48, 49, 342)), st.integers(0, 50))
def test_sampled_loop_matches_chain_at_a_time_reference(case, budget, seed):
    # 7 sets: budgets below 7^2 sample every k, and those below 7^3 walk
    # k = 1 and sample k = 2 and 3
    op, family = case
    k_walk = 1 if budget >= 49 else 0
    expected = _sampled_loop_reference(op, family, 3, k_walk, 300, seed)
    assert check_loop(op, family, 3, budget=budget, samples=300, seed=seed) == expected


@pytest.mark.parametrize("budget, k_walk", [(1, 0), (49, 1)])
def test_sampled_loop_finds_the_reference_violation(budget, k_walk):
    op = _cyclic_override_op()
    family = [frozenset(c) for r in range(1, 4)
              for c in itertools.combinations(op.universe, r)]
    verdict = check_loop(op, family, 3, budget=budget)
    assert not verdict.passed and verdict.sampled
    assert verdict == _sampled_loop_reference(op, family, 3, k_walk, 10**4, 0)


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
    """(start, state) pairs reachable at depths 1..k, summed over depths: a
    state (V_{j-1}, V_j) at depth j has premises 1..j-1 holding."""
    total = 0
    for v0, v1 in itertools.product(sets, repeat=2):
        layer = {(v0, v1)}
        for _ in range(k):
            total += len(layer)
            layer = {(b, c) for a, b in layer for c in sets
                     if op.lookup(b, a | c) & a}
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
