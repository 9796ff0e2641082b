import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from distrev import distops
from distrev.costs import OrderMode, PseudoDistance
from distrev.distops import (
    LoopVerdict,
    OperatorTable,
    apply,
    check_inclusion,
    check_loop,
    family_closure,
    find_loop_violation,
    recheck_chain,
    validate_family,
)
from distrev.errors import (
    BoundExceededError,
    FamilyError,
    UndefinedPairError,
    UnknownAtomError,
    WitnessError,
)

F = Fraction
U = ("a", "b", "c", "d")


def _dist(fn, universe=U, mode=OrderMode.REAL):
    return PseudoDistance.from_function(universe, mode, fn)


def _uniform():
    return _dist(lambda v, w: F(0) if v == w else F(1))


def test_apply_empty_arguments():
    d = _uniform()
    assert apply(d, set(), {"a"}) == frozenset()
    assert apply(d, {"a"}, set()) == frozenset()


def test_apply_picks_global_minima():
    def fn(v, w):
        if v == w:
            return F(0)
        return F(1) if {v, w} == {"a", "b"} else F(2)

    d = _dist(fn)
    assert apply(d, {"a"}, {"b", "c"}) == {"b"}
    assert apply(d, {"a"}, {"c", "d"}) == {"c", "d"}
    # overlap: identity pairs cost zero under an IR distance
    assert apply(d, {"a", "c"}, {"c", "d"}) == {"c"}


def test_apply_asymmetric_direction_matters():
    table = {(v, w): F(5) for v in ("a", "b") for w in ("a", "b")}
    table[("a", "b")] = F(1)
    d = PseudoDistance(("a", "b"), OrderMode.REAL, table)
    assert apply(d, {"a"}, {"b"}) == {"b"}
    assert apply(d, {"b"}, {"a", "b"}) == {"a", "b"}


def test_operator_table_lookup_precedence():
    d = _uniform()
    key = (frozenset({"a"}), frozenset({"b", "c"}))
    op = OperatorTable(U, {key: frozenset({"b"})}, backing=d)
    assert op.lookup({"a"}, {"b", "c"}) == {"b"}  # explicit entry wins
    assert op.lookup({"a"}, {"c", "d"}) == {"c", "d"}  # backing fallback


def test_operator_table_errors():
    with pytest.raises(UnknownAtomError):
        OperatorTable(U, {(frozenset({"z"}), frozenset({"a"})): frozenset()})
    op = OperatorTable(U, {})
    with pytest.raises(UndefinedPairError):
        op.lookup({"a"}, {"b"})


def test_validate_family():
    closed = [{"a"}, {"b"}, {"a", "b"}]
    assert len(validate_family(U, closed)) == 3
    with pytest.raises(FamilyError):
        validate_family(U, [{"a"}, set()])
    with pytest.raises(FamilyError, match=r"^family not closed under union: \['a'\] \| \['b'\]$"):
        validate_family(U, [{"a"}, {"b"}])  # union missing
    with pytest.raises(FamilyError, match=r"^family not closed under non-disjoint "
                       r"intersection: \['a', 'b'\] & \['b', 'c'\]$"):
        validate_family(U, [{"a", "b"}, {"b", "c"}, {"a", "b", "c"}])  # cap missing
    # the first failing pair in input order, the union tested before the cap
    with pytest.raises(FamilyError, match=r"union: \['b', 'c'\] \| \['a'\]$"):
        validate_family(U, [{"b", "c"}, {"b"}, {"a"}, {"a", "b"}])
    assert validate_family(U, [{"b"}, {"a", "b"}, {"b"}, {"a"}]) == [
        frozenset({"b"}), frozenset({"a", "b"}), frozenset({"a"})]


def test_check_loop_refuses_an_empty_family():
    # no chain to check, under any budget: not a vacuous pass
    op = OperatorTable(U, backing=_dist(lambda v, w: F(0) if v == w else F(1)))
    for budget in (10**6, -5):
        with pytest.raises(FamilyError, match="no set"):
            check_loop(op, [], 2, budget=budget)


def test_family_closure():
    closed = family_closure([{"a", "b"}, {"b", "c"}])
    assert closed == {
        frozenset({"a", "b"}),
        frozenset({"b", "c"}),
        frozenset({"b"}),
        frozenset({"a", "b", "c"}),
    }
    validate_family(U, closed)


def test_check_inclusion():
    d = _uniform()
    family = family_closure([{"a"}, {"b"}, {"a", "b"}])
    op = OperatorTable(U, {}, backing=d)
    assert check_inclusion(op, family).passed
    bad = OperatorTable(
        U, {(frozenset({"a"}), frozenset({"b"})): frozenset({"c"})}, backing=d
    )
    assert not check_inclusion(bad).passed


def test_inclusion_witnesses_follow_enumeration_order():
    # every pair of non-empty subsets has an explicit entry with a seeded
    # result; the entries and a shuffled family of all subsets give the
    # same pairs in the same order, V then W by their sorted labels
    rng = random.Random(3)
    subsets = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(U, r)]
    op = OperatorTable(U, {(v, w): rng.choice(subsets) for v in subsets for w in subsets})
    ordered = sorted(subsets, key=sorted)
    found = [(sorted(v), sorted(w), sorted(op.entries[v, w]))
             for v in ordered for w in ordered if not op.entries[v, w] <= w]
    assert len(found) > 16
    family = list(subsets)
    rng.shuffle(family)
    for report in (check_inclusion(op), check_inclusion(op, family)):
        assert (report.name, report.passed) == ("inclusion", False)
        assert report.witnesses == found[:16]
        assert report.total_violations == len(found)


def _all_nonempty_subsets(universe):
    return [
        frozenset(c)
        for r in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]


def _random_symmetric(rng, universe=U):
    table = {}
    for i, v in enumerate(universe):
        for w in universe[i:]:
            c = F(0) if v == w else F(rng.randrange(1, 16), 4)
            table[(v, w)] = c
            table[(w, v)] = c
    return PseudoDistance(universe, OrderMode.REAL, table)


def test_loop_holds_for_symmetric_distances():
    rng = random.Random(7)
    family = _all_nonempty_subsets(U)
    for _ in range(10):
        op = OperatorTable(U, {}, backing=_random_symmetric(rng))
        verdict = check_loop(op, family, k_max=3)
        assert verdict.passed
        assert not verdict.sampled


def test_loop_refuses_an_oversized_walk_before_reading_a_premise():
    # 15 sets: n^5 = 759,375 cells per layer past k = 1, and n^2 = 225 for
    # the k = 1 walk.  The table has neither entries nor backing, so any
    # premise it is asked about raises UndefinedPairError.
    op = OperatorTable(U)
    family = _all_nonempty_subsets(U)
    for k_max in (None, 2, 3):
        with pytest.raises(BoundExceededError, match="759375 cells"):
            check_loop(op, family, k_max, budget=15**5 - 1)
    with pytest.raises(BoundExceededError, match="225 cells"):
        check_loop(op, family, 1, budget=224)
    with pytest.raises(UndefinedPairError):
        check_loop(op, family, 1, budget=225)


def test_loop_asks_about_unions_in_byte_order():
    # the sets cover 9 points, so packed rows span two bytes, point i at bit
    # i % 8 of byte i // 8.  The unions number in byte order: {p8} (00 01)
    # before {p1} (02 00), so the first pair asked about, and undefined, is
    # the first set with {p8}
    first = frozenset({"p0", "p2", "p3", "p4", "p5", "p6", "p7"})
    op = OperatorTable(tuple(f"p{i}" for i in range(9)))
    for k_max in (1, None):
        with pytest.raises(UndefinedPairError, match=re.escape(f"{sorted(first)}|['p8']")):
            find_loop_violation(op, [{"p1"}, {"p8"}, first], k_max)


def test_loop_walk_skips_starts_that_can_never_close(monkeypatch):
    # every cost 0: the operator answers all of W, so every conclusion
    # holds and no start can close a ring.  The walk passes at fixpoint 1
    # on the n^2 starts alone and never walks a block.
    def no_block(*args):
        raise AssertionError("a block of starts was walked")

    op = OperatorTable(U, {}, backing=_dist(lambda v, w: F(0)))
    family = _all_nonempty_subsets(U)
    monkeypatch.setattr(distops, "_walk_block", no_block)
    for k_max in (None, 3):
        for verdict in (check_loop(op, family, k_max), find_loop_violation(op, family, k_max)):
            assert verdict.passed and (verdict.fixpoint, verdict.states) == (1, 15 ** 2)
            assert verdict.k == (k_max or 1)


def _cyclic_override_op():
    # singleton sources pick their cyclic successor out of the other two:
    # b keeps a, c keeps b, but a drops b -- so the k=2 chain a,b,c has all
    # premises and a failing conclusion
    universe = ("a", "b", "c")
    d = PseudoDistance.from_function(
        universe, OrderMode.REAL, lambda v, w: F(0) if v == w else F(1)
    )
    entries = {
        (frozenset({"b"}), frozenset({"a", "c"})): frozenset({"a"}),
        (frozenset({"c"}), frozenset({"a", "b"})): frozenset({"b"}),
        (frozenset({"a"}), frozenset({"b", "c"})): frozenset({"c"}),
    }
    return OperatorTable(universe, entries, backing=d)


def test_loop_counterexample_on_cyclic_table():
    op = _cyclic_override_op()
    family = _all_nonempty_subsets(op.universe)
    verdict = check_loop(op, family, k_max=3)
    assert not verdict.passed
    assert recheck_chain(op, verdict.chain)


def test_recheck_chain_rejects_non_counterexamples():
    d = _uniform()
    op = OperatorTable(U, {}, backing=d)
    # premises hold but so does the conclusion
    chain = (frozenset({"a"}), frozenset({"a"}))
    assert not recheck_chain(op, chain)


def test_find_loop_violation_agrees_with_recheck():
    op = _cyclic_override_op()
    verdict = find_loop_violation(op, _all_nonempty_subsets(op.universe), k_max=6)
    assert not verdict.passed
    assert recheck_chain(op, verdict.chain)


def test_find_loop_violation_refuses_sets_outside_the_universe():
    # the backing reaches c, the universe does not: both checks refuse
    op = OperatorTable(("a", "b"), {}, backing=_dist(lambda v, w: F(v != w), ("a", "b", "c")))
    sets = [{"a"}, {"b"}, {"c"}, {"a", "c"}, {"b", "c"}]
    for check in (check_loop, find_loop_violation):
        with pytest.raises(FamilyError, match="^family member outside the universe$"):
            check(op, sets)


def test_find_loop_violation_passes_no_candidate():
    # no set to chain: a pass at depth 0, or at the cut-off, with nothing
    # checked or reached, whether the premises would come from the set
    # distances or from lookup_rows; the empty set is no candidate
    dist = _dist(lambda v, w: F(v != w), ("a", "b"))
    a, ab = frozenset({"a"}), frozenset({"a", "b"})
    for op in (OperatorTable(("a", "b"), {}, backing=dist),
               OperatorTable(("a", "b"), {(a, ab): a}, backing=dist)):
        for sets in ([], [frozenset()]):
            assert find_loop_violation(op, sets) == LoopVerdict(
                True, k=0, chain=(), checked=0, states=0, fixpoint=0)
            assert find_loop_violation(op, sets, 3) == LoopVerdict(
                True, k=3, chain=(), checked=0, states=0, fixpoint=0)


def _returning_chain_op():
    # the only violation is a = V_0 = V_1 = V_3: the walk returns to its
    # start state (a, a) after three premises
    a, ab = frozenset({"a"}), frozenset({"a", "b"})
    entries = {(a, a): frozenset(), (a, ab): a, (ab, a): a, (ab, ab): a}
    return OperatorTable(("a", "b"), entries), [a, ab]


def test_loop_chain_back_to_its_start_state():
    op, family = _returning_chain_op()
    chain = (frozenset({"a"}), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"a"}))
    assert recheck_chain(op, chain)
    for k_max in (4, None):
        verdict = check_loop(op, family, k_max)
        assert verdict == find_loop_violation(op, family, k_max)
        assert not verdict.passed and verdict.fixpoint is None
        assert (verdict.k, verdict.chain) == (3, chain)


@pytest.mark.parametrize("budget", [10**6, 2**5])  # the default, then the walk's own cells
def test_failed_loop_recheck_raises(monkeypatch, budget):
    op, family = _returning_chain_op()
    monkeypatch.setattr(distops, "recheck_chain", lambda op, chain: False)
    with pytest.raises(WitnessError):
        check_loop(op, family, 4, budget=budget)
    with pytest.raises(WitnessError):
        find_loop_violation(op, family, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_apply_result_always_within_w(seed):
    rng = random.Random(seed)
    d = _random_symmetric(rng)
    sets = _all_nonempty_subsets(U)
    v = rng.choice(sets)
    w = rng.choice(sets)
    result = apply(d, v, w)
    assert result
    assert result <= w
