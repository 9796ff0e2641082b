import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distrev.costs import (
    INF,
    OrderMode,
    PseudoDistance,
    check_hir,
    check_property,
    format_cost,
    parse_cost,
)
from distrev.errors import FileFormatError, ModeMismatchError, UnknownAtomError
from distrev.logic import Valuation, enumerate_valuations

F = Fraction


def test_parse_cost_forms():
    assert parse_cost("3/2") == F(3, 2)
    assert parse_cost("1.4") == F(14, 10)
    assert parse_cost("2") == F(2)
    assert parse_cost("inf") is INF
    with pytest.raises(FileFormatError):
        parse_cost("abc")
    with pytest.raises(FileFormatError):
        parse_cost("1/0")


def test_format_cost_roundtrip():
    for text in ["0", "7/5", "3", "inf"]:
        assert format_cost(parse_cost(text)) == text


def test_compare_real_mode_rejects_inf():
    # the real order admits no INF, however the distance is built
    table = {("a", "a"): F(0), ("a", "b"): INF, ("b", "a"): F(1), ("b", "b"): F(0)}
    with pytest.raises(ModeMismatchError):
        PseudoDistance(("a", "b"), OrderMode.REAL, table)
    finite = PseudoDistance.from_function(
        ("a", "b"), OrderMode.REAL, lambda v, w: F(0) if v == w else F(1))
    with pytest.raises(ModeMismatchError):
        finite.replaced({("b", "a"): INF})


def test_compare_liberal_inf_is_top():
    for c in (F(10**400), F(10**9), F(0), F(-7, 3), -(10**400), 0, 5):
        assert c < INF and INF > c
        assert c <= INF and INF >= c
        assert not INF < c and not c > INF and not INF <= c
        assert c != INF and INF != c


def test_add_costs_absorbing():
    assert INF == INF and INF <= INF and INF >= INF
    assert not INF < INF and not INF > INF
    for c in (F(1), F(-3, 2), F(10**400), 0, INF):
        assert INF + c is INF
        assert c + INF is INF
    assert F(1) + F(2) == F(3)


_COSTS = st.one_of(st.just(INF), st.fractions(), st.integers())


@given(_COSTS, _COSTS, _COSTS)
def test_compare_is_a_total_order(a, b, c):
    # Fractions, ints and INF form one total order with INF on top
    assert [a < b, a == b, a > b].count(True) == 1
    assert (a <= b) == (a < b or a == b) and (a >= b) == (b <= a)
    assert (a == b) == (b == a) and (a < b) == (b > a)
    if a <= b and b <= c:
        assert a <= c
    if a < b and b <= c:
        assert a < c
    if INF in (a, b):
        assert (a < b) == (a is not INF and b is INF)


def _dist(table, mode=OrderMode.REAL):
    universe = tuple(sorted({v for pair in table for v in pair}))
    return PseudoDistance(universe, mode, table)


def _full(universe, fn, mode=OrderMode.REAL):
    return PseudoDistance.from_function(universe, mode, fn)


def test_table_must_be_total():
    with pytest.raises(UnknownAtomError):
        PseudoDistance(("a", "b"), OrderMode.REAL, {("a", "a"): F(0)})


def _dense_ranks(dist):
    """Each cost's index among the sorted distinct costs, INF on top."""
    def key(c):
        return (1, 0) if c is INF else (0, c)

    distinct = sorted({key(c) for c in dist.table.values()})
    return [[distinct.index(key(dist.d(v, w))) for w in dist.universe] for v in dist.universe]


@pytest.mark.parametrize("table, mode, expected", [
    # equal Fractions that are distinct objects share a rank
    ({("a", "a"): F(0), ("a", "b"): F(1, 2), ("b", "a"): F(2, 4), ("b", "b"): F(1, 3)},
     OrderMode.REAL, [[0, 2], [2, 1]]),
    # int costs, as witness_distance builds them, tie with equal Fractions
    ({("a", "a"): 0, ("a", "b"): 3, ("b", "a"): F(3), ("b", "b"): 1},
     OrderMode.REAL, [[0, 2], [2, 1]]),
    # INF ranks above every finite cost
    ({("a", "a"): F(0), ("a", "b"): INF, ("b", "a"): F(5), ("b", "b"): INF},
     OrderMode.LIBERAL, [[0, 2], [1, 2]]),
    ({("a", "a"): F(7, 3)}, OrderMode.REAL, [[0]]),
    ({}, OrderMode.REAL, []),
])
def test_kernel_ranks_are_the_dense_ranks_of_the_distinct_costs(table, mode, expected):
    dist = _dist(table, mode)
    index, ranks = dist.kernel
    assert index == {p: i for i, p in enumerate(dist.universe)}
    assert ranks == _dense_ranks(dist) == expected
    assert dist.kernel is dist.kernel


def test_real_mode_rejects_inf_entries():
    with pytest.raises(ModeMismatchError):
        _full(("a", "b"), lambda v, w: INF if v != w else F(0))


def test_symmetric_check():
    good = _full(("a", "b"), lambda v, w: F(0) if v == w else F(1))
    assert check_property(good, "symmetric").passed
    bad = good.replaced({("a", "b"): F(2)})
    report = check_property(bad, "symmetric")
    assert not report.passed
    assert report.witnesses == [("a", "b")]


def test_ir_check():
    bad = _full(("a", "b"), lambda v, w: F(0))
    report = check_property(bad, "ir")
    assert not report.passed
    assert ("a", "b") in report.witnesses


def test_positive_check():
    bad = _full(("a", "b"), lambda v, w: F(-1) if v != w else F(0))
    assert not check_property(bad, "positive").passed


def test_tir_check():
    def fn(v, w):
        if v == w:
            return F(0)
        if {v, w} == {"a", "c"}:
            return F(10)
        return F(1)

    bad = _full(("a", "b", "c"), fn)
    report = check_property(bad, "tir")
    assert not report.passed
    assert ("a", "b", "c") in report.witnesses


def test_liberal_checks():
    def fn(v, w):
        if v == w:
            return F(0)
        if {v, w} == {"a", "c"}:
            return INF
        return F(1)

    dist = _full(("a", "b", "c"), fn, OrderMode.LIBERAL)
    assert check_property(dist, "liberal_ir").passed
    assert check_property(dist, "liberal_positive").passed
    # d(a,c) infinite while d(a,b), d(b,c) finite: liberal triangle fails
    assert not check_property(dist, "liberal_tir").passed


def test_mode_prop_mismatch():
    real = _full(("a", "b"), lambda v, w: F(0) if v == w else F(1))
    with pytest.raises(ModeMismatchError):
        check_property(real, "liberal_ir")
    lib = _full(("a", "b"), lambda v, w: F(0) if v == w else F(1), OrderMode.LIBERAL)
    with pytest.raises(ModeMismatchError):
        check_property(lib, "tir")


def _liberal_tir_reference(dist):
    """The separate liberal triangle body that ``check_property`` once
    kept: an infinite d(v, x) fails exactly when both legs are finite, and
    a finite one is compared only against two finite legs."""
    found = []
    for v in dist.universe:
        for w in dist.universe:
            for x in dist.universe:
                dvx, dvw, dwx = dist.d(v, x), dist.d(v, w), dist.d(w, x)
                if dvx is INF:
                    if dvw is not INF and dwx is not INF:
                        found.append((v, w, x))
                elif dvw is not INF and dwx is not INF:
                    if not dvx <= dvw + dwx:
                        found.append((v, w, x))
    return found


@given(st.data())
def test_liberal_tir_is_tir_with_inf_on_top(data):
    points = ("a", "b", "c", "d")[:data.draw(st.integers(1, 4))]
    costs = st.one_of(st.just(INF), st.fractions(-3, 3, max_denominator=4))
    dist = PseudoDistance(points, OrderMode.LIBERAL, {
        (v, w): data.draw(costs) for v in points for w in points})
    report = check_property(dist, "liberal_tir", witness_cap=1 << 10)
    expected = _liberal_tir_reference(dist)
    assert (report.witnesses, report.total_violations) == (expected, len(expected))
    assert report.passed == (not expected)


def test_unknown_property_names():
    # the name is checked before the mode, so a liberal_ name that is no
    # property is unknown on a real distance too, not a mode mismatch
    for mode in OrderMode:
        dist = _full(("a", "b"), lambda v, w: F(0) if v == w else F(1), mode)
        for name in ("liberal_symmetric", "liberal_foo", "triangle", "liberal_"):
            with pytest.raises(ValueError, match="unknown property"):
                check_property(dist, name)


def test_hir_check():
    sig = ("x", "y")
    vals = {
        "a": Valuation(sig, ("0", "0")),
        "b": Valuation(sig, ("1", "0")),
        "c": Valuation(sig, ("1", "1")),
    }

    def respecting(v, w):
        return F(len({a for a in sig if vals[v][a] != vals[w][a]}))

    good = _full(("a", "b", "c"), respecting)
    assert check_hir(good, vals).passed
    bad = good.replaced({("a", "b"): F(5)})  # h=1 pair costs above the h=2 pair
    assert not check_hir(bad, vals).passed


# ---------------------------------------------------------------------------
# Witness order: each checker reports every violation and keeps the first
# 16 in plain enumeration order.


def _seeded(universe, seed, low, high):
    rng = random.Random(seed)
    return _full(universe, lambda v, w: F(rng.randrange(low, high)))


def test_symmetric_ir_positive_witnesses_follow_enumeration_order():
    pts = tuple("abcdefghi")
    dist = _seeded(pts, 1, -1, 2)
    d = dist.d
    expected = {
        "symmetric": [(v, w) for v, w in itertools.combinations(pts, 2) if d(v, w) != d(w, v)],
        "ir": [(v, w) for v, w in itertools.product(pts, repeat=2)
               if (d(v, w) == 0) != (v == w)],
        "positive": [(v, w) for v, w in itertools.product(pts, repeat=2) if d(v, w) < 0],
    }
    for prop, found in expected.items():
        assert len(found) > 16, prop
        report = check_property(dist, prop)
        assert (report.name, report.passed) == (prop, False)
        assert report.witnesses == found[:16], prop
        assert report.total_violations == len(found), prop


def test_hir_witnesses_follow_enumeration_order():
    sig = ("x", "y", "z")
    vals = {v.label(): v for v in enumerate_valuations(sig)}
    pts = tuple(vals)
    dist = _seeded(pts, 2, 0, 4)

    def h(v, w):
        return sum(vals[v][a] != vals[w][a] for a in sig)

    found = [(v, w, x) for v, w, x in itertools.product(pts, repeat=3)
             if h(v, w) < h(v, x) and dist.d(v, w) >= dist.d(v, x)]
    assert len(found) > 16
    report = check_hir(dist, vals)
    assert (report.name, report.passed) == ("hir", False)
    assert report.witnesses == found[:16]
    assert report.total_violations == len(found)
