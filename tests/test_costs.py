from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distrev.costs import (
    INF,
    OrderMode,
    Ordering,
    PseudoDistance,
    add_costs,
    check_hir,
    check_property,
    compare_costs,
    cost_le,
    format_cost,
    parse_cost,
)
from distrev.errors import FileFormatError, ModeMismatchError, UnknownAtomError
from distrev.logic import make_valuation

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
    with pytest.raises(ModeMismatchError):
        compare_costs(INF, F(1), OrderMode.REAL)


def test_compare_liberal_inf_is_top():
    assert compare_costs(INF, F(10**9), OrderMode.LIBERAL) is Ordering.GREATER
    assert compare_costs(F(0), INF, OrderMode.LIBERAL) is Ordering.LESS
    assert compare_costs(INF, INF, OrderMode.LIBERAL) is Ordering.EQUAL


def test_add_costs_absorbing():
    assert add_costs(INF, F(1)) is INF
    assert add_costs(F(1), F(2)) == F(3)


@given(
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=10),
    st.fractions(min_value=0, max_value=10),
)
def test_compare_is_a_total_order(a, b, c):
    r = compare_costs(a, b, OrderMode.REAL)
    flipped = compare_costs(b, a, OrderMode.REAL)
    assert r.value == -flipped.value
    if (
        compare_costs(a, b, OrderMode.REAL) is Ordering.LESS
        and compare_costs(b, c, OrderMode.REAL) is Ordering.LESS
    ):
        assert compare_costs(a, c, OrderMode.REAL) is Ordering.LESS


def _dist(table, mode=OrderMode.REAL):
    universe = tuple(sorted({v for pair in table for v in pair}))
    return PseudoDistance(universe, mode, table)


def _full(universe, fn, mode=OrderMode.REAL):
    return PseudoDistance.from_function(universe, mode, fn)


def test_table_must_be_total():
    with pytest.raises(UnknownAtomError):
        PseudoDistance(("a", "b"), OrderMode.REAL, {("a", "a"): F(0)})


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
                    if not cost_le(dvx, add_costs(dvw, dwx), dist.mode):
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
        "a": make_valuation(sig, {"x": "0", "y": "0"}),
        "b": make_valuation(sig, {"x": "1", "y": "0"}),
        "c": make_valuation(sig, {"x": "1", "y": "1"}),
    }

    def respecting(v, w):
        return F(len({a for a in sig if vals[v][a] != vals[w][a]}))

    good = _full(("a", "b", "c"), respecting)
    assert check_hir(good, vals).passed
    bad = good.replaced({("a", "b"): F(5)})  # h=1 pair costs above the h=2 pair
    assert not check_hir(bad, vals).passed
