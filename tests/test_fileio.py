import re
from fractions import Fraction

import pytest

from distrev.costs import INF, OrderMode, PseudoDistance
from distrev.distops import OperatorTable
from distrev.errors import FileFormatError, ModeMismatchError
from distrev.fileio import (
    format_distance,
    format_operator_table,
    load_distance,
    load_operator_table,
    parse_distance,
    parse_family,
    parse_operator_table,
    parse_theory_file,
    save_distance,
    save_operator_table,
)
from distrev.logic import formula_to_text

F = Fraction


def _sample_distance(mode=OrderMode.REAL):
    def fn(v, w):
        if v == w:
            return F(0)
        if mode is OrderMode.LIBERAL and {v, w} == {"a", "c"}:
            return INF
        return F(14, 10)

    return PseudoDistance.from_function(("a", "b", "c"), mode, fn)


def test_distance_roundtrip(tmp_path):
    for mode in (OrderMode.REAL, OrderMode.LIBERAL):
        dist = _sample_distance(mode)
        path = tmp_path / f"{mode.value}.txt"
        save_distance(dist, path)
        loaded = load_distance(path)
        assert loaded.universe == dist.universe
        assert loaded.mode == dist.mode
        assert loaded.table == dist.table


def test_distance_parse_accepts_comments_and_fractions():
    text = """
    # costs
    mode: real
    points: a b
    0 7/5   # a row
    1.4 0
    """
    dist = parse_distance(text)
    assert dist.d("a", "b") == F(7, 5)
    assert dist.d("b", "a") == F(7, 5)


@pytest.mark.parametrize(
    "text",
    [
        "points: a b\n0 1\n1 0",  # missing mode
        "mode: weird\npoints: a b\n0 1\n1 0",
        "mode: real\npoints: a a\n0 1\n1 0",  # duplicate point
        "mode: real\npoints: a b\n0 1",  # missing row
        "mode: real\npoints: a b\n0 1 2\n1 0",  # row too long
        "mode: real\npoints: a b\n0 x\n1 0",  # bad literal
    ],
)
def test_distance_parse_errors(text):
    with pytest.raises(FileFormatError):
        parse_distance(text)


def test_distance_parse_rejects_inf_under_real_order():
    text = "mode: real\npoints: a b\n0 inf\n1 0"
    with pytest.raises(ModeMismatchError):
        parse_distance(text)
    assert parse_distance(text.replace("real", "liberal")).d("a", "b") is INF


def test_operator_table_roundtrip(tmp_path):
    op = OperatorTable(
        ("a", "b", "c"),
        {
            (frozenset({"a"}), frozenset({"b", "c"})): frozenset({"b"}),
            (frozenset(), frozenset({"c"})): frozenset(),
        },
    )
    path = tmp_path / "op.txt"
    save_operator_table(op, path)
    loaded, backing = load_operator_table(path)
    assert loaded.universe == op.universe
    assert loaded.entries == op.entries
    assert backing is None


def test_operator_table_with_backing(tmp_path):
    dist = _sample_distance()
    save_distance(dist, tmp_path / "d.txt")
    op = OperatorTable(
        ("a", "b", "c"),
        {(frozenset({"a"}), frozenset({"b"})): frozenset({"b"})},
        backing=dist,
    )
    save_operator_table(op, tmp_path / "op.txt", backing_ref="d.txt")
    loaded, backing = load_operator_table(tmp_path / "op.txt")
    # the backing is named, resolved against the table's directory, not read
    assert (loaded.backing, backing) == (None, str(tmp_path / "d.txt"))
    loaded = OperatorTable(loaded.universe, loaded.entries, load_distance(backing))
    assert loaded.lookup({"b"}, {"a", "c"}) == {"a", "c"}


def test_operator_table_parse_errors():
    with pytest.raises(FileFormatError):
        parse_operator_table("entry: a | b -> a")  # missing universe
    with pytest.raises(FileFormatError):
        parse_operator_table("universe: a b\nentry: a b a")  # bad shape
    with pytest.raises(FileFormatError):
        parse_operator_table(
            "universe: a b\nentry: a | b -> b\nentry: a | b -> -"
        )  # duplicate


def test_operator_table_refuses_a_point_labelled_dash(tmp_path):
    # '-' is the empty set in entries, so {'-'} would read back as {}
    with pytest.raises(FileFormatError, match="line 2: '-' is the empty set"):
        parse_operator_table("# a dash point\nuniverse: - a\nentry: a | - a -> -")
    op = OperatorTable(("-", "a"), {(frozenset("a"), frozenset({"-", "a"})): frozenset("-")})
    with pytest.raises(FileFormatError, match="'-' would read back as the empty set"):
        format_operator_table(op)
    with pytest.raises(FileFormatError):
        save_operator_table(op, tmp_path / "op.txt")
    assert not (tmp_path / "op.txt").exists()


@pytest.mark.parametrize("label", ["a#b", "x|y", "a->b", "p q", "p\tq", "", "-"])
def test_operator_table_refuses_a_label_that_does_not_read_back(tmp_path, label):
    # a '#' starts a comment, '|' and '->' split an entry, whitespace splits
    # a label, and '-' is the empty set: such a table would load as another
    # table or not at all
    op = OperatorTable(("a", label), {(frozenset("a"), frozenset({"a", label})): frozenset({label})})
    with pytest.raises(FileFormatError, match=f"labelled {re.escape(repr(label))}"):
        format_operator_table(op)
    with pytest.raises(FileFormatError):
        save_operator_table(op, tmp_path / "op.txt")
    assert not (tmp_path / "op.txt").exists()


@pytest.mark.parametrize("label", ["a#b", "p q", "p\nq", ""])
def test_distance_refuses_a_label_that_does_not_read_back(tmp_path, label):
    dist = PseudoDistance.from_function(("a", label), OrderMode.REAL, lambda v, w: F(v != w))
    with pytest.raises(FileFormatError, match=f"labelled {re.escape(repr(label))}"):
        format_distance(dist)
    with pytest.raises(FileFormatError):
        save_distance(dist, tmp_path / "d.txt")
    assert not (tmp_path / "d.txt").exists()


def test_labels_with_marks_inside_a_word_round_trip(tmp_path):
    # '-' and '>' inside a label are no syntax of the operator format, and
    # '|', '->' and '-' none of the distance format
    labels = ("a-", "-b", "c>", "x:y", "entry:", "é")
    entries = {(frozenset(labels[:2]), frozenset(labels[2:])): frozenset(labels[3:5]),
               (frozenset(), frozenset(labels[5:])): frozenset()}
    op = OperatorTable(labels, entries)
    save_operator_table(op, tmp_path / "op.txt")
    loaded, _ = load_operator_table(tmp_path / "op.txt")
    assert (loaded.universe, loaded.entries) == (op.universe, op.entries)
    points = ("x|y", "a->b", "-", "c")
    dist = PseudoDistance.from_function(points, OrderMode.REAL,
                                        lambda v, w: F(points.index(v) + 2 * points.index(w)))
    save_distance(dist, tmp_path / "d.txt")
    loaded = load_distance(tmp_path / "d.txt")
    assert (loaded.universe, loaded.table) == (dist.universe, dist.table)


def test_family_roundtrip():
    sets = [frozenset({"a"}), frozenset({"a", "b"})]
    assert parse_family("a\na b\n") == sets
    with pytest.raises(FileFormatError):
        parse_family("a\n-\n")
    with pytest.raises(FileFormatError, match="line 2: repeated"):
        parse_family("a\nb a b\n")


@pytest.mark.parametrize("text", ["universe: a b\nentry: a a | b -> b",
                                  "universe: a b\nentry: a | b b -> b",
                                  "universe: a b\nentry: a | a b -> b b"])
def test_operator_entry_repeats_a_label(text):
    with pytest.raises(FileFormatError, match="line 2: repeated labels in one set"):
        parse_operator_table(text)


def test_theory_file():
    sig, formulas = parse_theory_file("atoms: p q\np & q\n!p | q\n")
    assert sig == ("p", "q")
    assert [formula_to_text(f) for f in formulas] == ["p & q", "!p | q"]
    with pytest.raises(FileFormatError):
        parse_theory_file("atoms: p\nq\n")  # unknown atom
    with pytest.raises(FileFormatError):
        parse_theory_file("")
    with pytest.raises(FileFormatError, match="line 1: repeated atoms"):
        parse_theory_file("atoms: p q p\np\n")
