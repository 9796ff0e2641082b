"""Structured-text file formats: distances, operator tables, set families
and theories.

All formats are line-oriented; ``#`` starts a comment and blank lines are
ignored.  The empty set is written ``-``.
"""

from __future__ import annotations

import os

from .costs import OrderMode, PseudoDistance, format_cost, parse_cost
from .distops import OperatorTable
from .errors import FileFormatError
from .logic import parse_formula


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _header(line, key, lineno):
    prefix = key + ":"
    if not line.startswith(prefix):
        raise FileFormatError(f"line {lineno}: expected {prefix!r}")
    return line[len(prefix):].strip()


def _labels(text):
    return tuple(text.split())


def _distinct(labels, lineno, what):
    """``labels``, refused naming the line when one of them repeats."""
    repeated = sorted({a for a in labels if labels.count(a) > 1})
    if repeated:
        raise FileFormatError(f"line {lineno}: repeated {what} {repeated}")
    return labels


def _set_labels(text, lineno):
    text = text.strip()
    if text == "-":
        return frozenset()
    return frozenset(_distinct(text.split(), lineno, "labels in one set"))


def _format_set(labels):
    return " ".join(sorted(labels)) if labels else "-"


# ---------------------------------------------------------------------------
# Distances


def parse_distance(text):
    """points, order mode, then one cost row per point (row-major)."""
    lines = list(_logical_lines(text))
    if len(lines) < 2:
        raise FileFormatError("distance file needs mode, points, and cost rows")
    try:
        mode = OrderMode(_header(lines[0][1], "mode", lines[0][0]))
    except ValueError as exc:
        raise FileFormatError(f"line {lines[0][0]}: unknown order mode") from exc
    points = _labels(_header(lines[1][1], "points", lines[1][0]))
    if len(points) != len(set(points)):
        raise FileFormatError("duplicate point labels")
    rows = lines[2:]
    if len(rows) != len(points):
        raise FileFormatError(
            f"expected {len(points)} cost rows, found {len(rows)}"
        )
    table = {}
    for (lineno, line), v in zip(rows, points):
        cells = line.split()
        if len(cells) != len(points):
            raise FileFormatError(f"line {lineno}: expected {len(points)} costs")
        for w, cell in zip(points, cells):
            table[(v, w)] = parse_cost(cell)
    return PseudoDistance(points, mode, table)


def format_distance(dist):
    out = [f"mode: {dist.mode.value}", "points: " + " ".join(dist.universe)]
    for v in dist.universe:
        out.append(" ".join(format_cost(dist.d(v, w)) for w in dist.universe))
    return "\n".join(out) + "\n"


def load_distance(path):
    with open(path, encoding="utf-8") as fh:
        return parse_distance(fh.read())


def save_distance(dist, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_distance(dist))


# ---------------------------------------------------------------------------
# Operator tables


def _backing_ref(lines):
    """The distance file named on an operator file's optional ``backing:``
    line, its second logical line, or None."""
    if len(lines) > 1 and lines[1][1].startswith("backing:"):
        return _header(lines[1][1], "backing", lines[1][0])
    return None


def parse_operator_table(text, base_dir="."):
    """universe, optional backing distance file, then ``entry: V | W -> X``
    lines with space-separated labels (``-`` for the empty set)."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FileFormatError("empty operator file")
    universe = _labels(_header(lines[0][1], "universe", lines[0][0]))
    ref = _backing_ref(lines)
    backing = None if ref is None else load_distance(os.path.join(base_dir, ref))
    entries = {}
    for lineno, line in lines[1 + (ref is not None):]:
        body = _header(line, "entry", lineno)
        try:
            args, result = body.rsplit("->", 1)
            vpart, wpart = args.split("|")
        except ValueError as exc:
            raise FileFormatError(
                f"line {lineno}: expected 'entry: V | W -> X'"
            ) from exc
        key = (_set_labels(vpart, lineno), _set_labels(wpart, lineno))
        if key in entries:
            raise FileFormatError(f"line {lineno}: duplicate entry")
        entries[key] = _set_labels(result, lineno)
    return OperatorTable(universe, entries, backing=backing)


def format_operator_table(op, backing_ref=None):
    out = ["universe: " + " ".join(op.universe)]
    if backing_ref is not None:
        out.append(f"backing: {backing_ref}")
    for (vset, wset), xset in op.sorted_entries():
        out.append(
            f"entry: {_format_set(vset)} | {_format_set(wset)} -> {_format_set(xset)}"
        )
    return "\n".join(out) + "\n"


def load_operator_table(path):
    with open(path, encoding="utf-8") as fh:
        return parse_operator_table(fh.read(), base_dir=os.path.dirname(path) or ".")


def operator_backing_path(path):
    """The path of the distance file that the operator file at ``path`` is
    backed by, resolved against that file's directory as
    ``load_operator_table`` resolves it, or None when it has no backing."""
    with open(path, encoding="utf-8") as fh:
        ref = _backing_ref(list(_logical_lines(fh.read())))
    return None if ref is None else os.path.join(os.path.dirname(path) or ".", ref)


def save_operator_table(op, path, backing_ref=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_operator_table(op, backing_ref))


# ---------------------------------------------------------------------------
# Set families


def parse_family(text):
    """One set per line, space-separated labels; the empty set is rejected."""
    sets = []
    for lineno, line in _logical_lines(text):
        labels = _set_labels(line, lineno)
        if not labels:
            raise FileFormatError(f"line {lineno}: family sets must be non-empty")
        sets.append(labels)
    return sets


def load_family(path):
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read())


# ---------------------------------------------------------------------------
# Theories


def parse_theory_file(text):
    """atoms header, then one formula per line; returns (signature, formulas)."""
    lines = list(_logical_lines(text))
    if not lines:
        raise FileFormatError("empty theory file")
    lineno, header = lines[0]
    signature = _distinct(_labels(_header(header, "atoms", lineno)), lineno, "atoms")
    formulas = []
    for lineno, line in lines[1:]:
        try:
            formulas.append(parse_formula(line, signature))
        except Exception as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    return signature, tuple(formulas)


def load_theory_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_theory_file(fh.read())
