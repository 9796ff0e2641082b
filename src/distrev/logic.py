"""Propositional formulas, matrix semantics, and model-set operators.

Formulas are plain ASTs over a declared finite signature.  Truth values come
from a matrix (truth-value set, designated subset, one table per connective);
the classical two-valued matrix is the built-in default.  Theories are
represented by their model sets throughout the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundExceededError,
    FormulaParseError,
    MatrixError,
    UnknownAtomError,
)

# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class TrueConst:
    pass


@dataclass(frozen=True)
class FalseConst:
    pass


Formula = Atom | Not | And | Or | Implies | Iff | TrueConst | FalseConst

TRUE = TrueConst()
FALSE = FalseConst()


# ---------------------------------------------------------------------------
# Binary connectives
#
# One row per binary connective, tightest binding first: its AST class, the
# name of its matrix table, its precedence, its symbol, and whether it is
# right-associative.  The tokenizer, parser, printer, evaluator and
# definable-set closure all read these rows; the closure tries the matrix
# tables in row order.


@dataclass(frozen=True)
class _Binary:
    cls: type
    table: str
    prec: int
    symbol: str
    right_assoc: bool


_BINARY = (
    _Binary(And, "and", 4, "&", False),
    _Binary(Or, "or", 3, "|", False),
    _Binary(Implies, "implies", 2, "->", True),
    _Binary(Iff, "iff", 1, "<->", True),
)
_BY_CLASS = {row.cls: row for row in _BINARY}
_BY_SYMBOL = {row.symbol: row for row in _BINARY}


# ---------------------------------------------------------------------------
# Parser
#
# Grammar: atoms /[a-z][a-z0-9_]*/, literals "true"/"false", prefix "!"
# binding tightest, the binary connectives of ``_BINARY``, parentheses.


def _tokenize(text):
    # longest symbol first, so "<->" is not read as "<" and "->"
    symbols = sorted([*_BY_SYMBOL, "!", "(", ")"], key=len, reverse=True)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        sym = next((s for s in symbols if text.startswith(s, i)), None)
        if sym is not None:
            tokens.append((sym, i))
            i += len(sym)
        elif ch.isspace():
            i += 1
        elif ch.isalpha() and ch.islower():
            j = i + 1
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            tokens.append(("name:" + text[i:j], i))
            i = j
        else:
            raise FormulaParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", n))
    return tokens


def parse_formula(text, signature=None):
    """Parse ``text`` into a Formula, validating atoms against ``signature``.
    Binary connectives are read by precedence climbing over ``_BINARY``."""
    tokens = _tokenize(text)[::-1]  # the next token last
    names = frozenset(signature) if signature is not None else None

    def operand():
        tok, off = tokens.pop()
        if tok == "!":
            return Not(operand())
        if tok == "(":
            node = climb(0)
            tok, off = tokens.pop()
            if tok != ")":
                raise FormulaParseError(f"expected ')', found {tok!r}", off)
            return node
        if tok.startswith("name:"):
            name = tok[5:]
            if name == "true":
                return TRUE
            if name == "false":
                return FALSE
            if names is not None and name not in names:
                raise UnknownAtomError(f"unknown atom {name!r} at offset {off}")
            return Atom(name)
        raise FormulaParseError(f"expected a formula, found {tok!r}", off)

    def climb(min_prec):
        """An operand, then every connective that binds at least ``min_prec``."""
        node = operand()
        while (row := _BY_SYMBOL.get(tokens[-1][0])) and row.prec >= min_prec:
            tokens.pop()
            node = row.cls(node, climb(row.prec if row.right_assoc else row.prec + 1))
        return node

    node = climb(0)
    tok, off = tokens[-1]
    if tok != "end":
        raise FormulaParseError(f"trailing input {tok!r}", off)
    return node


def formula_to_text(phi):
    """Render a formula back to the concrete grammar, parenthesized only
    where needed.  Both operands print at the connective's precedence, the
    left one a level tighter under a right-associative connective, so
    right-nested ``&`` and ``|`` chains print flat."""

    def render(f, parent_prec):
        if isinstance(f, Atom):
            return f.name
        if isinstance(f, TrueConst):
            return "true"
        if isinstance(f, FalseConst):
            return "false"
        if isinstance(f, Not):
            return "!" + render(f.arg, math.inf)
        row = _BY_CLASS[type(f)]
        left = render(f.left, row.prec + 1 if row.right_assoc else row.prec)
        out = f"{left} {row.symbol} {render(f.right, row.prec)}"
        return f"({out})" if row.prec < parent_prec else out

    return render(phi, 0)


# ---------------------------------------------------------------------------
# Matrices and valuations


@dataclass(frozen=True)
class Matrix:
    """Truth-value semantics: value labels, designated subset, connective tables.

    Tables are keyed by connective name; each maps input tuples to a value.
    The constants ``true``/``false`` are zero-ary connectives keyed by ().
    """

    values: tuple
    designated: frozenset
    tables: dict

    def __post_init__(self):
        if not self.designated:
            raise MatrixError("designated set must be non-empty")
        if self.designated >= set(self.values):
            raise MatrixError("designated set must be a proper subset of the values")

    def __hash__(self):
        return hash((self.values, self.designated))

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise MatrixError(f"matrix has no table for connective {name!r}") from None


def _classical():
    b = ("0", "1")
    tables = {
        "not": {("0",): "1", ("1",): "0"},
        "and": {(x, y): "1" if x == "1" and y == "1" else "0" for x in b for y in b},
        "or": {(x, y): "1" if x == "1" or y == "1" else "0" for x in b for y in b},
        "implies": {(x, y): "0" if x == "1" and y == "0" else "1" for x in b for y in b},
        "iff": {(x, y): "1" if x == y else "0" for x in b for y in b},
        "true": {(): "1"},
        "false": {(): "0"},
    }
    return Matrix(values=b, designated=frozenset({"1"}), tables=tables)


CLASSICAL = _classical()


@dataclass(frozen=True)
class Valuation:
    """A total assignment of truth values to the atoms of one signature."""

    atoms: tuple
    values: tuple

    def __post_init__(self):
        # model sets hash valuations constantly; hash the fields once
        object.__setattr__(self, "_hash", hash((self.atoms, self.values)))

    def __hash__(self):
        return self._hash

    def __getitem__(self, atom):
        try:
            return self.values[self.atoms.index(atom)]
        except ValueError:
            raise UnknownAtomError(f"atom {atom!r} not in signature") from None

    def label(self):
        return "".join(str(x) for x in self.values)

    def __lt__(self, other):
        if not isinstance(other, Valuation):
            return NotImplemented
        return (self.atoms, self.values) < (other.atoms, other.values)

    def __repr__(self):
        return f"Valuation({self.label()})"


def eval_formula(v, phi, matrix=CLASSICAL):
    """Homomorphic evaluation of ``phi`` under valuation ``v``."""
    if isinstance(phi, Atom):
        return v[phi.name]
    if isinstance(phi, TrueConst):
        return matrix.table("true")[()]
    if isinstance(phi, FalseConst):
        return matrix.table("false")[()]
    if isinstance(phi, Not):
        return matrix.table("not")[(eval_formula(v, phi.arg, matrix),)]
    row = _BY_CLASS[type(phi)]
    left = eval_formula(v, phi.left, matrix)
    right = eval_formula(v, phi.right, matrix)
    return matrix.table(row.table)[(left, right)]


def satisfies(v, phi, matrix=CLASSICAL):
    return eval_formula(v, phi, matrix) in matrix.designated


# Every enumeration of one universe hands out the same Valuation objects, so
# model sets, revision caches and distance universes built by separate calls
# compare their members by identity instead of by the dataclass __eq__.  The
# cache holds at most 8 universes, each within the caller's bound.
@functools.lru_cache(maxsize=8)
def _valuations(sig, values):
    return tuple(
        Valuation(sig, combo) for combo in itertools.product(values, repeat=len(sig))
    )


def enumerate_valuations(signature, matrix=CLASSICAL, bound=1_000_000):
    """All valuations over ``signature``, lexicographic by atom order then
    truth-value order."""
    sig = tuple(signature)
    total = len(matrix.values) ** len(sig)
    if total > bound:
        raise BoundExceededError(
            f"{total} valuations exceed the bound of {bound}"
        )
    return list(_valuations(sig, matrix.values))


def models(gamma, signature, matrix=CLASSICAL):
    """The model set of a formula collection: valuations designating every
    member of ``gamma``."""
    result = []
    for v in enumerate_valuations(signature, matrix):
        if all(satisfies(v, phi, matrix) for phi in gamma):
            result.append(v)
    return frozenset(result)


def hamming_diff(v, w):
    """The set of atoms on which two valuations of one signature differ."""
    if v.atoms != w.atoms:
        raise UnknownAtomError("valuations must share a signature")
    return frozenset(a for a, x, y in zip(v.atoms, v.values, w.values) if x != y)


def sort_valuations(model_set):
    return sorted(model_set, key=lambda v: v.values)


def canonical_dnf(model_set, signature):
    """Canonical disjunctive normal form of a classical model set.

    Empty set maps to ``false``; each valuation contributes its minterm.
    """
    sig = tuple(signature)
    if not model_set:
        return FALSE
    disjuncts = []
    for v in sort_valuations(model_set):
        lits = [
            Atom(a) if v[a] == "1" else Not(Atom(a))
            for a in sig
        ]
        term = lits[0]
        for lit in lits[1:]:
            term = And(term, lit)
        disjuncts.append(term)
    out = disjuncts[0]
    for term in disjuncts[1:]:
        out = Or(out, term)
    return out


# ---------------------------------------------------------------------------
# Definable sets under a general matrix
#
# Formula extensions over a finite signature form the clone generated by the
# atom projections (plus constants) under the matrix connectives.  The sets
# definable by a single formula are the preimages of the designated values;
# the sets definable by a formula collection are their intersections.


_BLOCK_PAIRS = 1 << 14  # (f, g) pairs per vectorized closure step


def _distinct_rows(words):
    """The distinct rows of ``words`` [row, word], numbered in ascending
    order of their word tuples: a representative row index per number, each
    row's number, and the ranking's steps, which ``distops._row_index``
    reads to number other rows alike.  Word column j is ranked among its
    distinct values, and the step keeps those values; past the first column
    a row's number so far and its rank there make one number, ranked in
    turn among the rows' numbers, and the step keeps those numbers too, so
    each number stays below the row count.  The values sort in Python:
    numpy's integer sorts would map about 0.3 MB more of its code into the
    process."""
    def distinct(column):  # sorted, and each entry's rank
        # the set takes one value at a time: a list would hold an int object per row
        values = np.array(sorted(set(memoryview(column.astype(np.uint64)))), column.dtype)
        return values, np.searchsorted(values, column)

    steps, number = [], None
    for column in words.T:
        values, rank = distinct(column)
        pairs, number = (None, rank) if number is None else distinct(number * len(values) + rank)
        steps.append((values, pairs))
    first = np.empty(len(values if pairs is None else pairs), dtype=np.intp)
    first[number] = np.arange(len(words))
    return first, number, steps


def formula_extensions(signature, matrix, bound=200_000):
    """All functions valuation -> value realized by some formula.

    Returns the valuations and a 2-D array with one row per function: its
    values on the valuations, as codes indexing ``matrix.values``.  The
    closure runs on the codes with flat connective tables, over blocks of
    about 2^14 (f, g) pairs, so temporaries stay bounded.  Once all k^n
    functions are known it builds no further block.
    """
    vals = enumerate_valuations(signature, matrix)
    k = len(matrix.values)
    code = {x: i for i, x in enumerate(matrix.values)}
    dtype = np.min_scalar_type(k - 1)
    gens = [[code[v[a]] for v in vals] for a in tuple(signature)]
    for const in ("true", "false"):
        if const in matrix.tables:
            gens.append([code[matrix.tables[const][()]]] * len(vals))
    unary = [
        np.array([code[matrix.tables[name][(x,)]] for x in matrix.values], dtype)
        for name in ("not",) if name in matrix.tables
    ]
    binary = [
        np.array([code[matrix.tables[row.table][(x, y)]]
                  for x in matrix.values for y in matrix.values], dtype)
        for row in _BINARY if row.table in matrix.tables
    ]
    width = len(vals)
    size = width * dtype.itemsize
    seen = set()

    def fresh(candidates):
        # the distinct rows in byte order: their bytes, zero-padded to whole
        # big-endian words, compare as the bytes do
        padded = np.zeros((len(candidates), -(-size // 8) * 8), np.uint8)
        padded[:, :size] = candidates.view(np.uint8)
        first, _, _ = _distinct_rows(padded.view(">u8"))
        out = [key for key in map(bytes, candidates[first]) if key not in seen]
        seen.update(out)
        return out

    def candidates(frontier, known):
        """One round's candidate rows, block by block, built on demand."""
        for tbl in unary:
            yield tbl[frontier]
        # left operands scaled once into rows of the flat tables
        known_k = known.astype(np.intp) * k
        step = max(1, _BLOCK_PAIRS // len(known))
        for lo in range(0, len(frontier), step):
            block = frontier[lo:lo + step].astype(np.intp)
            for tbl in binary:
                yield tbl[block[:, None, :] * k + known[None, :, :]].reshape(-1, width)
                yield tbl[known_k[None, :, :] + block[:, None, :]].reshape(-1, width)

    known = np.frombuffer(b"".join(fresh(np.array(gens, dtype).reshape(-1, width))),
                          dtype).reshape(-1, width)
    frontier = known
    while len(frontier):
        if len(known) > bound:
            raise BoundExceededError("formula-extension closure exceeds bound")
        new = []
        for rows in candidates(frontier, known):
            if len(seen) == k ** width:  # every function is known
                break
            new += fresh(rows)
        frontier = np.frombuffer(b"".join(new), dtype).reshape(-1, width)
        known = np.concatenate([known, frontier])
    return vals, known


def definable_model_sets(signature, matrix=CLASSICAL, bound=200_000):
    """Model sets of formula collections: closure of single-formula model
    sets under intersection, plus the full set (empty collection), as a
    frozenset of frozensets.  The closure runs on bitmasks over the
    valuation order.  Each call computes afresh; the revision checkers keep
    one result per (signature, matrix) in their model-set space."""
    vals, extensions = formula_extensions(signature, matrix, bound)
    designated = np.array([x in matrix.designated for x in matrix.values])
    bits = np.packbits(designated[extensions], axis=1, bitorder="little")
    single = {int.from_bytes(row.tobytes(), "little") for row in bits}
    full = (1 << len(vals)) - 1
    closed = single | {full}
    frontier = list(closed)
    while frontier and len(closed) < 1 << len(vals):  # not yet every set
        new = []
        for s in frontier:
            for t in single:
                r = s & t
                if r not in closed:
                    closed.add(r)
                    new.append(r)
        frontier = new
    return frozenset(
        frozenset(vals[i] for i in range(len(vals)) if mask >> i & 1)
        for mask in closed
    )
