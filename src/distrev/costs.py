"""Exact costs, pseudo-distance tables, and distance-property checkers.

Costs are exact rationals, optionally extended with a single infinite top
element, ``INF``, which compares and adds natively: it is above every finite
cost, equal only to itself, and absorbs addition.  So costs form one total
order under Python's own operators.  Two order modes exist: the real order
(finite costs only, enforced when a ``PseudoDistance`` is built) and the
liberal order (``INF`` admitted).

Costs stay exact at the input/output boundary.  The minimization only needs
their order, so each distance compiles once, on first use, to integer ranks
(``PseudoDistance.kernel``) and the hot loops compare plain ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .errors import FileFormatError, ModeMismatchError, UnknownAtomError
from .logic import hamming_diff


@functools.total_ordering
class _Infinite:
    """The infinite cost: the top of the cost order and absorbing under
    addition.  Its one instance is the module singleton INF."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __lt__(self, other):
        return False if other is self or isinstance(other, Rational) else NotImplemented

    def __add__(self, other):
        return self if other is self or isinstance(other, Rational) else NotImplemented

    __radd__ = __add__


INF = _Infinite()


class OrderMode(Enum):
    REAL = "real"
    LIBERAL = "liberal"


def parse_cost(text):
    """Parse "num/den", decimal shorthand ("1.4"), or "inf"."""
    text = text.strip()
    if text == "inf":
        return INF
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FileFormatError(f"bad cost literal {text!r}") from exc


def format_cost(c):
    if c is INF:
        return "inf"
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True)
class PseudoDistance:
    """A finite universe of labeled points with a total cost table."""

    universe: tuple
    mode: OrderMode
    table: dict

    def __post_init__(self):
        points = set(self.universe)
        for v in self.universe:
            for w in self.universe:
                if (v, w) not in self.table:
                    raise UnknownAtomError(f"cost table misses pair ({v}, {w})")
        for (v, w), c in self.table.items():
            if v not in points or w not in points:
                raise UnknownAtomError(f"pair ({v}, {w}) outside the universe")
            if c is INF and self.mode is OrderMode.REAL:
                raise ModeMismatchError(
                    f"infinite cost at ({v}, {w}) under the real order"
                )

    def d(self, v, w):
        return self.table[(v, w)]

    @functools.cached_property
    def kernel(self):
        """The table compiled to integers on first use and cached on the
        instance: ``(index, ranks)`` where ``index`` maps each point to its
        row and ``ranks[i][j]`` is the dense rank of d(point i, point j)
        among the distinct costs.  The infinite cost, admitted only under
        the liberal order, ranks above every finite one.  Ranks keep
        the order and the ties of the costs, which is all minimization
        needs.  Costs are keyed by ``as_integer_ratio()``, INF by itself, so
        no Fraction is hashed.  The cache is not a field, so it stays out
        of equality, repr and ``replaced()`` copies."""
        pts = self.universe
        costs = [self.table[v, w] for v in pts for w in pts]
        keys = [c if c is INF else c.as_integer_ratio() for c in costs]
        distinct = dict(zip(keys, costs))
        rank = {key: i for i, key in enumerate(sorted(distinct, key=distinct.__getitem__))}
        flat, n = [rank[key] for key in keys], len(pts)
        return {p: i for i, p in enumerate(pts)}, [flat[i * n:i * n + n] for i in range(n)]

    @classmethod
    def from_function(cls, universe, mode, fn):
        universe = tuple(universe)
        table = {(v, w): fn(v, w) for v in universe for w in universe}
        return cls(universe, mode, table)

    def replaced(self, overrides):
        """A copy with some pair costs replaced."""
        table = dict(self.table)
        table.update(overrides)
        return PseudoDistance(self.universe, self.mode, table)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one exhaustive property check: every violation counted,
    the first few kept as witnesses."""

    name: str
    witnesses: list
    total_violations: int

    @property
    def passed(self):
        return not self.total_violations

    @classmethod
    def of(cls, name, violations, witness_cap=16, witness=None):
        """The report of ``violations``, a sequence in order.  With
        ``witness`` given, only the first ``witness_cap`` violations are
        passed to it, and its results are the witnesses."""
        kept = violations[:witness_cap]
        return cls(name, list(kept if witness is None else map(witness, kept)),
                   len(violations))


REAL_PROPERTIES = ("symmetric", "ir", "positive", "tir")
LIBERAL_PROPERTIES = ("symmetric", "liberal_ir", "liberal_positive", "liberal_tir")


def check_property(dist, prop, witness_cap=16):
    """Exhaustively check one distance property; witnesses in deterministic
    order.  ``prop`` is one of symmetric, ir, positive, tir, or a liberal_
    form of the last three: that check under the liberal order, inf on top."""
    if prop not in REAL_PROPERTIES + LIBERAL_PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    if prop in ("ir", "positive", "tir") and dist.mode is not OrderMode.REAL:
        raise ModeMismatchError(f"{prop} requires the real order mode")
    if prop.startswith("liberal_") and dist.mode is not OrderMode.LIBERAL:
        raise ModeMismatchError(f"{prop} requires the liberal order mode")
    base = prop.removeprefix("liberal_")
    pts, d = dist.universe, dist.d
    if base == "symmetric":
        found = [(v, w) for i, v in enumerate(pts) for w in pts[i + 1:] if d(v, w) != d(w, v)]
    elif base == "ir":
        found = [(v, w) for v in pts for w in pts if (d(v, w) == 0) != (v == w)]
    elif base == "positive":
        found = [(v, w) for v in pts for w in pts if d(v, w) < 0]
    else:
        found = [(v, w, x) for v in pts for w in pts for x in pts
                 if d(v, x) > d(v, w) + d(w, x)]
    return PropertyReport.of(prop, found, witness_cap)


def check_hir(dist, vals, witness_cap=16):
    """Hamming-inequality respect: strictly fewer differing atoms forces a
    strictly smaller cost.  ``vals`` maps every universe point to a valuation."""
    for p in dist.universe:
        if p not in vals:
            raise UnknownAtomError(f"point {p!r} has no valuation")
    pts = dist.universe
    hsize = {(v, w): len(hamming_diff(vals[v], vals[w])) for v in pts for w in pts}
    found = [(v, w, x) for v in pts for w in pts for x in pts
             if hsize[(v, w)] < hsize[(v, x)] and not dist.d(v, w) < dist.d(v, x)]
    return PropertyReport.of("hir", found, witness_cap)
