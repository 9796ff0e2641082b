"""Distance-based revision over formula sets, with postulate checkers.

Theories are represented by their canonical model set; deductive closure and
presentation invariance are thereby structural, and the remaining postulate
content is checked exhaustively or by seeded sampling.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .costs import OrderMode, PropertyReport, PseudoDistance
from .distops import (
    SWEEP_MAX_BYTES,
    _draws,
    _membership_rows,
    _row_keys,
    _row_sets,
    apply,
    apply_rows,
    check_loop,
)
from .errors import BoundExceededError, InconsistentTheoryError, UnknownAtomError
from .logic import (
    CLASSICAL,
    canonical_dnf,
    definable_model_sets,
    enumerate_valuations,
    hamming_diff,
    models,
    parse_formula,
)


@dataclass(frozen=True)
class Theory:
    """A deductively closed formula set, carried as its model set plus an
    optional original presentation."""

    signature: tuple
    model_set: frozenset
    presentation: tuple = field(default=(), compare=False)

    @property
    def consistent(self):
        return bool(self.model_set)

    def canonical_formula(self):
        return canonical_dnf(self.model_set, self.signature)

    @classmethod
    def from_formulas(cls, formulas, signature, matrix=CLASSICAL):
        sig = tuple(signature)
        parsed = tuple(
            parse_formula(f, sig) if isinstance(f, str) else f for f in formulas
        )
        return cls(sig, frozenset(models(parsed, sig, matrix)), parsed)


def valuation_universe(signature, matrix=CLASSICAL):
    return tuple(enumerate_valuations(signature, matrix))


def hamming_pseudo_distance(signature, matrix=CLASSICAL):
    """Cost = number of differing atoms, over all valuations of a signature,
    under the real order."""
    universe = valuation_universe(signature, matrix)
    return PseudoDistance.from_function(
        universe, OrderMode.REAL, lambda v, w: Fraction(len(hamming_diff(v, w)))
    )


@dataclass(frozen=True)
class RevisionOperator:
    """Revision at the model-set level: distance-backed minimization, or an
    arbitrary function for postulate auditing."""

    signature: tuple
    dist: PseudoDistance = None
    fn: object = None  # (frozenset, frozenset) -> frozenset

    def __post_init__(self):
        if (self.dist is None) == (self.fn is None):
            raise ValueError("exactly one of dist/fn must be given")

    def revise_models(self, vset, wset):
        if self.dist is not None:
            return apply(self.dist, vset, wset)
        return frozenset(self.fn(frozenset(vset), frozenset(wset)))

    def revise_rows(self, vrows, wrows, order):
        """Batch form of ``revise_models`` over P pairs given as boolean
        membership rows, their columns in ``order``: one ``apply_rows`` for
        a distance, else ``revise_models`` once per row, in row order."""
        if self.dist is not None:
            return apply_rows(self.dist, vrows, wrows, order)
        pairs = zip(_row_sets(vrows, order), _row_sets(wrows, order))
        return _membership_rows([self.revise_models(v, w) for v, w in pairs], order)

    @classmethod
    def from_distance(cls, dist, signature):
        return cls(tuple(signature), dist=dist)

    @classmethod
    def from_function(cls, fn, signature):
        return cls(tuple(signature), fn=fn)


def revise(op, gamma, delta):
    """Revise one consistent theory by another: the theory of the minimal
    models of the new information, seen from the old."""
    if not gamma.consistent:
        raise InconsistentTheoryError("cannot revise an inconsistent theory")
    if not delta.consistent:
        raise InconsistentTheoryError("cannot revise by an inconsistent theory")
    result = op.revise_models(gamma.model_set, delta.model_set)
    return Theory(gamma.signature, result)


def per_source_order_operator(signature, matrix=CLASSICAL, seed=0):
    """A sphere-style operator: each source model set gets its own arbitrary
    preference order over the valuations, and revision picks the preferred
    models of the input.  Satisfies inclusion by construction but, lacking a
    single global distance, can break the iterated-disjunction properties.
    Each order is drawn from a generator seeded by ``seed`` and the source's
    valuation indices, so answers do not depend on the order of queries."""
    universe = valuation_universe(signature, matrix)
    index = {v: i for i, v in enumerate(universe)}
    orders = {}

    def fn(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        if not vset or not wset:
            return frozenset()
        if vset not in orders:
            rng = random.Random(f"{seed}:{sorted(index[v] for v in vset)}")
            # few rank levels on purpose: ties let the disjunctive branch
            # reach source sets with genuinely unrelated orders
            orders[vset] = {v: rng.randrange(2) for v in universe}
        rank = orders[vset]
        best = min(rank[w] for w in wset)
        return frozenset(w for w in wset if rank[w] == best)

    return RevisionOperator.from_function(fn, signature)


# ---------------------------------------------------------------------------
# Postulate checkers


def nonempty_model_sets(signature, matrix=CLASSICAL):
    universe = valuation_universe(signature, matrix)
    out = []
    for r in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, r):
            out.append(frozenset(combo))
    return out


def _label(model_set):
    return sorted("".join(str(x) for x in v.values) for v in model_set)


def _read_only(rows):
    rows.flags.writeable = False
    return rows


class _ModelSetSpace:
    """The tables the checkers read for one signature and matrix, each
    built on first use: the valuation ``order``; the non-empty model
    ``sets`` and their membership ``rows``; the ``moved`` mask of the
    canonical-formula round trip; and the definable sets sorted by
    ``_label``, with their rows and packed row keys.  Rows have their
    columns in ``order`` and are read-only."""

    def __init__(self, signature, matrix):
        self.signature, self.matrix = signature, matrix
        self.order = valuation_universe(signature, matrix)

    @functools.cached_property
    def sets(self):
        return tuple(nonempty_model_sets(self.signature, self.matrix))

    @functools.cached_property
    def rows(self):
        return _read_only(_membership_rows(self.sets, self.order))

    @functools.cached_property
    def moved(self):
        """Whether rebuilding each set from its canonical formula changes it."""
        sig, matrix = self.signature, self.matrix
        trip = _membership_rows(
            [models([canonical_dnf(s, sig)], sig, matrix) for s in self.sets], self.order)
        return _read_only((trip != self.rows).any(axis=1))

    @functools.cached_property
    def definable(self):
        return tuple(sorted(definable_model_sets(self.signature, self.matrix), key=_label))

    @functools.cached_property
    def definable_rows(self):
        return _read_only(_membership_rows(self.definable, self.order))

    @functools.cached_property
    def definable_keys(self):
        return frozenset(_row_keys(self.definable_rows).tolist())


# Every checker call on one signature and matrix reads the same tables.  The
# cache holds at most 8 spaces, like the valuation cache.
@functools.lru_cache(maxsize=8)
def _model_set_space(signature, matrix):
    return _ModelSetSpace(signature, matrix)


def _labels(*model_sets):
    """A violation witness; built only for the witnesses a report keeps."""
    return tuple(_label(s) for s in model_sets)


def _pair_rows(rows):
    """Every ordered pair of ``rows``, the first member the outer order."""
    pick = np.arange(len(rows))
    return rows[np.repeat(pick, len(rows))], rows[np.tile(pick, len(rows))]


def check_agm(op, matrix=CLASSICAL, samples=10_000, seed=0, witness_cap=16):
    """Check the five revision postulates at the model-set level.

    Invariance under re-presentation and deductive closure are exhaustive
    over all consistent pairs, revised in one ``revise_rows`` batch; the
    composite postulate about conjoining extra information is sampled over
    triples with a fixed seed, and only the samples it constrains are
    revised again, in a second batch.  The model sets, their rows and their
    round trips come from the model-set space of (signature, matrix),
    built once and kept in a cache of 8 spaces.  Raises
    ``BoundExceededError`` before it builds the sets when the V and W rows
    of every pair and their index would take over ``SWEEP_MAX_BYTES``.
    """
    space = _model_set_space(op.signature, matrix)
    width = len(space.order)
    need = (2 ** width - 1) ** 2 * (2 * width + 8)  # V and W rows, and an index
    if need > SWEEP_MAX_BYTES:
        raise BoundExceededError(
            f"the postulate sweep over {width} valuations needs at least "
            f"2^{need.bit_length() - 1} bytes of pair rows, over the "
            f"{SWEEP_MAX_BYTES >> 20} MiB cap"
        )
    sets, order, rows = space.sets, space.order, space.rows
    n = len(sets)
    vrows, wrows = _pair_rows(rows)
    result = op.revise_rows(vrows, wrows, order)
    # invariance: rebuilding the arguments from their canonical formulas
    # must not change the outcome; each set makes the round trip once per
    # signature.  A pair that comes back unchanged is the same question
    # again, so only a pair with a moved set can fail it.
    moved = space.moved
    both = vrows & wrows
    failed = {
        "star0": (moved[:, None] | moved[None, :]).ravel(),
        "star1": ~result.any(axis=1),
        "star2": (result & ~wrows).any(axis=1),
        "star3": both.any(axis=1) & (result != both).any(axis=1),
    }
    reports = {name: PropertyReport.of(name, np.flatnonzero(bad), witness_cap,
                                       lambda p: _labels(sets[p // n], sets[p % n]))
               for name, bad in failed.items()}
    draws = _draws(random.Random(seed), n, 3 * samples).reshape(samples, 3)
    first = result.reshape(n, n, -1)[draws[:, 0], draws[:, 1]] & rows[draws[:, 2]]
    live = np.flatnonzero(first.any(axis=1))
    again = op.revise_rows(rows[draws[live, 0]],
                           rows[draws[live, 1]] & rows[draws[live, 2]], order)
    reports["star4"] = PropertyReport.of(
        "star4", live[(again != first[live]).any(axis=1)], witness_cap,
        lambda i: _labels(*(sets[j] for j in draws[i])))
    return reports


@dataclass(frozen=True)
class _ModelSetOperator:
    """Adapter presenting a revision operator as a set operator, so the loop
    checker applies unchanged."""

    universe: tuple
    op: object

    def lookup(self, vset, wset):
        return self.op.revise_models(vset, wset)

    def lookup_rows(self, vrows, wrows, order):
        return self.op.revise_rows(vrows, wrows, order)


def check_star_loop(op, k_max=None, matrix=CLASSICAL, budget=10**6):
    """The cyclic chain condition at the theory level: premises say each
    source stays compatible with its revised neighbor disjunction, the
    conclusion closes the cycle.  Union of model sets realizes the
    disjunction of theories; non-empty intersection realizes consistency
    of a union of theories.  ``check_loop`` walks the consistent theories,
    to its fixpoint or to the cut-off ``k_max``, under ``budget``."""
    space = _model_set_space(op.signature, matrix)
    adapter = _ModelSetOperator(space.order, op)
    return check_loop(adapter, space.sets, k_max, budget=budget)


def check_disjunction_iteration(op, matrix=CLASSICAL, samples=10_000, seed=0,
                                witness_cap=16):
    """The two iterated-revision properties for disjunctive information.

    With theories as model sets, "every conclusion reached after both
    branches survives the disjunctive branch" is containment of the
    disjunctive outcome in the union of the branch outcomes, and the
    converse property is containment of some branch outcome in the
    disjunctive outcome.
    """
    space = _model_set_space(op.signature, matrix)
    sets, order, rows = space.sets, space.order, space.rows
    draws = _draws(random.Random(seed), len(sets), 4 * samples).reshape(samples, 4)
    gamma, alpha, beta, delta = (rows[draws[:, i]] for i in range(4))
    # per sample the three branches alpha, beta and alpha v beta: revise
    # gamma by each in one batch, then each outcome by delta in another
    branches = np.stack([alpha, beta, alpha | beta], axis=1).reshape(3 * samples, -1)
    first = op.revise_rows(np.repeat(gamma, 3, axis=0), branches, order)
    second = op.revise_rows(first, np.repeat(delta, 3, axis=0), order)
    r_a, r_b, r_or = second.reshape(samples, 3, -1).transpose(1, 0, 2)
    failed = {
        "disjunction_iteration_1": (r_or & ~(r_a | r_b)).any(axis=1),
        "disjunction_iteration_2": (r_a & ~r_or).any(axis=1) & (r_b & ~r_or).any(axis=1),
    }
    return {name: PropertyReport.of(name, np.flatnonzero(bad), witness_cap,
                                    lambda i: _labels(*(sets[j] for j in draws[i])))
            for name, bad in failed.items()}


def check_dp_cp(dist, signature, matrix=CLASSICAL, pairs=None, witness_cap=16):
    """Definability preservation (results stay definable model sets) and
    consistency preservation (non-empty arguments give non-empty results).

    All pairs, by default every pair of definable sets, are minimized in
    one ``apply_rows`` batch over membership rows in valuation order;
    witnesses follow the pair order, and a valuation outside the signature
    raises ``UnknownAtomError``.  The definable sets, sorted by label, their
    rows and their packed keys come from the model-set space of
    (signature, matrix), built once and kept in a cache of 8 spaces."""
    space = _model_set_space(tuple(signature), matrix)
    order = space.order
    if set(dist.universe) != set(order):
        raise UnknownAtomError("distance universe must be the valuation universe")
    if pairs is None:
        defs = space.definable
        count = len(defs)
        vrows, wrows = _pair_rows(space.definable_rows)

        def pair_at(p):
            return defs[p // count], defs[p % count]
    else:
        pairs = list(pairs)
        inside = set(order)
        for p, (vset, wset) in enumerate(pairs):
            if not set(vset) | set(wset) <= inside:
                raise UnknownAtomError(f"pair {p} ({_label(vset)} | {_label(wset)}) has a "
                                       f"valuation outside the signature {tuple(signature)}")
        vrows = _membership_rows([v for v, _ in pairs], order)
        wrows = _membership_rows([w for _, w in pairs], order)
        pair_at = pairs.__getitem__
    result = apply_rows(dist, vrows, wrows, order)
    defined = space.definable_keys
    bad = [p for p, key in enumerate(_row_keys(result).tolist()) if key not in defined]
    empty = vrows.any(axis=1) & wrows.any(axis=1) & ~result.any(axis=1)
    return {
        "dp": PropertyReport.of("dp", bad, witness_cap, lambda p: _labels(
            *pair_at(p), *_row_sets(result[p:p + 1], order))),
        "cp": PropertyReport.of("cp", np.flatnonzero(empty), witness_cap,
                                lambda p: _labels(*pair_at(p))),
    }
