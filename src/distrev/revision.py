"""Distance-based revision over formula sets, with postulate checkers.

Theories are represented by their canonical model set; deductive closure and
presentation invariance are thereby structural, and the remaining postulate
content is checked exhaustively or by seeded sampling.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .costs import OrderMode, PropertyReport, PseudoDistance
from .distops import apply, apply_rows, check_loop
from .errors import InconsistentTheoryError, UnknownAtomError
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
    presentation: tuple = ()

    @property
    def consistent(self):
        return bool(self.model_set)

    def __eq__(self, other):
        if not isinstance(other, Theory):
            return NotImplemented
        return (self.signature, self.model_set) == (other.signature, other.model_set)

    def __hash__(self):
        return hash((self.signature, self.model_set))

    def canonical_formula(self):
        return canonical_dnf(self.model_set, self.signature)

    @classmethod
    def from_formulas(cls, formulas, signature, matrix=CLASSICAL):
        sig = tuple(signature)
        parsed = tuple(
            parse_formula(f, sig) if isinstance(f, str) else f for f in formulas
        )
        return cls(sig, frozenset(models(parsed, sig, matrix)), parsed)

    @classmethod
    def from_models(cls, model_set, signature):
        return cls(tuple(signature), frozenset(model_set))


def valuation_universe(signature, matrix=CLASSICAL):
    return tuple(enumerate_valuations(signature, matrix))


def hamming_pseudo_distance(signature, matrix=CLASSICAL, mode=OrderMode.REAL):
    """Cost = number of differing atoms, over all valuations of a signature."""
    universe = valuation_universe(signature, matrix)
    return PseudoDistance.from_function(
        universe, mode, lambda v, w: Fraction(len(hamming_diff(v, w)))
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
        object.__setattr__(self, "_cache", {})

    def revise_models(self, vset, wset):
        key = (frozenset(vset), frozenset(wset))
        if key not in self._cache:
            if self.dist is not None:
                self._cache[key] = apply(self.dist, *key)
            else:
                self._cache[key] = frozenset(self.fn(*key))
        return self._cache[key]

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
    single global distance, can break the iterated-disjunction properties."""
    universe = valuation_universe(signature, matrix)
    rng = random.Random(seed)
    orders = {}

    def fn(vset, wset):
        vset, wset = frozenset(vset), frozenset(wset)
        if not vset or not wset:
            return frozenset()
        if vset not in orders:
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


def _labels(*model_sets):
    """A violation witness; built only when a violation is recorded."""
    return tuple(_label(s) for s in model_sets)


def check_agm(op, matrix=CLASSICAL, samples=10_000, seed=0, witness_cap=16):
    """Check the five revision postulates at the model-set level.

    Invariance under re-presentation and deductive closure are exhaustive
    over all consistent pairs; the composite postulate about conjoining
    extra information is sampled over triples with a fixed seed.
    """
    sig = op.signature
    sets = nonempty_model_sets(sig, matrix)
    reports = {
        name: PropertyReport(name, True, witness_cap=witness_cap)
        for name in ("star0", "star1", "star2", "star3", "star4")
    }
    # invariance: rebuilding the arguments from their canonical formulas
    # must not change the outcome; each set makes the round trip once
    trip = {s: frozenset(models([canonical_dnf(s, sig)], sig, matrix)) for s in sets}
    for vset in sets:
        for wset in sets:
            result = op.revise_models(vset, wset)
            v2, w2 = trip[vset], trip[wset]
            if (v2, w2) != (vset, wset) or op.revise_models(v2, w2) != result:
                reports["star0"].record((_label(vset), _label(wset)))
            if not result:
                reports["star1"].record((_label(vset), _label(wset)))
            if not result <= wset:
                reports["star2"].record((_label(vset), _label(wset)))
            if vset & wset and result != vset & wset:
                reports["star3"].record((_label(vset), _label(wset)))
    rng = random.Random(seed)
    for _ in range(samples):
        vset = rng.choice(sets)
        wset = rng.choice(sets)
        w2 = rng.choice(sets)
        result = op.revise_models(vset, wset)
        if result & w2:
            if op.revise_models(vset, wset & w2) != result & w2:
                reports["star4"].record((_label(vset), _label(wset), _label(w2)))
    return reports


@dataclass(frozen=True)
class _ModelSetOperator:
    """Adapter presenting a revision operator as a set operator, so the loop
    checker applies unchanged."""

    universe: tuple
    op: object

    def lookup(self, vset, wset):
        return self.op.revise_models(vset, wset)


def check_star_loop(op, k_max=3, matrix=CLASSICAL, budget=10**6,
                    samples=10_000, seed=0):
    """The cyclic chain condition at the theory level: premises say each
    source stays compatible with its revised neighbor disjunction, the
    conclusion closes the cycle.  Union of model sets realizes the
    disjunction of theories; non-empty intersection realizes consistency
    of a union of theories."""
    sig = op.signature
    universe = valuation_universe(sig, matrix)
    sets = nonempty_model_sets(sig, matrix)
    adapter = _ModelSetOperator(universe, op)
    return check_loop(adapter, sets, k_max, budget=budget, samples=samples, seed=seed)


def check_disjunction_iteration(op, matrix=CLASSICAL, samples=10_000, seed=0,
                                witness_cap=16):
    """The two iterated-revision properties for disjunctive information.

    With theories as model sets, "every conclusion reached after both
    branches survives the disjunctive branch" is containment of the
    disjunctive outcome in the union of the branch outcomes, and the
    converse property is containment of some branch outcome in the
    disjunctive outcome.
    """
    sig = op.signature
    sets = nonempty_model_sets(sig, matrix)
    rng = random.Random(seed)
    rep1 = PropertyReport("disjunction_iteration_1", True, witness_cap=witness_cap)
    rep2 = PropertyReport("disjunction_iteration_2", True, witness_cap=witness_cap)
    for _ in range(samples):
        gamma = rng.choice(sets)
        alpha = rng.choice(sets)
        beta = rng.choice(sets)
        delta = rng.choice(sets)
        r_a = op.revise_models(op.revise_models(gamma, alpha), delta)
        r_b = op.revise_models(op.revise_models(gamma, beta), delta)
        r_or = op.revise_models(op.revise_models(gamma, alpha | beta), delta)
        if not r_or <= (r_a | r_b):
            rep1.record(_labels(gamma, alpha, beta, delta))
        if not (r_a <= r_or or r_b <= r_or):
            rep2.record(_labels(gamma, alpha, beta, delta))
    return {"disjunction_iteration_1": rep1, "disjunction_iteration_2": rep2}


def _membership_rows(model_sets, points):
    """One boolean row per model set, over ``points``."""
    index = {p: i for i, p in enumerate(points)}
    rows = np.zeros((len(model_sets), len(points)), dtype=bool)
    for r, s in enumerate(model_sets):
        rows[r, [index[v] for v in s]] = True
    return rows


def _row_keys(rows):
    """Each boolean row packed into bytes, a hashable key of its set."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


def check_dp_cp(dist, signature, matrix=CLASSICAL, pairs=None, witness_cap=16):
    """Definability preservation (results stay definable model sets) and
    consistency preservation (non-empty arguments give non-empty results).

    All pairs are minimized in one ``apply_rows`` batch over membership
    rows, by default every pair of definable sets; witnesses follow the
    pair order."""
    sig = tuple(signature)
    universe = valuation_universe(sig, matrix)
    if set(dist.universe) != set(universe):
        raise UnknownAtomError("distance universe must be the valuation universe")
    definable = definable_model_sets(sig, matrix)
    points = dist.universe
    if pairs is None:
        defs = sorted(definable, key=_label)
        rows = _membership_rows(defs, points)
        count = len(defs)
        pick = np.arange(count)
        vrows, wrows = rows[np.repeat(pick, count)], rows[np.tile(pick, count)]

        def pair_at(p):
            return defs[p // count], defs[p % count]
    else:
        pairs = list(pairs)
        vrows = _membership_rows([v for v, _ in pairs], points)
        wrows = _membership_rows([w for _, w in pairs], points)
        pair_at = pairs.__getitem__
    result = apply_rows(dist, vrows, wrows)
    defined = set(_row_keys(_membership_rows(definable, points)))
    dp = PropertyReport("dp", True, witness_cap=witness_cap)
    cp = PropertyReport("cp", True, witness_cap=witness_cap)
    for p, key in enumerate(_row_keys(result)):
        if key not in defined:
            vset, wset = pair_at(p)
            out = frozenset(points[j] for j in np.flatnonzero(result[p]))
            dp.record((_label(vset), _label(wset), _label(out)))
    empty = vrows.any(axis=1) & wrows.any(axis=1) & ~result.any(axis=1)
    for p in np.flatnonzero(empty):
        cp.record(tuple(_label(s) for s in pair_at(p)))
    return {"dp": dp, "cp": cp}
