"""Distance-based revision over formula sets, with postulate checkers.

Theories are represented by their canonical model set; deductive closure and
presentation invariance are thereby structural, and the remaining postulate
content is checked exhaustively: every pair, triple and 4-tuple of consistent
theories, read off one revision table per operator, for 1 to 3 classical atoms.
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
    APPLY_CHUNK_CELLS,
    SWEEP_MAX_BYTES,
    _mask_dtype,
    _membership_rows,
    _packed_rows,
    _row_index,
    _row_sets,
    _verdict,
    apply,
    apply_rows,
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

    def lookup(self, vset, wset):
        return self.revise_models(vset, wset)

    def lookup_rows(self, vrows, wrows, order):
        """``lookup`` over P pairs of boolean membership rows, their columns
        in ``order``: a read of the revision table over ``order``."""
        T = _revision_table(self, tuple(order), "loop premise read")
        return _bit_rows(T[_masks(vrows), _masks(wrows)], len(order))

    @classmethod
    def from_distance(cls, dist, signature):
        return cls(tuple(signature), dist=dist)

    @classmethod
    def from_function(cls, fn, signature):
        return cls(tuple(signature), fn=fn)


def revise(op, gamma, delta):
    """Revise one consistent theory by another: the theory of the minimal
    models of the new information, seen from the old.  Theories over
    another signature, or models outside the operator's distance, raise
    ``UnknownAtomError``."""
    if not gamma.consistent:
        raise InconsistentTheoryError("cannot revise an inconsistent theory")
    if not delta.consistent:
        raise InconsistentTheoryError("cannot revise by an inconsistent theory")
    if not gamma.signature == delta.signature == op.signature:
        raise UnknownAtomError(f"the theories' signatures must be {op.signature}")
    if op.dist is not None and (
            outside := (gamma.model_set | delta.model_set).difference(op.dist.universe)):
        raise UnknownAtomError(
            f"point {min(outside, key=repr)!r} is outside the distance's universe")
    return Theory(gamma.signature, op.revise_models(gamma.model_set, delta.model_set))


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

    def fn(vset, wset):  # frozensets, from revise_models
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
    return [frozenset(combo) for r in range(1, len(universe) + 1)
            for combo in itertools.combinations(universe, r)]


def _label(model_set):
    return sorted("".join(str(x) for x in v.values) for v in model_set)


def _read_only(rows):
    rows.flags.writeable = False
    return rows


def _masks(rows):
    """Each boolean row's integer mask, column i at bit i, packed bitwise."""
    unit = _mask_dtype(np.shape(rows)[1]).itemsize
    return _packed_rows(rows, unit).ravel()


def _bit_rows(masks, width):
    """The boolean row of each integer mask over ``width`` columns."""
    return (np.asarray(masks)[:, None] >> np.arange(width) & 1).astype(bool)


class _ModelSetSpace:
    """The tables the checkers read for one signature and matrix, each
    built on first use: the valuation ``order``; the non-empty model
    ``sets`` and their integer ``masks``; the sets sorted for the loop walk
    (``loop``); the ``moved`` mask of the canonical-formula round trip;
    the definable sets by ``_label``, their rows and their words' ``_row_index``.
    Masks and rows have their columns in ``order`` and are read-only."""

    def __init__(self, signature, matrix):
        self.signature, self.matrix = signature, matrix
        self.order = valuation_universe(signature, matrix)

    @functools.cached_property
    def sets(self):
        return tuple(nonempty_model_sets(self.signature, self.matrix))

    @functools.cached_property
    def masks(self):
        return _read_only(_masks(_membership_rows(self.sets, self.order)))

    @functools.cached_property
    def loop(self):
        return tuple(sorted(self.sets, key=sorted))

    @functools.cached_property
    def moved(self):
        """Whether rebuilding each set from its canonical formula changes it."""
        sig, matrix = self.signature, self.matrix
        trip = _membership_rows(
            [models([canonical_dnf(s, sig)], sig, matrix) for s in self.sets], self.order)
        return _read_only(_masks(trip) != self.masks)

    @functools.cached_property
    def definable(self):
        return tuple(sorted(definable_model_sets(self.signature, self.matrix), key=_label))

    @functools.cached_property
    def definable_rows(self):
        return _read_only(_membership_rows(self.definable, self.order))

    @functools.cached_property
    def definable_index(self):
        return _row_index(_packed_rows(self.definable_rows, 8))


# Every checker call on one signature and matrix reads the same tables.  The
# cache holds at most 8 spaces, like the valuation cache.
_model_set_space = functools.lru_cache(maxsize=8)(_ModelSetSpace)


def _space(signature, matrix, dist):
    """The model-set space of (signature, matrix); a distance ``dist`` whose
    universe is not its valuations (None: no distance) raises ``UnknownAtomError``."""
    space = _model_set_space(tuple(signature), matrix)
    if dist is not None and set(dist.universe) != set(space.order):
        raise UnknownAtomError("distance universe must be the valuation universe")
    return space


def _labels(*model_sets):
    """A violation witness; built only for the witnesses a report keeps."""
    return tuple(_label(s) for s in model_sets)


def _pair_rows(rows):
    """Every ordered pair of ``rows``, the first member the outer order."""
    return np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))


def _revision_table(op, order, what, per_key=0):
    """T[v, w]: ``op``'s answer for every ordered pair of masks over the w
    valuations ``order``, the empty mask too (a function operator is asked
    about it wherever a result is empty), read-only.  First, on every call,
    raises ``BoundExceededError`` if the ``what`` check would hold over
    ``SWEEP_MAX_BYTES``: per pair, two indices, three rows and two masks;
    ``per_key`` bytes per key of 3w bits; and 64 bytes an ``apply_rows``
    chunk cell.  One ``apply_rows`` batch for a distance, else one
    ``revise_models`` call per pair of the 2^w model sets, each answer kept
    as its mask, or refused with ``UnknownAtomError`` if it holds a point
    outside ``order``.  Kept on ``op`` for the last order, no field."""
    width = len(order)
    per_pair = 16 + 3 * width + 2 * _mask_dtype(width).itemsize
    need = (per_pair << 2 * width) + (per_key << 3 * width) + 64 * APPLY_CHUNK_CELLS
    if need > SWEEP_MAX_BYTES:
        raise BoundExceededError(f"the {what} over {width} valuations needs about "
                                 f"{need >> 20} MiB, over the {SWEEP_MAX_BYTES >> 20} MiB cap")
    cached = vars(op).get("_revision_table", (None,))
    if cached[0] != order:
        rows = _bit_rows(np.arange(1 << width), width)
        if op.dist is not None:
            T = _masks(apply_rows(op.dist, *_pair_rows(rows), order))
        else:
            bit = {p: 1 << i for i, p in enumerate(order)}

            def mask(v, w):
                answer = op.revise_models(v, w)
                try:
                    return sum(bit[p] for p in answer)
                except KeyError as point:
                    raise UnknownAtomError(f"the answer for {_label(v)} | {_label(w)} holds "
                                           f"{point.args[0]!r}, outside the valuations") from None

            T = np.fromiter(itertools.starmap(mask, itertools.product(
                _row_sets(rows, order), repeat=2)), _mask_dtype(width), 1 << 2 * width)
        cached = order, _read_only(T.reshape(len(rows), -1))
        object.__setattr__(op, "_revision_table", cached)
    return cached[1]


def _tuple_labels(sets, arity):
    """The witness of tuple t, t numbering the tuples of ``sets`` in order."""
    return lambda t: _labels(*(sets[j] for j in np.unravel_index(t, (len(sets),) * arity)))


def check_agm(op, matrix=CLASSICAL, samples=10_000, seed=0, witness_cap=16):
    """The five revision postulates at the model-set level, over every pair
    and triple of consistent theories in the order of the model-set space
    of (signature, matrix), which is kept in a cache of 8 spaces.  All read
    one revision table (``_revision_table``); the composite postulate fails
    on (V, W, X) where T[V, W & X] is not T[V, W] & X and the latter is
    non-empty.  ``samples`` and ``seed`` are unused: they stay for the
    benchmark's postulate job until ROADMAP item 1a."""
    space = _space(op.signature, matrix, op.dist)
    T = _revision_table(op, space.order, "postulate check")
    sets, masks, n = space.sets, space.masks, len(space.sets)
    result, both = T[masks[:, None], masks], masks[:, None] & masks  # [V, W]
    # star0: a pair whose sets come back from their canonical formulas
    # unchanged asks the same question again; only a moved set can fail it
    failed = {"star0": space.moved[:, None] | space.moved, "star1": result == 0,
              "star2": (result & ~masks) != 0, "star3": (both != 0) & (result != both)}
    reports = {name: PropertyReport.of(name, np.flatnonzero(bad), witness_cap,
                                       _tuple_labels(sets, 2))
               for name, bad in failed.items()}
    total, kept, step = 0, [], max(1, APPLY_CHUNK_CELLS // n ** 2)
    for lo in range(0, n, step):  # [V, W, X] for a chunk of V's
        conjoined = result[lo:lo + step, :, None] & masks
        bad = np.flatnonzero((conjoined != 0) & (T[masks[lo:lo + step]][:, both] != conjoined))
        total += len(bad)
        kept += (bad[:witness_cap - len(kept)] + lo * n * n).tolist()
    reports["star4"] = PropertyReport("star4", list(map(_tuple_labels(sets, 3), kept)), total)
    return reports


def check_star_loop(op, k_max=None, matrix=CLASSICAL, budget=10**6):
    """The cyclic chain condition at the theory level: premises say each
    source stays compatible with its revised neighbor disjunction, the
    conclusion closes the cycle.  Union of model sets realizes the
    disjunction of theories; non-empty intersection realizes consistency
    of a union of theories.  ``_verdict`` over the consistent theories
    under ``budget``, to the fixpoint or the cut-off ``k_max``; a distance
    operator's premises come from its set distances, which certify a pass
    for every k when they are symmetric, and a function operator's from
    its revision table (``lookup_rows``)."""
    space = _space(op.signature, matrix, op.dist)
    return _verdict(op, space.loop, space.order, k_max, budget)


def check_disjunction_iteration(op, matrix=CLASSICAL, samples=10_000, seed=0,
                                witness_cap=16):
    """The two iterated-revision properties for disjunctive information,
    over every tuple (G, A, B, D) of consistent theories, in order.

    With theories as model sets, "every conclusion reached after both
    branches survives the disjunctive branch" is containment of the
    disjunctive outcome in the union of the branch outcomes, and the
    converse property is containment of some branch outcome in the
    disjunctive outcome.  Both depend on (G, A, B) only through the key of
    its outcome triple (T[G, A], T[G, B], T[G, A | B]): each key is tested
    against every D once, and its counts of failing D's are kept.
    ``samples`` and ``seed`` are unused, as in ``check_agm``."""
    space = _space(op.signature, matrix, op.dist)
    width = len(space.order)
    count_t, key_t = _mask_dtype(width), _mask_dtype(3 * width)  # count_t holds n
    T = _revision_table(op, space.order, "disjunction check", 1 + 2 * count_t.itemsize)
    sets, masks, n, low = space.sets, space.masks, len(space.sets), (1 << width) - 1
    revised, union = T[:, masks], masks[:, None] | masks  # [mask, D], [A, B]

    def fails(keys):  # [property, key, D]
        r_a, r_b, r_or = (revised[keys >> shift & low] for shift in (2 * width, width, 0))
        return np.stack([(r_or & ~(r_a | r_b)) != 0, ((r_a & ~r_or) != 0) & ((r_b & ~r_or) != 0)])

    tested = np.zeros(1 << 3 * width, bool)
    counts = np.zeros((2, 1 << 3 * width), count_t)
    totals, kept, failing = [0, 0], [[], []], False
    step, part = max(1, APPLY_CHUNK_CELLS // n ** 2), max(1, APPLY_CHUNK_CELLS // n)
    for lo in range(0, n, step):  # [G, A, B] for a chunk of G's
        first = revised[masks[lo:lo + step]].astype(key_t)
        keys = first[:, :, None] << 2 * width | first[:, None, :] << width \
            | T[masks[lo:lo + step]][:, union]
        fresh = np.unique(keys[~tested[keys]])
        for at in range(0, len(fresh), part):
            counts[:, fresh[at:at + part]] = fails(fresh[at:at + part]).sum(axis=2)
        tested[fresh] = True
        failing = failing or bool(counts[:, fresh].any())  # else every count is 0
        for i, found in enumerate(counts[:, keys] if failing else ()):
            totals[i] += int(found.sum())
            head = np.flatnonzero(found)[:witness_cap - len(kept[i])]  # each fails a D
            pick, d = np.nonzero(fails(keys.flat[head])[i])  # their failing D's
            kept[i] += ((lo * n * n + head[pick]) * n + d)[:witness_cap - len(kept[i])].tolist()
    return {name: PropertyReport(name, list(map(_tuple_labels(sets, 4), found)), total)
            for name, found, total in zip(
                ("disjunction_iteration_1", "disjunction_iteration_2"), kept, totals)}


def check_dp_cp(dist, signature, matrix=CLASSICAL, witness_cap=16):
    """Definability preservation (results stay definable model sets) and
    consistency preservation (non-empty arguments give non-empty results).

    Every pair of definable sets is minimized in one ``apply_rows`` batch
    over membership rows in valuation order; witnesses follow the pair
    order, V's index then W's.  The results are packed once into words: dp
    looks them up among the definable sets' words (``_row_index``), and cp
    reads an empty result as a row of zero words.  The definable sets,
    sorted by label, their rows and their index come from the model-set
    space of (signature, matrix) (``_space``), which refuses a distance
    over other points."""
    space = _space(signature, matrix, dist)
    order, defs, rows = space.order, space.definable, space.definable_rows
    result = apply_rows(dist, *_pair_rows(rows), order)
    words = _packed_rows(result, 8)
    bad = np.flatnonzero(~space.definable_index(words)[1])
    filled = rows.any(axis=1)
    empty = (filled[:, None] & filled).ravel() & ~words.any(axis=1)

    def pair_at(p):
        return [defs[i] for i in divmod(p, len(defs))]

    return {
        "dp": PropertyReport.of("dp", bad, witness_cap, lambda p: _labels(
            *pair_at(p), *_row_sets(result[p:p + 1], order))),
        "cp": PropertyReport.of("cp", np.flatnonzero(empty), witness_cap,
                                lambda p: _labels(*pair_at(p))),
    }
