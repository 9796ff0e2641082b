import contextlib
import functools
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from distrev import revision
from distrev.costs import OrderMode, PseudoDistance
from distrev.errors import BoundExceededError, InconsistentTheoryError, UnknownAtomError
from distrev.distops import apply
from distrev.logic import (
    CLASSICAL,
    Matrix,
    canonical_dnf,
    definable_model_sets,
    enumerate_valuations,
    formula_to_text,
    models,
)
from distrev.revision import (
    RevisionOperator,
    Theory,
    check_agm,
    check_disjunction_iteration,
    check_dp_cp,
    check_star_loop,
    hamming_pseudo_distance,
    nonempty_model_sets,
    per_source_order_operator,
    revise,
    valuation_universe,
)

F = Fraction
SIG = ("p", "q")


def _hamming_op(sig=SIG):
    return RevisionOperator.from_distance(hamming_pseudo_distance(sig), sig)


def _labels(model_set):
    return sorted(v.label() for v in model_set)


def test_theory_basics():
    t = Theory.from_formulas(["p & q"], SIG)
    assert t.consistent
    assert _labels(t.model_set) == ["11"]
    assert t == Theory.from_formulas(["p", "q"], SIG)  # model-set equality
    assert not Theory.from_formulas(["p & !p"], SIG).consistent


def test_revise_moves_to_closest_models():
    op = _hamming_op()
    result = revise(op, Theory.from_formulas(["p & q"], SIG),
                    Theory.from_formulas(["!p"], SIG))
    assert _labels(result.model_set) == ["01"]
    assert formula_to_text(result.canonical_formula()) == "!p & q"


def test_revise_overlap_is_intersection():
    op = _hamming_op()
    gamma = Theory.from_formulas(["p"], SIG)
    delta = Theory.from_formulas(["q"], SIG)
    result = revise(op, gamma, delta)
    assert result.model_set == gamma.model_set & delta.model_set


def test_revise_singleton_input():
    op = _hamming_op()
    gamma = Theory.from_formulas(["!p & !q"], SIG)
    delta = Theory.from_formulas(["p & q"], SIG)
    assert _labels(revise(op, gamma, delta).model_set) == ["11"]


def test_revise_rejects_inconsistency():
    op = _hamming_op()
    good = Theory.from_formulas(["p"], SIG)
    bad = Theory.from_formulas(["p & !p"], SIG)
    with pytest.raises(InconsistentTheoryError):
        revise(op, bad, good)
    with pytest.raises(InconsistentTheoryError):
        revise(op, good, bad)


def test_agm_pass_for_hamming():
    reports = check_agm(_hamming_op(), samples=2000, seed=0)
    assert all(r.passed for r in reports.values())


def test_agm_star2_fails_for_input_ignoring_op():
    op = RevisionOperator.from_function(lambda v, w: v, SIG)
    reports = check_agm(op, samples=500, seed=0)
    assert not reports["star2"].passed


def test_agm_star3_fails_for_non_ir_distance():
    # identity costs 1 but a cross pair costs 1/2: overlap is not respected
    sig = ("p",)
    universe = valuation_universe(sig)
    dist = PseudoDistance.from_function(
        universe, OrderMode.REAL,
        lambda v, w: F(1) if v == w else F(1, 2),
    )
    reports = check_agm(RevisionOperator.from_distance(dist, sig), samples=200)
    assert not reports["star3"].passed


def test_agm_star1_fails_for_empty_returning_op():
    op = RevisionOperator.from_function(lambda v, w: frozenset(), SIG)
    reports = check_agm(op, samples=100, seed=0)
    assert not reports["star1"].passed


def test_agm_refuses_four_atoms_before_allocating():
    # 65,535 model sets, so about 160 GiB of rows for their ordered pairs
    sig = ("p", "q", "r", "s")
    op = RevisionOperator.from_distance(hamming_pseudo_distance(sig), sig)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match="1024 MiB cap"):
            check_agm(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_star_loop_passes_for_hamming():
    verdict = check_star_loop(_hamming_op(), k_max=3)
    assert verdict.passed
    assert not verdict.sampled


def test_star_loop_violated_by_per_source_orders():
    for seed in range(30):
        op = per_source_order_operator(SIG, seed=seed)
        verdict = check_star_loop(op, k_max=3)
        if not verdict.passed:
            return
    pytest.fail("no chain violation found across 30 seeds")


def test_star_loop_walks_k1_on_point_premises():
    # 3 atoms: 255 model sets, so the budget admits only the k = 1 walk
    # (n^2 <= 10^6 < n^3).  It needs premise(a, b, a) for every start, 2n^2
    # premises; filling whole premise rows instead reads n^3 = 16.6M of them
    # (about 180 s at a 1.35 GiB peak).
    sig = ("p", "q", "r")
    universe = valuation_universe(sig)
    rng = random.Random(11)
    table = {}
    for i, v in enumerate(universe):
        for w in universe[i:]:
            table[v, w] = table[w, v] = F(0) if v == w else F(rng.randrange(1, 16), 4)
    op = RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)
    tracemalloc.start()
    began = time.perf_counter()
    try:
        verdict = check_star_loop(op, k_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - began
    assert (verdict.passed, verdict.k, verdict.checked, verdict.sampled) == (True, 3, 85025, True)
    assert verdict.states == 255 ** 2
    assert peak < 64 << 20
    assert elapsed < 60


def test_per_source_answers_do_not_depend_on_query_order():
    sets = nonempty_model_sets(SIG)
    pairs = [(v, w) for v in sets for w in sets]
    forward = per_source_order_operator(SIG, seed=0)
    backward = per_source_order_operator(SIG, seed=0)
    answers = [forward.revise_models(v, w) for v, w in pairs]
    assert [backward.revise_models(v, w) for v, w in reversed(pairs)] == answers[::-1]
    # a loop check first leaves the later disjunction check as it was
    fresh = per_source_order_operator(SIG, seed=0)
    used = per_source_order_operator(SIG, seed=0)
    check_star_loop(used, k_max=3)
    assert check_disjunction_iteration(used, samples=500, seed=0) == \
        check_disjunction_iteration(fresh, samples=500, seed=0)


def test_disjunction_iteration_passes_for_hamming():
    reports = check_disjunction_iteration(_hamming_op(), samples=3000, seed=1)
    assert all(r.passed for r in reports.values())


def test_disjunction_iteration_violated_by_per_source_orders():
    op = per_source_order_operator(SIG, seed=0)
    reports = check_disjunction_iteration(op, samples=2000, seed=0)
    assert not all(r.passed for r in reports.values())


def test_dp_cp_pass_classically():
    sig = SIG
    dist = hamming_pseudo_distance(sig)
    reports = check_dp_cp(dist, sig)
    assert reports["dp"].passed
    assert reports["cp"].passed


def _identity_matrix():
    vals = ("0", "1", "2")
    tables = {
        "not": {(x,): x for x in vals},
        "and": {(x, y): x for x in vals for y in vals},
        "or": {(x, y): x for x in vals for y in vals},
        "implies": {(x, y): x for x in vals for y in vals},
        "iff": {(x, y): x for x in vals for y in vals},
        "true": {(): "1"},
        "false": {(): "0"},
    }
    return Matrix(values=vals, designated=frozenset({"1"}), tables=tables)


def test_dp_can_fail_off_the_classical_matrix():
    # under a connective-poor three-valued matrix most model subsets are not
    # definable, so minimization can leave the definable family
    sig = ("p",)
    matrix = _identity_matrix()
    universe = valuation_universe(sig, matrix)
    # every source prefers one fixed valuation, so minimizing over the full
    # (definable) set yields a non-definable singleton
    dist = PseudoDistance.from_function(
        universe, OrderMode.REAL,
        lambda v, w: F(0) if w == universe[2] else F(1),
    )
    reports = check_dp_cp(dist, sig, matrix=matrix)
    assert not reports["dp"].passed
    assert reports["cp"].passed


def test_presentation_invariance_on_random_pairs():
    op = _hamming_op()
    rng = random.Random(2)
    sets = nonempty_model_sets(SIG)
    for _ in range(50):
        vset = rng.choice(sets)
        wset = rng.choice(sets)
        g1 = Theory(SIG, vset)
        g2 = Theory(SIG, vset, presentation=("anything",))
        d1 = Theory(SIG, wset)
        assert g1 == g2 and hash(g1) == hash(g2)
        assert revise(op, g1, d1) == revise(op, g2, d1)


# ---------------------------------------------------------------------------
# Report equality with scalar reference loops: the checkers batch their
# minimizations and make each round trip once, and must report exactly what
# the per-pair loops report.


def _scalar_dp_cp(dist, sig, matrix=CLASSICAL, pairs=None, cap=16):
    definable = definable_model_sets(sig, matrix)
    if pairs is None:
        defs = sorted(definable, key=_labels)
        pairs = [(a, b) for a in defs for b in defs]
    dp, cp = [], []
    for vset, wset in pairs:
        result = apply(dist, vset, wset)
        if result not in definable:
            dp.append((_labels(vset), _labels(wset), _labels(result)))
        if vset and wset and not result:
            cp.append((_labels(vset), _labels(wset)))
    return {"dp": dp, "cp": cp}


def _scalar_agm(op, matrix=CLASSICAL, samples=0, seed=0):
    sig = op.signature
    sets = nonempty_model_sets(sig, matrix)
    found = {name: [] for name in ("star0", "star1", "star2", "star3", "star4")}
    trip = {s: frozenset(models([canonical_dnf(s, sig)], sig, matrix)) for s in sets}
    for vset in sets:
        for wset in sets:
            result = op.revise_models(vset, wset)
            v2, w2 = trip[vset], trip[wset]
            if (v2, w2) != (vset, wset) or op.revise_models(v2, w2) != result:
                found["star0"].append((_labels(vset), _labels(wset)))
            if not result:
                found["star1"].append((_labels(vset), _labels(wset)))
            if not result <= wset:
                found["star2"].append((_labels(vset), _labels(wset)))
            if vset & wset and result != vset & wset:
                found["star3"].append((_labels(vset), _labels(wset)))
    rng = random.Random(seed)
    for _ in range(samples):
        vset, wset, w2 = rng.choice(sets), rng.choice(sets), rng.choice(sets)
        result = op.revise_models(vset, wset)
        if result & w2 and op.revise_models(vset, wset & w2) != result & w2:
            found["star4"].append((_labels(vset), _labels(wset), _labels(w2)))
    return found


def _scalar_disjunction(op, matrix=CLASSICAL, samples=0, seed=0):
    sets = nonempty_model_sets(op.signature, matrix)
    found = {"disjunction_iteration_1": [], "disjunction_iteration_2": []}
    rng = random.Random(seed)
    for _ in range(samples):
        gamma, alpha, beta, delta = (rng.choice(sets) for _ in range(4))
        r_a = op.revise_models(op.revise_models(gamma, alpha), delta)
        r_b = op.revise_models(op.revise_models(gamma, beta), delta)
        r_or = op.revise_models(op.revise_models(gamma, alpha | beta), delta)
        witness = tuple(_labels(s) for s in (gamma, alpha, beta, delta))
        if not r_or <= (r_a | r_b):
            found["disjunction_iteration_1"].append(witness)
        if not (r_a <= r_or or r_b <= r_or):
            found["disjunction_iteration_2"].append(witness)
    return found


def _assert_reports_equal(reports, found, cap=16):
    assert set(reports) == set(found)
    for name, rep in reports.items():
        assert rep.passed == (not found[name]), name
        assert rep.total_violations == len(found[name]), name
        assert rep.witnesses == found[name][:cap], name


def _identity_matrix_case():
    sig = ("p",)
    matrix = _identity_matrix()
    universe = valuation_universe(sig, matrix)
    dist = PseudoDistance.from_function(
        universe, OrderMode.REAL,
        lambda v, w: F(0) if w == universe[2] else F(1),
    )
    return dist, sig, matrix


def test_dp_cp_report_matches_scalar_loop_on_identity_matrix():
    dist, sig, matrix = _identity_matrix_case()
    reports = check_dp_cp(dist, sig, matrix=matrix, witness_cap=2)
    assert not reports["dp"].passed
    _assert_reports_equal(reports, _scalar_dp_cp(dist, sig, matrix), cap=2)


def test_dp_cp_report_matches_scalar_loop_on_explicit_pairs():
    # every subset pair, empty and non-definable sets included, in an order
    # unlike the default one, on a distance whose universe order is reversed
    dist, sig, matrix = _identity_matrix_case()
    dist = PseudoDistance(dist.universe[::-1], dist.mode, dist.table)
    subsets = [frozenset(), *nonempty_model_sets(sig, matrix)]
    pairs = [(v, w) for w in subsets for v in reversed(subsets)]
    reports = check_dp_cp(dist, sig, matrix=matrix, pairs=pairs)
    assert not reports["dp"].passed
    _assert_reports_equal(reports, _scalar_dp_cp(dist, sig, matrix, pairs=pairs))


def test_dp_cp_refuses_pairs_outside_the_signature():
    # a valuation of another signature once read as no member at all, so
    # the pairs below passed both checks
    sig = ("p", "q")
    dist = hamming_pseudo_distance(sig)
    other = enumerate_valuations(("p", "r"))
    U = valuation_universe(sig)
    pairs = [({U[1]}, {U[2]}), ({U[0]}, {other[3], U[1]}), ({other[0]}, {U[1]})]
    with pytest.raises(UnknownAtomError, match=r"^pair 1 \(\['00'\] \| \['01', '11'\]\) "
                       r"has a valuation outside the signature \('p', 'q'\)$"):
        check_dp_cp(dist, sig, pairs=pairs)
    assert check_dp_cp(dist, sig, pairs=pairs[:1])["dp"].passed


def test_dp_cp_report_matches_scalar_loop_at_three_atoms():
    # 65,536 default pairs, many batch chunks
    sig = ("p", "q", "r")
    dist = hamming_pseudo_distance(sig)
    _assert_reports_equal(check_dp_cp(dist, sig), _scalar_dp_cp(dist, sig))


def test_agm_report_matches_scalar_loop_on_non_ir_distance():
    sig = ("p", "q")
    universe = valuation_universe(sig)
    dist = PseudoDistance.from_function(
        universe, OrderMode.REAL,
        lambda v, w: F(1) if v == w else F(1, 2),
    )
    reports = check_agm(RevisionOperator.from_distance(dist, sig), samples=300, seed=4)
    assert not reports["star3"].passed
    reference = _scalar_agm(RevisionOperator.from_distance(dist, sig), samples=300, seed=4)
    _assert_reports_equal(reports, reference)


def test_agm_report_matches_scalar_loop_on_fn_operator():
    # an input-ignoring operator breaks star2, and off the classical matrix
    # the canonical formula's round trip changes model sets, breaking star0
    sig = ("p",)
    matrix = _identity_matrix()
    op = RevisionOperator.from_function(lambda v, w: v, sig)
    reports = check_agm(op, matrix=matrix, samples=200, seed=1, witness_cap=3)
    assert not reports["star0"].passed
    assert not reports["star2"].passed
    reference = _scalar_agm(op, matrix=matrix, samples=200, seed=1)
    _assert_reports_equal(reports, reference, cap=3)


def test_agm_builds_only_the_witnesses_it_keeps(monkeypatch):
    # a failing 3-atom distance with about 52,000 star3 violations: each
    # report counts them all but labels only the ones it keeps
    sig = ("p", "q", "r")
    universe = valuation_universe(sig)
    rng = random.Random(0)
    table = {(v, w): F(rng.randrange(0, 3)) for v in universe for w in universe}
    op = RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)
    built = []

    def spy(*model_sets):
        built.append(model_sets)
        return labels(*model_sets)

    labels = revision._labels
    monkeypatch.setattr(revision, "_labels", spy)
    reports = check_agm(op, samples=500, seed=2)
    assert reports["star3"].total_violations > 50_000
    assert all(len(rep.witnesses) <= 16 for rep in reports.values())
    assert len(built) == sum(len(rep.witnesses) for rep in reports.values())
    monkeypatch.undo()
    _assert_reports_equal(reports, _scalar_agm(op, samples=500, seed=2))


def _asymmetric_op(sig, seed):
    universe = valuation_universe(sig)
    rng = random.Random(seed)
    table = {(v, w): F(rng.randrange(0, 6), 2) for v in universe for w in universe}
    return RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)


@pytest.mark.parametrize("make", [
    lambda: (_asymmetric_op(SIG, 3), CLASSICAL),
    lambda: (per_source_order_operator(SIG, seed=0), CLASSICAL),
    lambda: (per_source_order_operator(("p",), matrix=_identity_matrix(), seed=2),
             _identity_matrix()),
], ids=["distance", "per_source", "identity_matrix"])
def test_disjunction_report_matches_scalar_loop(make):
    op, matrix = make()
    reports = check_disjunction_iteration(op, matrix=matrix, samples=400, seed=5,
                                          witness_cap=3)
    reference_op, _ = make()
    reference = _scalar_disjunction(reference_op, matrix=matrix, samples=400, seed=5)
    _assert_reports_equal(reports, reference, cap=3)


# ---------------------------------------------------------------------------
# The model-set space: the checkers read their sets, rows, round trips and
# definable sets from one cached space per (signature, matrix).


def _space_case(case):
    """A fresh distance, its signature and its matrix."""
    if case == "identity_matrix":
        return _identity_matrix_case()
    sig = ("p", "q", "r")[:int(case[0])]
    return _asymmetric_op(sig, 3).dist, sig, CLASSICAL


@contextlib.contextmanager
def _memoized_round_trips():
    """``_scalar_agm`` with each set's round trip computed once: the same
    pure functions, patched into this module, so the 3-atom loop's 130,050
    round trips take seconds, not half a minute."""
    trip = functools.lru_cache(maxsize=None)(models)
    module = sys.modules[__name__]
    with mock.patch.object(module, "canonical_dnf",
                           functools.lru_cache(maxsize=None)(canonical_dnf)), \
            mock.patch.object(module, "models",
                              lambda gamma, sig, matrix: trip(tuple(gamma), sig, matrix)):
        yield


@pytest.mark.parametrize("case", ["1_atom", "2_atoms", "3_atoms", "identity_matrix"])
def test_warm_model_set_space_gives_the_reports_of_a_fresh_build(case):
    # every run builds its own distance and operator, so the runs share the
    # cached space alone
    def run():
        dist, sig, matrix = _space_case(case)
        op = RevisionOperator.from_distance(dist, sig)
        return (check_agm(op, matrix=matrix, samples=300, seed=4),
                check_disjunction_iteration(op, matrix=matrix, samples=300, seed=5),
                check_star_loop(op, k_max=3, matrix=matrix),
                check_dp_cp(dist, sig, matrix=matrix))

    revision._model_set_space.cache_clear()
    cold = run()
    hits = revision._model_set_space.cache_info().hits
    assert run() == cold
    assert revision._model_set_space.cache_info().hits > hits
    agm, disjunction, _, dp_cp = cold
    dist, sig, matrix = _space_case(case)
    with _memoized_round_trips():
        reference = _scalar_agm(RevisionOperator.from_distance(dist, sig), matrix,
                                samples=300, seed=4)
    _assert_reports_equal(agm, reference)
    reference = _scalar_disjunction(RevisionOperator.from_distance(dist, sig), matrix,
                                    samples=300, seed=5)
    _assert_reports_equal(disjunction, reference)
    _assert_reports_equal(dp_cp, _scalar_dp_cp(dist, sig, matrix))
    definable = definable_model_sets(sig, matrix)
    assert type(definable) is frozenset
    assert all(type(s) is frozenset for s in definable)
