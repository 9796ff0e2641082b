import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from distrev import distops, revision
from distrev.costs import OrderMode, PseudoDistance, check_property
from distrev.errors import BoundExceededError, InconsistentTheoryError, UnknownAtomError
from distrev.distops import OperatorTable, apply, check_loop
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
    reports = check_agm(_hamming_op())
    assert all(r.passed for r in reports.values())


def test_agm_star2_fails_for_input_ignoring_op():
    op = RevisionOperator.from_function(lambda v, w: v, SIG)
    reports = check_agm(op)
    assert not reports["star2"].passed


def test_agm_star3_fails_for_non_ir_distance():
    # identity costs 1 but a cross pair costs 1/2: overlap is not respected
    sig = ("p",)
    universe = valuation_universe(sig)
    dist = PseudoDistance.from_function(
        universe, OrderMode.REAL,
        lambda v, w: F(1) if v == w else F(1, 2),
    )
    reports = check_agm(RevisionOperator.from_distance(dist, sig))
    assert not reports["star3"].passed


def test_answers_outside_the_valuations_are_refused():
    # the revision table has no bit for a point outside the valuations, so
    # every check that reads it refuses the operator, naming the pair
    # asked and the point; revise would hand the point back
    for check in (check_agm, check_disjunction_iteration, check_star_loop):
        op = RevisionOperator.from_function(lambda v, w: w | {"junk"}, SIG)
        with pytest.raises(UnknownAtomError, match=r"^the answer for \[\] \| \[\] holds 'junk', "
                                                   r"outside the valuations$"):
            check(op)
    # a point inside only some answers is found there
    op = RevisionOperator.from_function(lambda v, w: w | {"junk"} if len(w) == 2 else w, SIG)
    with pytest.raises(UnknownAtomError, match=r"for \[\] \| \['00', '01'\] holds 'junk'"):
        check_star_loop(op)


def test_agm_star1_fails_for_empty_returning_op():
    op = RevisionOperator.from_function(lambda v, w: frozenset(), SIG)
    reports = check_agm(op)
    assert not reports["star1"].passed


def test_agm_refuses_four_atoms_before_allocating():
    # 16 valuations: a revision table of 2^32 pairs, about 272 GiB with its
    # batch, and for the disjunction check 2^48 outcome-triple keys
    sig = ("p", "q", "r", "s")
    op = RevisionOperator.from_distance(hamming_pseudo_distance(sig), sig)
    for check in (check_agm, check_disjunction_iteration):
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError, match="1024 MiB cap"):
                check(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, check


def test_star_loop_passes_for_hamming():
    verdict = check_star_loop(_hamming_op(), k_max=3)
    assert verdict.passed
    assert not verdict.sampled
    # 15 theories: the symmetric set distances certify the pass for every k
    verdict = check_star_loop(_hamming_op())
    assert verdict.passed and verdict.k == verdict.fixpoint


def test_star_loop_certifies_hamming_at_three_atoms():
    # 255 theories: the walk for every k is over the default budget (n^5 >
    # 10^6) and took tens of seconds with the budget lifted; the set
    # distances, Hamming distances 0 to 3, are symmetric and certify the
    # pass with 4 phi classes off n^2 cells
    op = _hamming_op(("p", "q", "r"))
    began = time.perf_counter()
    verdict = check_star_loop(op)
    elapsed = time.perf_counter() - began
    assert verdict == distops.LoopVerdict(True, 0, (), 0, states=0, fixpoint=0, phi_classes=4)
    assert elapsed < 1


def test_star_loop_violated_by_per_source_orders():
    for seed in range(30):
        op = per_source_order_operator(SIG, seed=seed)
        verdict = check_star_loop(op, k_max=3)
        if not verdict.passed:
            return
    pytest.fail("no chain violation found across 30 seeds")


def test_star_loop_walks_k1_on_point_premises():
    # 3 atoms: 255 model sets, so the budget admits only the k = 1 walk
    # (n^2 <= 10^6 < n^5), and refuses a longer one before it reads a
    # premise.  The k = 1 walk needs premise(a, b, a) for every start, 2n^2
    # premises; filling whole premise rows instead reads n^3 = 16.6M of
    # them (about 180 s at a 1.35 GiB peak).  An asymmetric distance, whose
    # set distances are asymmetric, needs the walk; a symmetric one is
    # certified for every k, and its k = 1 walk is pinned beside it.
    sig = ("p", "q", "r")
    universe = valuation_universe(sig)
    rng = random.Random(11)
    table = {}
    for i, v in enumerate(universe):
        for w in universe[i:]:
            table[v, w] = table[w, v] = F(0) if v == w else F(rng.randrange(1, 16), 4)
    symmetric = RevisionOperator.from_distance(
        PseudoDistance(universe, OrderMode.REAL, table), sig)
    table = {(v, w): F(0) if v == w else F(rng.randrange(1, 16), 4)
             for v in universe for w in universe}
    op = RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)
    space = revision._model_set_space(sig, CLASSICAL)
    near = distops._premise_reader(op, space.loop, space.order).near
    assert not np.array_equal(near, near.T)
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError, match="255 sets"):
            check_star_loop(op, k_max=3)
        refused = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        began = time.perf_counter()
        verdict = check_star_loop(op, k_max=1)
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused < 16 << 20
    assert (verdict.passed, verdict.k, verdict.checked, verdict.fixpoint) == (True, 1, 65025, None)
    assert verdict.states == 255 ** 2
    assert peak < 64 << 20
    assert elapsed < 60
    premises = distops._premise_reader(symmetric, space.loop, space.order)
    assert distops._walk(premises, 255, 1) == (None, 255 ** 2, None)
    for k_max in (1, 3):
        assert check_star_loop(symmetric, k_max=k_max) == distops.LoopVerdict(
            True, k_max, (), sum(255 ** (j + 1) for j in range(1, k_max + 1)),
            states=0, fixpoint=0, phi_classes=12)


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
    assert check_disjunction_iteration(used) == check_disjunction_iteration(fresh)


def test_revision_table_matches_the_scalar_answers():
    # the 65,536 pairs of 3 atoms, each answer kept as its mask alone, so
    # the build holds well under 16 MiB.  Here T[v, w] is v.
    sig = ("p", "q", "r")
    op = RevisionOperator.from_function(lambda v, w: v, sig)
    space = revision._model_set_space(sig, CLASSICAL)
    tracemalloc.start()
    try:
        table = revision._revision_table(op, space.order, "postulate check")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert np.array_equal(table, np.repeat(np.arange(256)[:, None], 256, axis=1))
    # a function operator and, at 1 to 3 atoms, a distance one give the
    # answers of revise_models pair by pair, the empty row and column too
    cases = [per_source_order_operator(SIG, seed=3)]
    cases += [_asymmetric_op(("p", "q", "r")[:atoms], 4) for atoms in (1, 2, 3)]
    for op in cases:
        space = revision._model_set_space(op.signature, CLASSICAL)
        _, _, answer = _scalar_answers(op, CLASSICAL)
        masks = range(1 << len(space.order))
        expected = np.array([[answer[v][w] for w in masks] for v in masks])
        table = revision._revision_table(op, space.order, "postulate check")
        assert np.array_equal(table, expected), op.signature


def test_disjunction_iteration_passes_for_hamming():
    reports = check_disjunction_iteration(_hamming_op())
    assert all(r.passed for r in reports.values())


def test_disjunction_iteration_violated_by_per_source_orders():
    op = per_source_order_operator(SIG, seed=0)
    reports = check_disjunction_iteration(op)
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


def _scalar_answers(op, matrix):
    """The non-empty model sets, and ``answer[v][w]``: the mask of op's
    revision of the set of mask v by that of mask w, for every pair of
    subsets, the empty one included, each pair revised once.  Point i of
    the valuation universe is bit i of a mask."""
    universe = valuation_universe(op.signature, matrix)
    subsets = [frozenset(), *nonempty_model_sets(op.signature, matrix)]
    mask = {s: sum(1 << i for i, v in enumerate(universe) if v in s) for s in subsets}
    answer = {mask[v]: {mask[w]: mask[op.revise_models(v, w)] for w in subsets}
              for v in subsets}
    return subsets[1:], mask, answer


def _scalar_agm(op, matrix=CLASSICAL):
    sig = op.signature
    sets, mask, answer = _scalar_answers(op, matrix)
    found = {name: [] for name in ("star0", "star1", "star2", "star3", "star4")}
    trip = {s: frozenset(models([canonical_dnf(s, sig)], sig, matrix)) for s in sets}
    for vset in sets:
        for wset in sets:
            v, w = mask[vset], mask[wset]
            result = answer[v][w]
            v2, w2 = mask[trip[vset]], mask[trip[wset]]
            if (v2, w2) != (v, w) or answer[v2][w2] != result:
                found["star0"].append((_labels(vset), _labels(wset)))
            if not result:
                found["star1"].append((_labels(vset), _labels(wset)))
            if result & ~w:
                found["star2"].append((_labels(vset), _labels(wset)))
            if v & w and result != v & w:
                found["star3"].append((_labels(vset), _labels(wset)))
    for vset in sets:
        row = answer[mask[vset]]
        for wset in sets:
            w = mask[wset]
            for xset in sets:
                conjoined = row[w] & mask[xset]
                if conjoined and row[w & mask[xset]] != conjoined:
                    found["star4"].append((_labels(vset), _labels(wset), _labels(xset)))
    return found


def _scalar_disjunction(op, matrix=CLASSICAL):
    sets, mask, answer = _scalar_answers(op, matrix)
    found = {"disjunction_iteration_1": [], "disjunction_iteration_2": []}
    for gamma in sets:
        row = answer[mask[gamma]]
        for alpha in sets:
            for beta in sets:
                a, b = mask[alpha], mask[beta]
                by_a, by_b, by_or = answer[row[a]], answer[row[b]], answer[row[a | b]]
                for delta in sets:
                    d = mask[delta]
                    r_a, r_b, r_or = by_a[d], by_b[d], by_or[d]
                    fails = (r_or & ~(r_a | r_b), r_a & ~r_or and r_b & ~r_or)
                    for name, failed in zip(found, fails):
                        if failed:
                            found[name].append(
                                tuple(_labels(s) for s in (gamma, alpha, beta, delta)))
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


def _seeded_distance(universe, seed):
    """Costs drawn per ordered pair from (0, 4]: asymmetric, and not
    identity-respecting, as d(v, v) is drawn like any other cost."""
    rng = random.Random(seed)
    return PseudoDistance(universe, OrderMode.REAL, {
        (v, w): F(rng.randrange(1, 5), rng.randrange(1, 3)) for v in universe for w in universe})


def test_dp_cp_report_matches_scalar_loop_on_a_seeded_distance_at_three_atoms():
    sig = ("p", "q", "r")
    dist = _seeded_distance(valuation_universe(sig), 3)
    assert not any(check_property(dist, prop).passed for prop in ("symmetric", "ir"))
    reports = check_dp_cp(dist, sig)
    _assert_reports_equal(reports, _scalar_dp_cp(dist, sig))
    # every classical model set is definable, and a minimum always exists
    assert (reports["dp"].total_violations, reports["cp"].total_violations) == (0, 0)


def test_dp_cp_report_matches_scalar_loop_beyond_one_word():
    # the identity matrix over 4 atoms: 81 valuations, two 64-bit words a
    # row, and 17 definable sets, so 289 default pairs
    sig = ("p", "q", "r", "s")
    matrix = _identity_matrix()
    dist = _seeded_distance(valuation_universe(sig, matrix), 4)
    reports = check_dp_cp(dist, sig, matrix=matrix, witness_cap=3)
    _assert_reports_equal(reports, _scalar_dp_cp(dist, sig, matrix), cap=3)
    assert (reports["dp"].total_violations, reports["cp"].total_violations) == (180, 0)
    # witnesses in pair order: (V, W, result) sizes
    assert [[len(s) for s in w] for w in reports["dp"].witnesses] == [
        [27, 81, 78], [27, 27, 25], [27, 27, 26]]


def test_dp_cp_on_explicit_pairs_with_an_empty_argument():
    # an empty V or W gives an empty result: definable, and no cp failure
    sig = ("p",)
    matrix = _identity_matrix()
    universe = valuation_universe(sig, matrix)
    dist = _seeded_distance(universe, 1)
    empty, full = frozenset(), frozenset(universe)
    sets = nonempty_model_sets(sig, matrix)
    pairs = [(empty, empty), (empty, full), (full, empty)] \
        + [(v, w) for v in sets for w in sets][:20] + [(sets[0], empty), (empty, sets[0])]
    reports = check_dp_cp(dist, sig, matrix=matrix, pairs=pairs, witness_cap=2)
    _assert_reports_equal(reports, _scalar_dp_cp(dist, sig, matrix, pairs=pairs), cap=2)
    assert (reports["dp"].total_violations, reports["cp"].total_violations) == (14, 0)
    assert reports["dp"].witnesses == [(["0"], ["0"], ["0"]), (["0"], ["2"], ["2"])]


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
    reports = check_agm(RevisionOperator.from_distance(dist, sig))
    assert not reports["star3"].passed
    reference = _scalar_agm(RevisionOperator.from_distance(dist, sig))
    _assert_reports_equal(reports, reference)


def test_agm_report_matches_scalar_loop_on_fn_operator():
    # an input-ignoring operator breaks star2, and off the classical matrix
    # the canonical formula's round trip changes model sets, breaking star0
    sig = ("p",)
    matrix = _identity_matrix()
    op = RevisionOperator.from_function(lambda v, w: v, sig)
    reports = check_agm(op, matrix=matrix, witness_cap=3)
    assert not reports["star0"].passed
    assert not reports["star2"].passed
    _assert_reports_equal(reports, _scalar_agm(op, matrix=matrix), cap=3)


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
    reports = check_agm(op)
    assert reports["star3"].total_violations > 50_000
    assert all(len(rep.witnesses) <= 16 for rep in reports.values())
    assert len(built) == sum(len(rep.witnesses) for rep in reports.values())
    monkeypatch.undo()
    _assert_reports_equal(reports, _scalar_agm(op))


def _asymmetric_op(sig, seed):
    universe = valuation_universe(sig)
    rng = random.Random(seed)
    table = {(v, w): F(rng.randrange(0, 6), 2) for v in universe for w in universe}
    return RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)


def _hamming_one_off_op():
    """The 2-atom Hamming operator with one answer changed: revising {00}
    by {01, 10} gives {01}, not both."""
    hamming = _hamming_op()
    u = valuation_universe(SIG)

    def fn(vset, wset):
        if (vset, wset) == ({u[0]}, {u[1], u[2]}):
            return frozenset({u[1]})
        return hamming.revise_models(vset, wset)

    return RevisionOperator.from_function(fn, SIG)


# operator makers for the comparisons with the scalar loops: each call
# builds a fresh operator and gives its matrix
SCALAR_CASES = {
    "distance": lambda: (_asymmetric_op(SIG, 3), CLASSICAL),
    "per_source": lambda: (per_source_order_operator(SIG, seed=0), CLASSICAL),
    "identity_matrix": lambda: (
        per_source_order_operator(("p",), matrix=_identity_matrix(), seed=2), _identity_matrix()),
    "input_ignoring": lambda: (RevisionOperator.from_function(lambda v, w: v, SIG), CLASSICAL),
    "empty_returning": lambda: (
        RevisionOperator.from_function(lambda v, w: frozenset(), SIG), CLASSICAL),
    "hamming_one_off": lambda: (_hamming_one_off_op(), CLASSICAL),
}


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_agm_report_matches_scalar_loop(case):
    op, matrix = SCALAR_CASES[case]()
    reports = check_agm(op, matrix=matrix)
    reference_op, _ = SCALAR_CASES[case]()
    _assert_reports_equal(reports, _scalar_agm(reference_op, matrix=matrix))


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_disjunction_report_matches_scalar_loop(case):
    op, matrix = SCALAR_CASES[case]()
    reports = check_disjunction_iteration(op, matrix=matrix, witness_cap=3)
    reference_op, _ = SCALAR_CASES[case]()
    _assert_reports_equal(reports, _scalar_disjunction(reference_op, matrix=matrix), cap=3)


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    # one first member per chunk and one outcome triple per test, so every
    # witness but the first chunk's is placed by its chunk's offset
    expected = {}
    for case, make in SCALAR_CASES.items():
        op, matrix = make()
        expected[case] = (check_agm(op, matrix=matrix),
                          check_disjunction_iteration(op, matrix=matrix))
    monkeypatch.setattr(revision, "APPLY_CHUNK_CELLS", 1)
    for case, make in SCALAR_CASES.items():
        op, matrix = make()
        assert (check_agm(op, matrix=matrix),
                check_disjunction_iteration(op, matrix=matrix)) == expected[case], case


def test_one_entry_off_hamming_breaks_star4_and_both_disjunction_properties():
    # of 3,375 triples, 2 fail star4, and of 50,625 tuples 22 and 10 fail
    # the disjunction properties; a sample of triples drawn with
    # replacement counts each failing one as often as it is drawn
    op = _hamming_one_off_op()
    agm, disjunction = check_agm(op), check_disjunction_iteration(op)
    assert {name: rep.total_violations for name, rep in {**agm, **disjunction}.items()} == {
        "star0": 0, "star1": 0, "star2": 0, "star3": 0, "star4": 2,
        "disjunction_iteration_1": 22, "disjunction_iteration_2": 10}
    assert agm["star4"].witnesses == [(["00"], ["01", "10", "11"], ["01", "10"]),
                                      (["00"], ["01", "10", "11"], ["00", "01", "10"])]
    assert disjunction["disjunction_iteration_1"].witnesses[:1] == [
        (["00"], ["11"], ["01", "10"], ["10", "11"])]
    assert disjunction["disjunction_iteration_2"].witnesses[:2] == [
        (["00"], ["11"], ["01", "10"], ["10", "11"]),
        (["00"], ["11"], ["01", "10"], ["00", "10", "11"])]
    _assert_reports_equal(agm, _scalar_agm(_hamming_one_off_op()))
    _assert_reports_equal(disjunction, _scalar_disjunction(_hamming_one_off_op()))


def _rechecked_disjunction(op, reports, matrix=CLASSICAL):
    """The properties each kept witness (G, A, B, D) fails when its four
    theories are revised again one pair at a time by ``revise_models``."""
    by_label = {v.label(): v for v in valuation_universe(op.signature, matrix)}
    out = {}
    for name, rep in reports.items():
        out[name] = []
        for witness in rep.witnesses:
            gamma, alpha, beta, delta = (frozenset(by_label[x] for x in s) for s in witness)
            r_a, r_b, r_or = (op.revise_models(op.revise_models(gamma, x), delta)
                              for x in (alpha, beta, alpha | beta))
            out[name].append((not r_or <= r_a | r_b, not (r_a <= r_or or r_b <= r_or)))
    return out


def test_disjunction_witnesses_at_three_atoms_fail_when_revised_again():
    # 4.2e9 tuples, too many for the scalar loop: each kept witness of the
    # per-source operator fails its property when revised pair by pair
    sig = ("p", "q", "r")
    op = per_source_order_operator(sig, seed=0)
    reports = check_disjunction_iteration(op)
    rechecked = _rechecked_disjunction(op, reports)
    for i, name in enumerate(("disjunction_iteration_1", "disjunction_iteration_2")):
        assert reports[name].total_violations > 10 ** 8
        assert len(rechecked[name]) == 16 and all(fails[i] for fails in rechecked[name])


# ---------------------------------------------------------------------------
# The model-set space: the checkers read their sets, rows, round trips and
# definable sets from one cached space per (signature, matrix).


def _space_case(case):
    """A fresh distance, its signature and its matrix."""
    if case == "identity_matrix":
        return _identity_matrix_case()
    sig = ("p", "q", "r")[:int(case[0])]
    return _asymmetric_op(sig, 3).dist, sig, CLASSICAL


@pytest.mark.parametrize("case", ["1_atom", "2_atoms", "3_atoms", "identity_matrix"])
def test_warm_model_set_space_gives_the_reports_of_a_fresh_build(case):
    # every run builds its own distance and operator, so the runs share the
    # cached space alone.  The budget admits only the k = 1 loop walk over
    # the 255 theories of 3 atoms.
    k_max = 1 if case == "3_atoms" else 3

    def run():
        dist, sig, matrix = _space_case(case)
        op = RevisionOperator.from_distance(dist, sig)
        return (check_agm(op, matrix=matrix),
                check_disjunction_iteration(op, matrix=matrix),
                check_star_loop(op, k_max=k_max, matrix=matrix),
                check_dp_cp(dist, sig, matrix=matrix))

    revision._model_set_space.cache_clear()
    cold = run()
    hits = revision._model_set_space.cache_info().hits
    assert run() == cold
    assert revision._model_set_space.cache_info().hits > hits
    agm, disjunction, _, dp_cp = cold
    dist, sig, matrix = _space_case(case)
    op = RevisionOperator.from_distance(dist, sig)
    _assert_reports_equal(agm, _scalar_agm(op, matrix))
    if case == "3_atoms":
        # 4.2e9 tuples, too many for the scalar loop; a distance operator
        # keeps both properties, so no witness may be kept
        assert _rechecked_disjunction(op, disjunction, matrix) == {
            name: [] for name in disjunction}
        assert not any(rep.total_violations for rep in disjunction.values())
    else:
        _assert_reports_equal(disjunction, _scalar_disjunction(op, matrix))
    _assert_reports_equal(dp_cp, _scalar_dp_cp(dist, sig, matrix))
    definable = definable_model_sets(sig, matrix)
    assert type(definable) is frozenset
    assert all(type(s) is frozenset for s in definable)


# ---------------------------------------------------------------------------
# One revision table per operator: agm, the disjunction check and the star
# loop read the table the operator built on first use.


def _symmetric_op(sig, seed):
    universe = valuation_universe(sig)
    rng = random.Random(seed)
    table = {}
    for i, v in enumerate(universe):
        for w in universe[i:]:
            table[v, w] = table[w, v] = F(0) if v == w else F(rng.randrange(1, 7))
    return RevisionOperator.from_distance(PseudoDistance(universe, OrderMode.REAL, table), sig)


def _erratic_op(sig, seed):
    """A subset of the input drawn for each pair, the empty one too: with
    no postulate to keep, the loop fails at k = 1 as well."""

    def fn(vset, wset):
        rng = random.Random(f"{seed}:{_labels(vset)}:{_labels(wset)}")
        return frozenset(w for w in sorted(wset) if rng.random() < 0.5)  # not in hash order

    return RevisionOperator.from_function(fn, sig)


def _answer_table(op, space):
    """``op``'s answers on every pair of consistent theories, as the
    explicit entries of a set operator over the valuations: no revision
    table is read to build it."""
    return OperatorTable(space.order, {(v, w): op.revise_models(v, w)
                                       for v in space.sets for w in space.sets})


@pytest.mark.parametrize("k_max", [1, 2, 3, None])
def test_star_loop_off_the_table_matches_the_generic_loop_check(k_max):
    # the generic check asks an explicit table of the operator's answers
    # through lookup_rows; the star loop reads a distance operator's
    # premises off its set distances and a function operator's off its
    # revision table.  Symmetric set distances certify the star loop's
    # pass, and the walk on its premises matches the generic check's
    failed = passed = 0
    for sig in (("p",), SIG):
        space = revision._model_set_space(sig, CLASSICAL)
        for seed in range(8):
            symmetric = _symmetric_op(sig, seed)
            for op in (symmetric, _asymmetric_op(sig, seed),
                       per_source_order_operator(sig, seed=seed), _erratic_op(sig, seed)):
                verdict = check_star_loop(op, k_max=k_max)
                assert op is not symmetric or verdict.phi_classes is not None
                walked = check_loop(_answer_table(op, space), space.sets, k_max)
                if verdict.phi_classes is None:
                    assert verdict == walked, (sig, seed, op)
                else:
                    # certified off symmetric set distances: the walk on the
                    # same premises passes too
                    n, k = len(space.sets), k_max or 0
                    assert verdict == distops.LoopVerdict(
                        True, k, (), sum(n ** (j + 1) for j in range(1, k + 1)),
                        states=0, fixpoint=0, phi_classes=verdict.phi_classes)
                    assert walked.passed and walked.phi_classes is None
                    premises = distops._premise_reader(op, space.loop, space.order)
                    assert distops._walk(premises, n, k_max) == (
                        None, walked.states, walked.fixpoint), (sig, seed, op)
                failed += not verdict.passed
                passed += verdict.passed
    assert failed >= 10 and passed >= 10


def test_one_revision_table_per_operator(monkeypatch):
    # a function operator is asked once per pair of the 2^4 masks of 2
    # atoms, on its first check alone
    asked = []
    revise_models = RevisionOperator.revise_models

    def spy(self, *args):
        asked.append(self)
        return revise_models(self, *args)

    monkeypatch.setattr(RevisionOperator, "revise_models", spy)
    op, other = (per_source_order_operator(SIG, seed=5) for _ in range(2))
    check_agm(op)
    assert len(asked) == 4 ** 4 and all(x is op for x in asked)
    check_disjunction_iteration(op)
    assert len(asked) == 4 ** 4
    # the star loop asks op only to recheck the chain it finds, once a link
    chain = check_star_loop(op, k_max=3).chain
    assert len(chain) == 3 and len(asked) == 4 ** 4 + len(chain)
    asked.clear()
    check_star_loop(other, k_max=3)
    assert len(asked) == 4 ** 4 + len(chain) and all(x is other for x in asked)
    table = revision._revision_table(op, revision._model_set_space(SIG, CLASSICAL).order,
                                     "star loop")
    assert len(asked) == 4 ** 4 + len(chain) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    # the table is no field: equality and repr do not see it
    dist = hamming_pseudo_distance(SIG)
    used, fresh = (RevisionOperator.from_distance(dist, SIG) for _ in range(2))
    check_agm(used)
    assert used == fresh and repr(used) == repr(fresh)


def test_star_loop_premises_at_three_atoms_match_the_scalar_premise():
    # n = 255 theories: the n^3 premises are a 16.6 MB tensor, read in
    # chunks; read at once, the gather and its mask would add about 33 MB.
    # The star loop's premise reader, checked on sampled triples by the
    # scalar premise through op.lookup
    sig = ("p", "q", "r")
    space = revision._model_set_space(sig, CLASSICAL)
    sets = space.loop
    n = len(sets)
    a, c = np.divmod(np.arange(n * n), n)
    rng = np.random.default_rng(9)
    rows, b = rng.choice(n * n, 4000, replace=False), rng.integers(0, n, 4000)
    for op in (_asymmetric_op(sig, 9), per_source_order_operator(sig, seed=9)):
        premises = distops._premise_reader(op, sets, space.order)
        tracemalloc.start()
        try:
            every = premises(a, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20
        scalar = [distops._premise(op, sets[a[r]], sets[j], sets[c[r]])
                  for r, j in zip(rows.tolist(), b.tolist())]
        assert every[rows, b].tolist() == scalar
        assert 0 < sum(scalar) < len(scalar) and 0 < every.sum() < every.size
