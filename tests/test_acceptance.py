"""Acceptance criteria: one test per criterion, each announcing a single
pass/fail line with its tolerance."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from distrev.cli import main
from distrev.costs import OrderMode, PseudoDistance, check_hir
from distrev.distops import OperatorTable, apply, check_loop
from distrev.realizability import (
    brute_force_realizable,
    pair_var,
    solve_table,
    verify_witness,
)
from distrev.revision import (
    RevisionOperator,
    check_agm,
    check_disjunction_iteration,
    check_star_loop,
    hamming_pseudo_distance,
    valuation_universe,
)
from distrev.wheel import (
    _redirected,
    build_hamming_wheel,
    build_wheel_gadget,
    check_sandwich,
    verify_hamming_claims,
    verify_wheel_claims,
    wheel_equality_sweep,
)

F = Fraction


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_1_abstract_wheel_m4(announce, tmp_path):
    """Abstract gadget at the smallest size: unrealizable fragment, exact
    patched equality, patched distance properties, and a chain violation
    with k <= 8, all inside 60 s."""
    start = time.monotonic()
    gadget = build_wheel_gadget(n=1)
    report = verify_wheel_claims(gadget)
    ok = (
        report.fragment_verdict.status == "unsat"
        and report.equality.passed
        and report.equality.pairs_checked >= 256 * 256
        and all(r.passed for r in report.properties.values())
        and not report.loop.passed
        and report.loop.k <= 8
    )
    # the command-line wrapper must agree end to end
    cli_code = main(
        ["wheel", "--variant", "abstract", "--n", "1", "--dir", str(tmp_path)]
    )
    elapsed = time.monotonic() - start
    ok = ok and cli_code == 0 and elapsed < 60
    announce(
        f"ACCEPTANCE 1 {'PASS' if ok else 'FAIL'} - abstract wheel m=4: "
        f"fragment {report.fragment_verdict.status}, equality on "
        f"{report.equality.pairs_checked} pairs, loop k={report.loop.k} (<=8), "
        f"{elapsed:.1f}s (<60s)"
    )
    assert ok


def test_criterion_2_abstract_wheel_m5_m6(announce):
    """Same gadget at m=5 and m=6, both swept exhaustively: zero mismatches
    over every pair and all distance properties hold."""
    ok = True
    details = []
    for n, pairs in ((2, 1 << 24), (3, 1 << 28)):  # 12 and 14 points
        gadget = build_wheel_gadget(n=n)
        report = verify_wheel_claims(gadget)
        m = gadget.m
        this_ok = (
            report.fragment_verdict.status == "unsat"
            and report.equality.passed
            and report.equality.pairs_checked == pairs
            and all(r.passed for r in report.properties.values())
        )
        ok = ok and this_ok
        details.append(f"m={m}:{report.equality.pairs_checked} pairs")
    announce(
        f"ACCEPTANCE 2 {'PASS' if ok else 'FAIL'} - abstract wheel m=5,6: "
        + ", ".join(details)
        + " (zero mismatches)"
    )
    assert ok


def test_criterion_3_hamming_wheel(announce):
    """Hamming gadget at m=4 over 8 atoms with three off-wheel valuations:
    patched equality, in-wheel reduction, difference-order respect, liberal
    triangle, sandwich bound, inside 120 s."""
    start = time.monotonic()
    gadget = build_hamming_wheel(n=1)
    report = verify_hamming_claims(gadget)
    elapsed = time.monotonic() - start
    ok = report.passed and elapsed < 120
    announce(
        f"ACCEPTANCE 3 {'PASS' if ok else 'FAIL'} - hamming wheel m=4: "
        f"equality {report.equality.pairs_checked} pairs, reduction "
        f"{report.reduction.pairs_checked} pairs, order/triangle/sandwich "
        f"{'ok' if ok else 'violated'}, {elapsed:.1f}s (<120s)"
    )
    assert ok


def _random_table(rng, universe, symmetric):
    sets = [
        frozenset(c)
        for r in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]
    while True:
        entries = {}
        for _ in range(rng.randrange(1, 5)):
            v = rng.choice(sets)
            w = rng.choice(sets)
            members = sorted(w)
            x = frozenset(rng.sample(members, rng.randrange(1, len(members) + 1)))
            entries[(v, w)] = x
        variables = set()
        for (v, w), _x in entries.items():
            variables.update(
                pair_var(a, b, symmetric) for a in v for b in w
            )
        if len(variables) <= 6:
            return OperatorTable(universe, entries)


def test_criterion_4_solver_vs_oracle(announce):
    """Branching solver agrees with the weak-order brute-force oracle on
    at least 200 random tables over 2- and 3-point universes (symmetric
    pair merging, at most 6 merged variables): 100% verdict agreement."""
    rng = random.Random(2024)
    total = 0
    agreements = 0
    for i in range(200):
        universe = ("a", "b") if i % 2 == 0 else ("a", "b", "c")
        table = _random_table(rng, universe, symmetric=True)
        ours = solve_table(table, symmetric=True)
        oracle = brute_force_realizable(table, symmetric=True)
        total += 1
        if ours.status == oracle.status:
            agreements += 1
            if ours.status == "sat":
                assert verify_witness(ours.witness, table, symmetric=True)
    ok = total >= 200 and agreements == total
    announce(
        f"ACCEPTANCE 4 {'PASS' if ok else 'FAIL'} - solver vs oracle: "
        f"{agreements}/{total} agreement (need 100% of >=200)"
    )
    assert ok


def test_criterion_5_loop_never_fails_for_symmetric(announce):
    """200 random symmetric distances on 4 points: every chain of length
    k <= 3 over the nonempty subsets satisfies the loop condition (chain
    spaces fit the 1e6 budget, so all runs are exhaustive)."""
    universe = ("a", "b", "c", "d")
    family = [
        frozenset(c)
        for r in range(1, 5)
        for c in itertools.combinations(universe, r)
    ]
    rng = random.Random(99)
    violations = 0
    sampled_runs = 0
    for _ in range(200):
        table = {}
        for i, v in enumerate(universe):
            for w in universe[i:]:
                c = F(0) if v == w else F(rng.randrange(1, 24), 4)
                table[(v, w)] = c
                table[(w, v)] = c
        dist = PseudoDistance(universe, OrderMode.REAL, table)
        op = OperatorTable(universe, {}, backing=dist)
        verdict = check_loop(op, family, k_max=3, budget=10**6, samples=10**4)
        if not verdict.passed:
            violations += 1
        if verdict.sampled:
            sampled_runs += 1
    ok = violations == 0
    announce(
        f"ACCEPTANCE 5 {'PASS' if ok else 'FAIL'} - loop condition, 200 "
        f"symmetric distances on 4 points: {violations} violations "
        f"({sampled_runs} sampled runs; 0 expected for both)"
    )
    assert ok


def _random_ir_positive_distance(rng, signature):
    universe = valuation_universe(signature)
    table = {}
    for v in universe:
        for w in universe:
            table[(v, w)] = (
                F(0) if v == w else F(rng.randrange(1, 24), 4)
            )
    return PseudoDistance(universe, OrderMode.REAL, table)


def test_criterion_6_revision_postulates(announce):
    """20 random identity-respecting positive distances on 2 atoms: the
    five revision postulates hold (first four exhaustive over all 225
    consistent pairs, the composite one over all 3,375 triples) and both
    iterated-disjunction properties hold over all 50,625 tuples."""
    sig = ("p", "q")
    rng = random.Random(5)
    postulate_failures = 0
    disjunction_failures = 0
    for i in range(20):
        dist = _random_ir_positive_distance(rng, sig)
        op = RevisionOperator.from_distance(dist, sig)
        agm = check_agm(op, samples=10_000, seed=i)
        if not all(r.passed for r in agm.values()):
            postulate_failures += 1
        disj = check_disjunction_iteration(op, samples=10_000, seed=i)
        if not all(r.passed for r in disj.values()):
            disjunction_failures += 1
    ok = postulate_failures == 0 and disjunction_failures == 0
    announce(
        f"ACCEPTANCE 6 {'PASS' if ok else 'FAIL'} - revision postulates on "
        f"20 random distances: {postulate_failures} postulate failures, "
        f"{disjunction_failures} iterated-disjunction failures (0 expected)"
    )
    assert ok


def test_criterion_7_star_loop_exhaustive(announce):
    """One symmetric identity-respecting positive distance on 2 atoms:
    the theory-level chain condition holds for every chain with k <= 3
    over all consistent theories (exhaustive)."""
    sig = ("p", "q")
    op = RevisionOperator.from_distance(hamming_pseudo_distance(sig), sig)
    verdict = check_star_loop(op, k_max=3)
    ok = verdict.passed and not verdict.sampled
    announce(
        f"ACCEPTANCE 7 {'PASS' if ok else 'FAIL'} - theory-level loop "
        f"condition: {verdict.checked} chains checked exhaustively, "
        f"{'no' if verdict.passed else 'a'} violation"
    )
    assert ok


def test_criterion_8_mutation_sensitivity(announce):
    """Each documented mutation is caught by its designated check:
    (a) a corrupted patched rung cost breaks the sandwich bound while the
    difference-order check alone would still pass; (b) dropping the
    closeness guard breaks operator equality; (c) swapping two witness
    ranks is rejected by witness verification."""
    # (a) corrupted rung cost
    g = build_hamming_wheel(n=1)
    patched_op, patched_dist = g.patch(1)
    corrupted = patched_dist.replaced(
        {("v3", "w3"): F(26, 10), ("w3", "v3"): F(26, 10)}
    )
    a_ok = (
        not check_sandwich(g, patched=corrupted).passed
        and check_hir(corrupted, g.points).passed
    )

    # (b) dropped closeness guard: the special wrap entry fires on a pair
    # polluted with a nearby off-wheel valuation and disagrees with the
    # patched minimization, and the equality sweep reports that pair
    unguarded = OperatorTable(g.universe, _redirected(
        g.m, g.universe[2 * g.m:], ((g.m, g.m), (1, 2)), lambda a, b: False),
        backing=g.dist)
    polluted = frozenset({"v4", "v1", "e1"})
    wrap_w = frozenset({"w4", "w1"})
    expected = apply(patched_dist, polluted, wrap_w)
    sweep = wheel_equality_sweep(unguarded, patched_dist, witness_cap=1 << 30)
    b_ok = (
        patched_op.lookup(polluted, wrap_w) == expected
        and unguarded.lookup(polluted, wrap_w) != expected
        and (polluted, wrap_w) in sweep.mismatches
    )

    # (c) swapped witness ranks
    universe = ("a", "b", "c")
    dist = PseudoDistance.from_function(
        universe,
        OrderMode.REAL,
        lambda v, w: F(0) if v == w else (F(1) if "a" in (v, w) else F(2)),
    )
    sets = [
        frozenset(c)
        for r in range(1, 4)
        for c in itertools.combinations(universe, r)
    ]
    table = OperatorTable(
        universe, {(v, w): apply(dist, v, w) for v in sets for w in sets}
    )
    verdict = solve_table(table)
    ranks = sorted(set(verdict.witness.values()))
    lo, hi = ranks[0], ranks[1]
    swapped = {
        k: (hi if r == lo else lo if r == hi else r)
        for k, r in verdict.witness.items()
    }
    c_ok = (
        verdict.status == "sat"
        and verify_witness(verdict.witness, table)
        and not verify_witness(swapped, table)
    )

    ok = a_ok and b_ok and c_ok
    announce(
        f"ACCEPTANCE 8 {'PASS' if ok else 'FAIL'} - mutation sensitivity: "
        f"rung corruption {'caught' if a_ok else 'missed'}, guard drop "
        f"{'caught' if b_ok else 'missed'}, rank swap "
        f"{'caught' if c_ok else 'missed'}"
    )
    assert ok
