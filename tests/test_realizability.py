import itertools
import random
from fractions import Fraction

import pytest

import distrev.realizability as realizability
from distrev.costs import OrderMode, PseudoDistance
from distrev.distops import OperatorTable, apply
from distrev.errors import BoundExceededError, DistrevError, UnrealizableError, WitnessError
from distrev.realizability import (
    ConstraintSystem,
    Verdict,
    brute_force_realizable,
    compile_constraints,
    ordered_set_partitions,
    pair_var,
    solve,
    solve_table,
    verify_witness,
    witness_distance,
)

F = Fraction


def _random_table(rng, universe, symmetric):
    """A random explicit table with inclusion respected and few enough
    merged pair variables for the brute-force oracle."""
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
            x = frozenset(
                rng.sample(members, rng.randrange(1, len(members) + 1))
            )
            entries[(v, w)] = x
        variables = set()
        for (v, w), _x in entries.items():
            for a in v:
                for b in w:
                    variables.add(pair_var(a, b, symmetric))
        if len(variables) <= 6:
            return OperatorTable(universe, entries)


def test_ordered_set_partition_counts():
    # Fubini numbers: 1, 1, 3, 13, 75, 541
    for n, expected in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75), (5, 541)]:
        assert sum(1 for _ in ordered_set_partitions(range(n))) == expected


def test_oracle_bound():
    universe = ("a", "b", "c", "d")
    entries = {
        (frozenset(universe), frozenset(universe)): frozenset(universe),
    }
    with pytest.raises(BoundExceededError):
        brute_force_realizable(OperatorTable(universe, entries), max_vars=6)


def test_distance_derived_tables_are_sat():
    rng = random.Random(1)
    universe = ("a", "b", "c")
    for _ in range(20):
        dist = PseudoDistance.from_function(
            universe,
            OrderMode.REAL,
            lambda v, w: F(0) if v == w else F(rng.randrange(1, 5)),
        )
        sets = [
            frozenset(c)
            for r in range(1, 4)
            for c in itertools.combinations(universe, r)
        ]
        entries = {
            (v, w): apply(dist, v, w) for v in sets for w in sets
        }
        verdict = solve_table(OperatorTable(universe, entries))
        assert verdict.status == "sat"
        assert verify_witness(verdict.witness, OperatorTable(universe, entries))


def test_structurally_impossible_tables_are_unsat():
    universe = ("a", "b")
    # result escapes W
    t = OperatorTable(
        universe, {(frozenset({"a"}), frozenset({"a"})): frozenset({"b"})}
    )
    assert solve_table(t).status == "unsat"
    # empty result on non-empty arguments
    t = OperatorTable(universe, {(frozenset({"a"}), frozenset({"b"})): frozenset()})
    assert solve_table(t).status == "unsat"
    # non-empty result on empty argument
    t = OperatorTable(universe, {(frozenset(), frozenset({"b"})): frozenset({"b"})})
    assert solve_table(t).status == "unsat"


def test_empty_arguments_with_empty_result_are_fine():
    universe = ("a", "b")
    t = OperatorTable(universe, {(frozenset(), frozenset({"b"})): frozenset()})
    assert solve_table(t).status == "sat"


def test_unsat_conflict_carries_provenance():
    # three entries force a strict cycle among the pair costs from v
    universe = ("v", "w1", "w2", "w3")
    entries = {
        (frozenset({"v"}), frozenset({"w1", "w2"})): frozenset({"w1"}),
        (frozenset({"v"}), frozenset({"w2", "w3"})): frozenset({"w2"}),
        (frozenset({"v"}), frozenset({"w1", "w3"})): frozenset({"w3"}),
    }
    t = OperatorTable(universe, entries)
    verdict = solve_table(t)
    assert verdict.status == "unsat"
    assert len(verdict.conflict) == 3


def test_three_entry_table_is_unsat_in_few_nodes():
    # a b c | a b c -> a puts d(a, a) at the global minimum; a c | a b c -> b
    # then needs d(a, b) or d(c, b) below it, which the first entry forbids
    universe = ("a", "b", "c")
    t = OperatorTable(
        universe,
        {
            (frozenset("abc"), frozenset("abc")): frozenset("a"),
            (frozenset("ac"), frozenset("abc")): frozenset("b"),
            (frozenset("bc"), frozenset("abc")): frozenset("abc"),
        },
    )
    verdict = solve_table(t)
    assert verdict.status == "unsat"
    assert verdict.nodes <= 5
    assert verdict.conflict == [
        "['a', 'b', 'c']|['a', 'b', 'c']",
        "['a', 'c']|['a', 'b', 'c']",
        "['b', 'c']|['a', 'b', 'c']",
    ]


def _distance_table(rng, universe, symmetric):
    """5 entries per point minimized on a random distance."""
    costs = {}
    for v in universe:
        for w in universe:
            if symmetric and (w, v) in costs:
                costs[v, w] = costs[w, v]
            else:
                costs[v, w] = F(rng.randrange(0, 7), rng.randrange(1, 3))
    dist = PseudoDistance(universe, OrderMode.REAL, costs)
    sets = [frozenset(c) for r in range(1, len(universe) + 1)
            for c in itertools.combinations(universe, r)]
    entries = {}
    while len(entries) < 5 * len(universe):
        v, w = rng.choice(sets), rng.choice(sets)
        entries[v, w] = apply(dist, v, w)
    return OperatorTable(universe, entries)


@pytest.mark.parametrize("symmetric", [False, True])
def test_tables_from_real_distances_are_sat(symmetric):
    # oracle-free: minimized on a distance, so realizable by construction
    rng = random.Random(7 if symmetric else 8)
    for i in range(24):
        t = _distance_table(rng, tuple(f"p{k}" for k in range(4 + i % 5)), symmetric)
        verdict = solve_table(t, symmetric=symmetric, budget=800)
        assert verdict.status == "sat", (i, verdict.nodes)
        assert verify_witness(verdict.witness, t, symmetric)


def _hard_table(seed, symmetric):
    """200 distinct entries on 14 points, V of 1 to 3 points and W of 2 to
    5, minimized on a random distance with costs 1 to 49; asymmetric
    tables are the hard case."""
    rng = random.Random(seed)
    pts = tuple(f"p{i}" for i in range(14))
    costs = {}
    for v in pts:
        for w in pts:
            if v == w:
                costs[v, w] = F(0)
            elif symmetric and (w, v) in costs:
                costs[v, w] = costs[w, v]
            else:
                costs[v, w] = F(rng.randint(1, 49))
    dist = PseudoDistance(pts, OrderMode.REAL, costs)
    entries = {}
    while len(entries) < 200:
        v = frozenset(rng.sample(pts, rng.randint(1, 3)))
        w = frozenset(rng.sample(pts, rng.randint(2, 5)))
        entries[v, w] = apply(dist, v, w)
    return OperatorTable(pts, entries)


def test_hard_table_size():
    system = compile_constraints(_hard_table(1, False))
    assert (len(system.variables), len(system.minima), len(system.encoded),
            sum(len(atoms) for _tag, atoms in system.encoded)) == (196, 200, 1630, 1878)


@pytest.mark.parametrize("symmetric", [False, True])
def test_hard_tables_are_sat_within_2000_nodes(symmetric):
    for seed in range(1, 9):
        t = _hard_table(seed, symmetric)
        verdict = solve_table(t, symmetric=symmetric, budget=2000)
        assert verdict.status == "sat", (seed, verdict.nodes)
        assert verify_witness(verdict.witness, t, symmetric)


@pytest.mark.parametrize("symmetric", [False, True])
def test_unsat_conflict_names_an_unrealizable_subtable(symmetric):
    # dense tables over few variables, so that many are unsat and need
    # branching; the entries a conflict names must be unrealizable alone
    rng = random.Random(11 if symmetric else 12)
    unsat = 0
    for _ in range(60 if symmetric else 300):
        t = _dense_table(rng, symmetric)
        verdict = solve_table(t, symmetric=symmetric)
        assert verdict.status == brute_force_realizable(t, symmetric=symmetric).status
        if verdict.status == "unsat":
            unsat += 1
            core = _conflict_table(t, verdict)
            assert brute_force_realizable(core, symmetric=symmetric).status == "unsat"
    assert unsat >= 10


def _dense_table(rng, symmetric):
    """2 to 10 random entries over 3 points if symmetric, else 2, each
    keeping one point of W or all of it."""
    universe = ("a", "b", "c") if symmetric else ("a", "b")
    sets = [
        frozenset(c)
        for r in range(1, len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]
    entries = {}
    for _ in range(rng.randrange(2, 11)):
        v, w = rng.choice(sets), rng.choice(sets)
        entries[v, w] = frozenset(rng.sample(sorted(w), rng.choice([1, 1, len(w)])))
    return OperatorTable(universe, entries)


def _conflict_table(t, verdict):
    """The entries of ``t`` that an unsat verdict's conflict names."""
    return OperatorTable(t.universe, {
        k: x for k, x in t.entries.items()
        if realizability._tag(sorted(k[0]), sorted(k[1])) in verdict.conflict})


def _letters_table(entries):
    """A table over a, b, c from entries written as strings of points."""
    return OperatorTable(("a", "b", "c"), {
        (frozenset(v), frozenset(w)): frozenset(x) for (v, w), x in entries.items()})


def test_budget_exhaustion_returns_unknown():
    # budget 0 stops at the first node, before any propagation
    rng = random.Random(5)
    for _ in range(20):
        t = _random_table(rng, ("a", "b", "c"), symmetric=False)
        verdict = solve(compile_constraints(t), budget=0)
        assert (verdict.status, verdict.nodes) == ("unknown", 1)
    # running out mid-search: a table decided in k > 2 nodes is unknown at
    # budget k - 1 and gets its verdict at budget k
    for entries, symmetric, status, k in [
        ({("ab", "c"): "c", ("bc", "ac"): "ac", ("ac", "abc"): "abc"}, True, "sat", 7),
        ({("ab", "ab"): "ab", ("ab", "abc"): "ac"}, False, "unsat", 4),
    ]:
        t = _letters_table(entries)
        system = compile_constraints(t, symmetric)
        short = solve(system, budget=k - 1)
        assert (short.status, short.nodes) == ("unknown", k)
        enough = solve(system, budget=k)
        assert (enough.status, enough.nodes) == (status, k)
        assert enough == solve(system)


@pytest.mark.parametrize("symmetric", [False, True])
def test_solver_matches_oracle(symmetric):
    rng = random.Random(42 if symmetric else 43)
    for i in range(60):
        universe = ("a", "b") if i % 2 == 0 else ("a", "b", "c")
        t = _random_table(rng, universe, symmetric)
        ours = solve_table(t, symmetric=symmetric)
        oracle = brute_force_realizable(t, symmetric=symmetric)
        assert ours.status == oracle.status, (i, t.entries)
        if ours.status == "sat":
            assert verify_witness(ours.witness, t, symmetric)


def test_witness_distance_defaults():
    witness = {("a", "b"): 0, ("a", "a"): 1}
    dist = witness_distance(witness, ("a", "b"))
    assert dist.d("a", "b") == F(0)
    assert dist.d("b", "a") == F(2)  # unmentioned pair above every rank


def test_swapped_witness_ranks_detected():
    # mutation check: corrupting a sat witness by swapping two distinct
    # ranks must be caught by verification
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
    entries = {(v, w): apply(dist, v, w) for v in sets for w in sets}
    t = OperatorTable(universe, entries)
    verdict = solve_table(t)
    assert verdict.status == "sat"
    ranks = sorted(set(verdict.witness.values()))
    assert len(ranks) >= 2
    a, b = ranks[0], ranks[1]
    swapped = {
        k: (b if r == a else a if r == b else r)
        for k, r in verdict.witness.items()
    }
    assert not verify_witness(swapped, t)


def test_bogus_sat_witness_raises(monkeypatch):
    # the re-verification of a sat witness is an explicit check, so it also
    # runs under python -O
    universe = ("a", "b")
    key = (frozenset({"a"}), frozenset({"a", "b"}))
    t = OperatorTable(universe, {key: frozenset({"a"})})
    assert solve_table(t).status == "sat"
    bogus = {("a", "a"): 1, ("a", "b"): 0}  # puts b strictly closer than a

    monkeypatch.setattr(
        realizability, "solve", lambda system, budget: Verdict("sat", witness=bogus)
    )
    with pytest.raises(WitnessError) as exc:
        solve_table(t)
    assert isinstance(exc.value, DistrevError)


# ---------------------------------------------------------------------------
# The closure update, seen only through verdicts


def _reference_order(n, atoms):
    """The transitive closure of ``atoms`` = (a, b, strict) over n
    variables, by a search from each variable over states (variable,
    whether a strict atom was crossed): returns ``le`` and ``lt`` with
    ``le[x][y]`` when x <= y is entailed and ``lt[x][y]`` when x < y is."""
    edges = [[] for _ in range(n)]
    for a, b, strict in atoms:
        edges[a].append((b, strict))
    le = [[False] * n for _ in range(n)]
    lt = [[False] * n for _ in range(n)]
    for x in range(n):
        seen = {(x, False)}
        stack = [(x, False)]
        while stack:
            y, crossed = stack.pop()
            le[x][y] = True
            lt[x][y] = lt[x][y] or crossed
            for z, strict in edges[y]:
                state = (z, crossed or strict)
                if state not in seen:
                    seen.add(state)
                    stack.append(state)
    return le, lt


def _reference_ranks(n, le, lt):
    """Each variable's rank: the number of its equivalence classes (x <= y
    and y <= x) lying strictly below it."""
    classes = [frozenset(y for y in range(n) if le[x][y] and le[y][x]) for x in range(n)]
    return [len({classes[y] for y in range(n) if lt[y][x]}) for x in range(n)]


def _unit_sequence(rng):
    """6 to 12 variables and a shuffled sequence of unit atoms that agree
    with a hidden weak order (equal levels give non-strict cycles), with an
    atom against it now and then."""
    n = rng.randint(6, 12)
    level = [rng.randrange(4) for _ in range(n)]
    atoms = []
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        if level[a] > level[b]:
            a, b = b, a
        atoms.append((a, b, level[a] < level[b] and rng.random() < 0.5))
    for _ in range(rng.choice([0, 0, 1, 2])):
        a, b = rng.sample(range(n), 2)
        atoms.append((a, b, rng.random() < 0.5))
    rng.shuffle(atoms)
    return n, atoms


def test_closure_of_unit_atoms_matches_a_reference_closure():
    # unit clauses are asserted one by one in order, so the verdict reads
    # the solver's closure: a sat witness gives its ranks, and a strict
    # cycle anywhere in the closure must make the sequence unsat
    rng = random.Random(21)
    tally = {"sat": 0, "unsat": 0}
    widest = 0  # the largest min(|below a|, |above b|) met by an atom
    for _ in range(300):
        n, atoms = _unit_sequence(rng)
        for k, (a, b, _strict) in enumerate(atoms):
            le, _lt = _reference_order(n, atoms[:k])
            widest = max(widest, min(sum(le[x][a] for x in range(n)),
                                     sum(le[b][y] for y in range(n))))
        system = ConstraintSystem(
            tuple(f"x{i}" for i in range(n)), (),
            [(f"u{k}", (atom,)) for k, atom in enumerate(atoms)])
        verdict = solve(system)
        le, lt = _reference_order(n, atoms)
        cyclic = any(lt[x][x] for x in range(n))
        assert verdict.status == ("unsat" if cyclic else "sat"), atoms
        tally[verdict.status] += 1
        if cyclic:
            core = [atoms[int(tag[1:])] for tag in verdict.conflict]
            _le, core_lt = _reference_order(n, core)
            assert any(core_lt[x][x] for x in range(n)), (atoms, verdict.conflict)
        else:
            ranks = _reference_ranks(n, le, lt)
            assert verdict.witness == {f"x{i}": ranks[i] for i in range(n)}, atoms
    assert tally["sat"] >= 100 and tally["unsat"] >= 30, tally
    assert widest >= 4


def _units(clauses):
    """A system over x0..x3 with no minima from clauses of (a, b, strict)
    atoms, tagged u0, u1, ... in order."""
    return ConstraintSystem(tuple(f"x{i}" for i in range(4)), (),
                            [(f"u{k}", tuple(atoms)) for k, atoms in enumerate(clauses)])


def _holds(rank, clauses):
    """Whether every clause has an atom that the ranks of x0..x3 satisfy."""
    return all(any(rank[a] < rank[b] if strict else rank[a] <= rank[b]
                   for a, b, strict in atoms) for atoms in clauses)


def _weak_order_exists(clauses):
    return any(_holds({x: r for r, block in enumerate(p) for x in block}, clauses)
               for p in ordered_set_partitions(range(4)))


def test_self_atoms_are_entailed_or_blocked():
    # a <= a always holds and a < a never does, whether the atom is a unit
    # met before the search or one atom of a wider clause
    for clauses, conflict in [
        ([[(0, 0, True)]], ["u0"]),
        ([[(0, 1, False)], [(1, 1, True)]], ["u1"]),
        ([[(0, 0, True), (0, 1, False)], [(1, 0, True)]], ["u0", "u1"]),
    ]:
        verdict = solve(_units(clauses))
        assert (verdict.status, verdict.conflict, verdict.nodes) == ("unsat", conflict, 1)
    for clauses in ([[(0, 0, False)]], [[(0, 1, True)], [(1, 0, False), (1, 1, False)]]):
        verdict = solve(_units(clauses))
        assert verdict.status == "sat"
        assert _holds({int(x[1:]): r for x, r in verdict.witness.items()}, clauses)
    # random clauses of 1 to 3 atoms over 4 variables, a third of the atoms
    # on a single variable, against every weak order of the 4 variables
    rng = random.Random(23)
    tally = {"sat": 0, "unsat": 0}
    for _ in range(300):
        clauses = [[(a, a if rng.random() < 0.3 else b, rng.random() < 0.5)
                    for a, b in (rng.sample(range(4), 2) for _ in range(rng.randint(1, 3)))]
                   for _ in range(rng.randint(1, 8))]
        verdict = solve(_units(clauses))
        assert verdict.status == ("sat" if _weak_order_exists(clauses) else "unsat"), clauses
        tally[verdict.status] += 1
        if verdict.status == "sat":
            assert _holds({int(x[1:]): r for x, r in verdict.witness.items()}, clauses)
        else:
            core = [clauses[int(tag[1:])] for tag in verdict.conflict]
            assert not _weak_order_exists(core), (clauses, verdict.conflict)
    assert tally["sat"] >= 50 and tally["unsat"] >= 50, tally


def _reordered(system, rng):
    """The system as compiled, with its units moved last, and shuffled."""
    units = [c for c in system.encoded if len(c[1]) == 1]
    wide = [c for c in system.encoded if len(c[1]) > 1]
    shuffled = system.encoded[:]
    rng.shuffle(shuffled)
    return [ConstraintSystem(system.variables, system.minima, encoded)
            for encoded in (system.encoded, wide + units, shuffled)]


@pytest.mark.parametrize("symmetric", [False, True])
def test_clause_order_does_not_change_the_verdict(symmetric):
    # units are asserted before the search only while they close one level
    # deep, so moving or shuffling them may change the path the search
    # takes, but never the status, the witness check or an unsat core
    rng = random.Random(31 if symmetric else 32)
    tally = {"sat": 0, "unsat": 0}
    tables = [_random_table(rng, ("a", "b", "c"), symmetric) for _ in range(60)]
    tables += [_dense_table(rng, symmetric) for _ in range(100)]
    tables += [_distance_table(rng, tuple(f"p{k}" for k in range(4 + i % 4)), symmetric)
               for i in range(12)]
    for t in tables:
        verdicts = [solve(s, budget=2000)
                    for s in _reordered(compile_constraints(t, symmetric), rng)]
        status = verdicts[0].status
        assert [v.status for v in verdicts] == [status] * 3, t.entries
        tally[status] += 1
        for v in verdicts:
            if status == "sat":
                assert verify_witness(v.witness, t, symmetric)
            else:
                core = _conflict_table(t, v)
                assert brute_force_realizable(core, symmetric=symmetric).status == "unsat"
    assert tally["sat"] >= 100 and tally["unsat"] >= 10, tally


# ---------------------------------------------------------------------------
# The encoding, against an encoder written from its spec


def _reference_encoding(table, symmetric):
    """Per entry (V, W) -> X, in order of sorted V then sorted W, with
    minimum mu: a unit mu <= d(v, w) per pair, mu < d(v, w) where some w of
    the pair lies outside X (strict wins), in order of first appearance
    over w then v; then per w in X, in order, the clause that some
    d(v, w) <= mu.  An entry with an empty argument and empty result has
    no minimum.  Returns the system's three fields or the error text."""
    def var(v, w):
        return tuple(sorted((v, w))) if symmetric else (v, w)

    rows = []
    for (vset, wset), xset in table.entries.items():
        vs, ws = sorted(vset), sorted(wset)
        rows.append(((vs, ws), f"{vs}|{ws}", xset))
    rows.sort(key=lambda row: row[0])
    kept_rows = []
    for (vs, ws), tag, xset in rows:
        if xset - set(ws):
            return f"entry {tag}: result not within W"
        if not vs or not ws:
            if xset:
                return f"entry {tag}: empty argument with non-empty result"
            continue
        if not xset:
            return (f"entry {tag}: empty result on non-empty arguments "
                    "(finite minimization is never empty)")
        kept_rows.append((tag, vs, ws, xset))
    names = sorted({var(v, w) for _tag, vs, ws, _x in kept_rows for v in vs for w in ws})
    variables = tuple(names)
    minima = tuple((tag,) for tag, _vs, _ws, _x in kept_rows)
    encoded = []
    for k, (tag, vs, ws, xset) in enumerate(kept_rows):
        mu = len(names) + k
        order = []
        for w in ws:
            for v in vs:
                if var(v, w) not in order:
                    order.append(var(v, w))
        for p in order:
            strict = any(w not in xset for v in vs for w in ws if var(v, w) == p)
            encoded.append((tag, ((mu, names.index(p), strict),)))
        for w in ws:
            if w in xset:
                encoded.append((tag, tuple((names.index(var(v, w)), mu, False) for v in vs)))
    return variables, minima, encoded


def _random_encoding_table(rng):
    """A table whose V and W overlap often, so symmetric pairs coincide;
    some entries have empty arguments, X outside W or an empty X."""
    universe = tuple("abcde"[:rng.randint(1, 5)])
    subsets = [frozenset(c) for r in range(len(universe) + 1)
               for c in itertools.combinations(universe, r)]
    entries = {}
    for _ in range(rng.randint(1, 6)):
        v = rng.choice(subsets)
        w = rng.choice([v, v | rng.choice(subsets), rng.choice(subsets)])
        roll = rng.random()
        if roll < 0.04:
            x = frozenset(rng.sample(universe, 1)) | w
        elif roll < 0.08 or not w:
            x = frozenset()
        else:
            x = frozenset(rng.sample(sorted(w), rng.randint(1, len(w))))
        entries[v, w] = x
    return OperatorTable(universe, entries)


def test_compile_matches_a_reference_encoder():
    rng = random.Random(33)
    outcomes = set()
    for i in range(600):
        t = _random_encoding_table(rng)
        for symmetric in (False, True):
            expected = _reference_encoding(t, symmetric)
            try:
                s = compile_constraints(t, symmetric)
            except UnrealizableError as exc:
                assert str(exc) == expected, (i, t.entries)
                outcomes.add(str(exc).split(": ", 1)[1][:12])
                continue
            assert (s.variables, s.minima, s.encoded) == expected, (i, symmetric, t.entries)
            outcomes.add("ok")
    assert outcomes == {"ok", "result not w", "empty argume", "empty result"}, outcomes


def test_compile_edge_cases_match_the_reference_encoder():
    # an empty argument with an empty result is dropped; on a pair met
    # twice in a symmetric entry, a strict second occurrence wins
    for entries, symmetric in [
        ({("", "ab"): "", ("a", ""): "", ("a", "b"): "b"}, False),
        ({("", ""): ""}, True),
        ({("ab", "ab"): "a"}, True),
        ({("ab", "ab"): "b"}, True),
        ({("a", "b"): "ab"}, False),
        ({("a", ""): "a"}, False),
        ({("a", "ab"): ""}, True),
    ]:
        t = OperatorTable(("a", "b"), {
            (frozenset(v), frozenset(w)): frozenset(x) for (v, w), x in entries.items()})
        expected = _reference_encoding(t, symmetric)
        try:
            s = compile_constraints(t, symmetric)
        except UnrealizableError as exc:
            assert str(exc) == expected
        else:
            assert (s.variables, s.minima, s.encoded) == expected
