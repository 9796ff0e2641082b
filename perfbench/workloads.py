"""Seeded inputs, fixed job lists and the correctness gate of each workload.

Every workload is one client in one process that sends its next job only
after the previous one finished (a closed loop).  Inputs are plain data made
from the seed alone -- point labels and cost strings -- so their digest does
not depend on the program under test.  ``jobs()`` turns them into fresh
distrev objects before each pass, outside the job timers, so no cache
survives from one pass to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from distrev import cli, distops, realizability, revision
from distrev.costs import OrderMode, PseudoDistance
from distrev.distops import OperatorTable

HERE = Path(__file__).resolve().parent

# checkers: criteria 5, 6 and 7 traffic plus one large uncached job
LOOP_DISTANCES = 25
REVISION_DISTANCES = 19
REVISION_SAMPLES = 2_000

# solver: fragments, criterion-4 tables, tables drawn from real distances and
# the 3-entry table
FRAGMENT_SIZES = range(4, 25)
CRITERION4_TABLES = 100
SAMPLED_POINTS = (4, 5)
SAMPLED_ENTRIES = range(6, 13)
SAMPLED_PER_SHAPE = 5
# The random tables (criterion-4 and drawn from real distances) are solved at
# this node budget, so that their heavy tail of node counts neither overruns
# a run nor swamps wall_s.  A table left unknown at the CLI default (200k) is
# unknown here too, so no failure of the default budget is hidden.
TABLE_BUDGET = 800
THREE_ENTRY_TABLE = """\
universe: a b c
entry: a b c | a b c -> a
entry: a c | a b c -> b
entry: b c | a b c -> a b c
"""

# gadgets: one child process per rung.  The Hamming ladder stops at n=2
# (m=5): at n=3 verify_hamming_claims allocates an uncapped 8 GiB apply_d
# table, the whole memory of a typical 8 GB machine, so that rung never runs.
GADGET_RUNGS = (
    ("abstract", 1), ("abstract", 2), ("abstract", 3),
    ("hamming", 1), ("hamming", 2),
)

EXIT_BUDGET = cli.EXIT_BUDGET


def _cost(num, den):
    return str(Fraction(num, den))


def _minimize(costs, vset, wset):
    """Reference minimization, independent of distops.apply."""
    best = min(costs[v, w] for v in vset for w in wset)
    return frozenset(w for w in wset if any(costs[v, w] == best for v in vset))


def _sym_distance(rng, points):
    """Symmetric identity-respecting positive costs k/4, 1 <= k < 24."""
    costs = {}
    for i, v in enumerate(points):
        for w in points[i:]:
            c = "0" if v == w else _cost(rng.randrange(1, 24), 4)
            costs[v, w] = costs[w, v] = c
    return costs


def _nonempty_subsets(points):
    return [
        frozenset(c)
        for r in range(1, len(points) + 1)
        for c in itertools.combinations(points, r)
    ]


def _plain_costs(costs):
    return sorted(f"{v} {w} {c}" for (v, w), c in costs.items())


def _plain_table(universe, entries):
    return {
        "universe": list(universe),
        "entries": sorted(
            f"{' '.join(sorted(v))} | {' '.join(sorted(w))} -> {' '.join(sorted(x))}"
            for (v, w), x in entries.items()
        ),
    }


def _distance(universe, costs, key=lambda p: p):
    table = {(key(v), key(w)): Fraction(c) for (v, w), c in costs.items()}
    return PseudoDistance(tuple(key(p) for p in universe), OrderMode.REAL, table)


class Workload:
    """Inputs and jobs of one workload.  ``plain`` holds the generated
    inputs; ``digest`` is the SHA-256 of their canonical JSON form."""

    name = ""
    children = False  # jobs run in child processes

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.plain = self.generate(random.Random(f"{self.name}:{seed}"))
        text = json.dumps(self.plain, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(text.encode()).hexdigest()

    def generate(self, rng):
        raise NotImplementedError

    def write_files(self):
        """Write the input files the program reads."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def jobs(self, tracer=None):
        """A fresh list of ``(kind, callable)`` for one pass."""
        raise NotImplementedError

    def undecided(self, kind, result):
        """The job completed without a verdict: it ended unknown or over
        budget (exit code 4)."""
        return False

    def gate(self, jobs, results, tracer=None):
        """Check the stored results; return a list of errors.  With a
        tracer, program calls made by the gate itself are traced."""
        raise NotImplementedError

    def rung_rss_kb(self, results):
        """Peak RSS of each child process of one pass."""
        return []

    def counts(self, jobs, results):
        """Exact work counts and verdict tallies of one pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# checkers


class Checkers(Workload):
    name = "checkers"
    loop_points = ("a", "b", "c", "d")
    small_sig = ("p", "q")
    large_sig = ("p", "q", "r")

    def generate(self, rng):
        def labels(sig):
            return ["".join(bits) for bits in itertools.product("01", repeat=len(sig))]

        return {
            "loop": [_plain_costs(_sym_distance(rng, self.loop_points))
                     for _ in range(LOOP_DISTANCES)],
            "revision": [
                {"costs": _plain_costs(_sym_distance(rng, labels(self.small_sig))),
                 "seed": rng.randrange(2**31)}
                for _ in range(REVISION_DISTANCES)
            ],
            "large": _plain_costs(_sym_distance(rng, labels(self.large_sig))),
        }

    @staticmethod
    def _costs(plain):
        out = {}
        for line in plain:
            v, w, c = line.split()
            out[v, w] = c
        return out

    def _valuation_distance(self, plain, sig):
        by_label = {v.label(): v for v in revision.valuation_universe(sig)}
        return _distance(sorted(by_label), self._costs(plain), key=by_label.__getitem__)

    def jobs(self, tracer=None):
        family = _nonempty_subsets(self.loop_points)
        out = []
        for plain in self.plain["loop"]:
            op = OperatorTable(self.loop_points, {},
                               backing=_distance(self.loop_points, self._costs(plain)))
            out.append(("check_loop", lambda op=op: distops.check_loop(
                op, family, k_max=3, budget=10**6, samples=10**4)))
        sig = self.small_sig
        for item in self.plain["revision"]:
            dist = self._valuation_distance(item["costs"], sig)
            op = revision.RevisionOperator.from_distance(dist, sig)
            seed = item["seed"]
            out += [
                ("check_agm", lambda op=op, s=seed: revision.check_agm(
                    op, samples=REVISION_SAMPLES, seed=s)),
                ("check_disjunction_iteration", lambda op=op, s=seed:
                    revision.check_disjunction_iteration(
                        op, samples=REVISION_SAMPLES, seed=s)),
                ("check_star_loop", lambda op=op: revision.check_star_loop(op, k_max=3)),
                ("check_dp_cp", lambda d=dist: revision.check_dp_cp(d, sig)),
            ]
        large = self._valuation_distance(self.plain["large"], self.large_sig)
        out.append(("check_dp_cp_3atom",
                    lambda: revision.check_dp_cp(large, self.large_sig)))
        return out

    def gate(self, jobs, results, tracer=None):
        # every distance here is symmetric, identity-respecting and positive,
        # so each postulate, chain and preservation check must pass
        errors = []
        for (kind, _), res in zip(jobs, results):
            if kind in ("check_loop", "check_star_loop"):
                if not res.passed:
                    errors.append(f"{kind}: loop condition failed on a symmetric distance")
            elif not all(rep.passed for rep in res.values()):
                bad = sorted(k for k, rep in res.items() if not rep.passed)
                errors.append(f"{kind}: {', '.join(bad)} failed")
        return errors

    def counts(self, jobs, results):
        chains = sum(r.checked for (k, _), r in zip(jobs, results)
                     if k in ("check_loop", "check_star_loop"))
        sampled = sum(bool(r.sampled) for (k, _), r in zip(jobs, results)
                      if k in ("check_loop", "check_star_loop"))
        return {"chains": chains, "sampled_loop_runs": sampled}


# ---------------------------------------------------------------------------
# solver


def _fragment_entries(m):
    """The abstract wheel's proof fragment (3m entries, unrealizable).

    On the wheel distance a rung doubleton keeps both partners, a singleton
    keeps its own rung partner, and the modified wrap entry keeps w_m only.
    """
    entries = {}
    for i in range(1, m + 1):
        j = i % m + 1
        vv, ww = frozenset({f"v{i}", f"v{j}"}), frozenset({f"w{i}", f"w{j}"})
        entries[vv, ww] = frozenset({f"w{m}"}) if i == m else ww
        entries[frozenset({f"v{i}"}), ww] = frozenset({f"w{i}"})
        entries[frozenset({f"v{j}"}), ww] = frozenset({f"w{j}"})
    return entries


def _pair_var(v, w):
    return (v, w) if v <= w else (w, v)


def _criterion4_table(rng, universe):
    """A random table with at most 6 merged pair variables (criterion 4)."""
    sets = _nonempty_subsets(universe)
    while True:
        entries = {}
        for _ in range(rng.randrange(1, 5)):
            v, w = rng.choice(sets), rng.choice(sets)
            members = sorted(w)
            entries[v, w] = frozenset(rng.sample(members, rng.randrange(1, len(members) + 1)))
        variables = {_pair_var(a, b) for (v, w) in entries for a in v for b in w}
        if len(variables) <= 6:
            return entries


def _sampled_table(rng, points, size):
    """``size`` entries minimized on a random symmetric distance."""
    costs = {k: Fraction(c) for k, c in _sym_distance(rng, points).items()}
    sets = _nonempty_subsets(points)
    entries = {}
    while len(entries) < size:
        v, w = rng.choice(sets), rng.choice(sets)
        entries[v, w] = _minimize(costs, v, w)
    return entries


def _table(plain):
    entries = {}
    for line in plain["entries"]:
        args, x = line.split("->")
        v, w = args.split("|")
        entries[frozenset(v.split()), frozenset(w.split())] = frozenset(x.split())
    return OperatorTable(tuple(plain["universe"]), entries)


class Solver(Workload):
    name = "solver"

    def generate(self, rng):
        fragments = []
        for m in FRAGMENT_SIZES:
            universe = [f"v{i}" for i in range(1, m + 1)] + \
                       [f"w{i}" for i in range(1, m + 1)] + ["x1", "x2"]
            fragments.append(_plain_table(universe, _fragment_entries(m)))
        criterion4 = []
        for i in range(CRITERION4_TABLES):
            universe = ("a", "b") if i % 2 == 0 else ("a", "b", "c")
            criterion4.append(_plain_table(universe, _criterion4_table(rng, universe)))
        sampled = []
        for n in SAMPLED_POINTS:
            points = tuple("abcde"[:n])
            for size in SAMPLED_ENTRIES:
                for _ in range(SAMPLED_PER_SHAPE):
                    sampled.append(_plain_table(points, _sampled_table(rng, points, size)))
        return {"fragment": fragments, "criterion4": criterion4,
                "sampled": sampled, "three_entry": THREE_ENTRY_TABLE}

    @property
    def three_entry_path(self):
        return self.workdir / "three-entry.txt"

    def write_files(self):
        super().write_files()
        self.three_entry_path.write_text(self.plain["three_entry"], encoding="utf-8")

    def jobs(self, tracer=None):
        out = []
        for plain in self.plain["fragment"]:
            t = _table(plain)
            out.append(("fragment", lambda t=t: (t, False, realizability.solve_table(t))))
        for plain in self.plain["criterion4"]:
            t = _table(plain)
            out.append(("criterion4", lambda t=t: (t, True, realizability.solve_table(
                t, symmetric=True, budget=TABLE_BUDGET))))
        for plain in self.plain["sampled"]:
            t = _table(plain)
            out.append(("sampled", lambda t=t: (t, True, realizability.solve_table(
                t, symmetric=True, budget=TABLE_BUDGET))))
        path = str(self.three_entry_path)
        out.append(("three_entry", lambda: _run_cli(["realize", path])))
        return out

    def undecided(self, kind, result):
        if kind == "three_entry":
            return result[0] == EXIT_BUDGET
        return result[2].status == "unknown"

    def gate(self, jobs, results, tracer=None):
        oracle = realizability.brute_force_realizable
        if tracer is not None:
            oracle = tracer.wrap("realizability.brute_force_realizable", oracle)
        errors = []
        for (kind, _), res in zip(jobs, results):
            if kind == "three_entry":
                code, report = res
                status = _report_value(report, "status")
                expected = {"sat": 0, "unsat": cli.EXIT_FAIL, "unknown": EXIT_BUDGET}
                if status == "sat" or expected.get(status) != code:
                    errors.append(f"three-entry table: status {status}, exit {code}")
                continue
            table, symmetric, verdict = res
            if verdict.status == "sat" and not realizability.verify_witness(
                    verdict.witness, table, symmetric):
                errors.append(f"{kind}: sat witness fails verify_witness")
            if kind == "fragment" and verdict.status == "sat":
                errors.append("fragment: unrealizable fragment solved sat")
            if kind == "sampled" and verdict.status == "unsat":
                errors.append("sampled: table from a real distance solved unsat")
            if kind == "criterion4" and verdict.status != "unknown":
                expected = oracle(table, symmetric=True).status
                if verdict.status != expected:
                    errors.append(f"criterion4: {verdict.status} but oracle {expected}")
        return errors

    def counts(self, jobs, results):
        out = {"nodes": 0}
        for (kind, _), res in zip(jobs, results):
            if kind == "three_entry":
                code, report = res
                status = _report_value(report, "status")
                out["nodes"] += int(_report_value(report, "nodes"))
            else:
                status = res[2].status
                out["nodes"] += res[2].nodes
            key = f"{kind}.{status}"
            out[key] = out.get(key, 0) + 1
        return out


# ---------------------------------------------------------------------------
# gadgets


class Gadgets(Workload):
    name = "gadgets"
    children = True

    def generate(self, rng):
        # the rungs are fixed; the seed only picks the sampled pairs of the
        # abstract n=3 sweep
        return {"rungs": [list(r) for r in GADGET_RUNGS], "wheel_seed": rng.randrange(2**31)}

    def jobs(self, tracer=None):
        out = []
        for variant, n in self.plain["rungs"]:
            argv = ["wheel", "--variant", variant, "--n", str(n),
                    "--dir", str(self.workdir / f"{variant}-n{n}"),
                    "--seed", str(self.plain["wheel_seed"])]
            result = self.workdir / f"{variant}-n{n}.json"
            out.append((f"{variant}_n{n}",
                        lambda a=argv, r=result: run_child(a, r, tracer)))
        return out

    def undecided(self, kind, result):
        return result["exit"] == EXIT_BUDGET

    def gate(self, jobs, results, tracer=None):
        errors = []
        for (kind, _), res in zip(jobs, results):
            if res["exit"] != 0 or _report_value(res["stdout"], "result") != "pass":
                errors.append(f"wheel {kind}: exit {res['exit']}, "
                              f"result {_report_value(res['stdout'], 'result')}")
        return errors

    def rung_rss_kb(self, results):
        return [res["maxrss_kb"] for res in results]

    def counts(self, jobs, results):
        pairs = 0
        for res in results:
            for key in ("equality", "reduction"):
                value = _report_value(res["stdout"], key)
                if value is not None:
                    pairs += int(value.split("(")[1].split()[0])
        return {"pairs": pairs}


WORKLOADS = {w.name: w for w in (Checkers, Solver, Gadgets)}


# ---------------------------------------------------------------------------
# helpers


def _report_value(report, key):
    prefix = key + ": "
    for line in report.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _run_cli(argv):
    """Run one distrev command in this process; returns (exit code, report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_child(argv, result_path, tracer=None):
    """Run one distrev command in its own child process and wait for it.

    The child reports its exit code, its peak RSS and, when traced, its
    span aggregates."""
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path)]
    if tracer is not None:
        cmd.append("--trace")
    proc = subprocess.run(cmd + ["--"] + argv, capture_output=True, text=True)
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"child {' '.join(argv)} failed: {proc.stderr.strip()}")
    res = json.loads(result_path.read_text())
    result_path.unlink()
    res["stdout"] = proc.stdout
    if tracer is not None:
        tracer.merge(res["trace"])
    return res
