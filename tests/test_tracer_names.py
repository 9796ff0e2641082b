"""The benchmark's span tracer rebinds distrev functions by name and reads
report fields, and its workloads run distrev command lines; a rename or a
dropped flag must fail here rather than in a benchmark run."""

import dataclasses
import importlib.util
import inspect
import tokenize
from pathlib import Path

from distrev import cli, wheel
from distrev.distops import LoopVerdict, OperatorTable, check_loop
from distrev.realizability import compile_constraints
from distrev.revision import (
    RevisionOperator,
    check_agm,
    check_disjunction_iteration,
    hamming_pseudo_distance,
)
from distrev.wheel import ClaimsReport, EqualityReport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _perfbench("tracer").TRACED


def _code_names(module):
    with open(module.__file__) as fh:
        return {tok.string for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NAME}


def test_traced_names_exist():
    for name, home, attr, callers, _ in _traced():
        assert callable(getattr(home, attr, None)), (name, home.__name__, attr)
        for caller in callers:
            # the tracer only rebinds a caller's name that is the home
            # function and skips a caller without that name; a caller that
            # no longer calls the function leaves a stale row, not a gap,
            # but one that still names it must bind the home function
            if attr not in _code_names(caller):
                continue
            assert getattr(caller, attr, None) is getattr(home, attr), (
                name, caller.__name__, attr)


def test_revise_models_exists():
    # the tracer patches this method outside TRACED and skips it silently
    # when it is gone
    assert callable(getattr(RevisionOperator, "revise_models", None))


def test_traced_report_fields_exist():
    assert "pairs_checked" in {f.name for f in dataclasses.fields(EqualityReport)}
    fields = {f.name for f in dataclasses.fields(ClaimsReport)}
    assert {"equality", "reduction"} <= fields


def test_wheel_counters_of_the_benchmark():
    # the gadgets workload's wheel pair counters come from the traced
    # equality sweep and Hamming claims check
    tracer = _perfbench("tracer").Tracer()
    tracer.install()
    try:
        wheel.verify_hamming_claims(wheel.build_hamming_wheel(n=1))
    finally:
        tracer.uninstall()
    assert tracer.counts["wheel.wheel_equality_sweep.pairs"] == 1 << 22
    assert tracer.counts["wheel.verify_hamming_claims.pairs"] == (1 << 22) + 242_505


def test_loop_contract_of_the_benchmark():
    # the tracer and the checkers workload read these verdict fields, and
    # the checkers jobs pass these keywords
    assert {"checked", "sampled"} <= {f.name for f in dataclasses.fields(LoopVerdict)}
    assert {"budget", "samples"} <= set(inspect.signature(check_loop).parameters)


def test_revision_contract_of_the_benchmark():
    # the checkers jobs pass samples= and seed= to both exhaustive checks,
    # which accept and ignore them
    sig = ("p", "q")
    op = RevisionOperator.from_distance(hamming_pseudo_distance(sig), sig)
    for check in (check_agm, check_disjunction_iteration):
        assert {"samples", "seed"} <= set(inspect.signature(check).parameters)
        assert check(op, samples=2_000, seed=7) == check(op)


def test_atom_count_of_the_benchmark():
    # the tracer counts realizability.atoms through the Clause view of
    # compile_constraints; it must see one-atom conjunctions and count the
    # atoms solve reads from the encoding
    table = OperatorTable(("a", "b", "c"), {
        (frozenset("abc"), frozenset("abc")): frozenset("a"),
        (frozenset("ac"), frozenset("abc")): frozenset("b"),
        (frozenset("bc"), frozenset("abc")): frozenset("abc"),
    })
    system = compile_constraints(table)
    clauses = system.clauses
    assert [c.provenance for c in clauses] == [tag for tag, _atoms in system.encoded]
    assert all(len(d) == 1 for c in clauses for d in c.disjuncts)
    assert any(len(c.disjuncts) > 1 for c in clauses)
    solved = sum(len(atoms) for _tag, atoms in system.encoded)
    assert _perfbench("tracer")._atoms((table,), {}, system) == {"realizability.atoms": solved}


def test_gadgets_command_lines_parse(tmp_path, monkeypatch):
    # each gadgets job runs one distrev command line in a child process;
    # the jobs are run here with the child replaced by a recorder
    workloads = _perfbench("workloads")
    argvs = []
    monkeypatch.setattr(workloads, "run_child", lambda argv, *rest: argvs.append(argv))
    for _, job in workloads.Gadgets(1, tmp_path).jobs():
        job()
    assert len(argvs) == len(workloads.GADGET_RUNGS)
    parser = cli.build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).func is cli.cmd_wheel, argv
