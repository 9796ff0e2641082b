import os
import subprocess
import sys

import pytest

import distrev
from distrev.cli import main
from distrev.costs import PseudoDistance
from distrev.fileio import save_distance, save_operator_table
from distrev.revision import hamming_pseudo_distance


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _label_distance(sig):
    dist = hamming_pseudo_distance(sig)
    labels = {v: v.label() for v in dist.universe}
    return PseudoDistance(
        tuple(labels[v] for v in dist.universe),
        dist.mode,
        {(labels[a], labels[b]): c for (a, b), c in dist.table.items()},
    )


@pytest.fixture
def hamming_file(workdir):
    path = workdir / "hamming.txt"
    save_distance(_label_distance(("p", "q")), path)
    return str(path)


def test_revise_happy_path(workdir, hamming_file, capsys):
    gamma = _write(workdir / "gamma.txt", "atoms: p q\np & q\n")
    delta = _write(workdir / "delta.txt", "atoms: p q\n!p\n")
    code = main(["revise", gamma, delta, hamming_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "models: 01" in out
    assert "theory: !p & q" in out
    assert "sha256" in out


def test_revise_parse_error_exits_2(workdir, hamming_file):
    gamma = _write(workdir / "gamma.txt", "atoms: p q\np &&& q\n")
    delta = _write(workdir / "delta.txt", "atoms: p q\n!p\n")
    assert main(["revise", gamma, delta, hamming_file]) == 2


def test_revise_missing_file_exits_2(workdir, hamming_file):
    gamma = _write(workdir / "gamma.txt", "atoms: p q\np\n")
    assert main(["revise", gamma, "nope.txt", hamming_file]) == 2


def test_revise_inconsistent_exits_3(workdir, hamming_file):
    gamma = _write(workdir / "gamma.txt", "atoms: p q\np\n")
    delta = _write(workdir / "delta.txt", "atoms: p q\np\n!p\n")
    assert main(["revise", gamma, delta, hamming_file]) == 3


def test_check_pass_and_fail(workdir, hamming_file, capsys):
    assert main(["check", hamming_file, "--props", "sym,ir,pos,tir"]) == 0
    # break symmetry in the file by hand
    with open(hamming_file) as fh:
        text = fh.read().splitlines()
    row = text[2].split()
    row[1] = "9"
    text[2] = " ".join(row)
    bad = _write(workdir / "bad.txt", "\n".join(text) + "\n")
    capsys.readouterr()
    assert main(["check", bad, "--props", "sym"]) == 1
    assert "witnesses" in capsys.readouterr().out


def test_check_mode_mismatch_exits_2(workdir, hamming_file):
    assert main(["check", hamming_file, "--props", "lib-ir"]) == 2


def test_realize_sat_unsat(workdir, hamming_file, capsys):
    from distrev.wheel import build_wheel_gadget, proof_fragment

    gadget = build_wheel_gadget(n=1)
    frag = workdir / "frag.txt"
    save_operator_table(proof_fragment(gadget.op, gadget.params), frag)
    assert main(["realize", str(frag)]) == 1
    assert "status: unsat" in capsys.readouterr().out

    from distrev.distops import OperatorTable, apply

    dist = gadget.dist
    key = (frozenset({"v1"}), frozenset({"w1", "w2"}))
    sat_table = OperatorTable(
        gadget.params.universe, {key: apply(dist, *key)}
    )
    sat = workdir / "sat.txt"
    save_operator_table(sat_table, sat)
    assert main(["realize", str(sat)]) == 0
    assert "witness" in capsys.readouterr().out


def test_wheel_abstract(workdir, capsys):
    code = main(["wheel", "--variant", "abstract", "--n", "1", "--dir", "art"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fragment: unsat" in out
    assert "loop_violation: found" in out
    assert os.path.exists("art/wheel-distance.txt")
    assert os.path.exists("art/wheel-distance-patched.txt")
    assert os.path.exists("art/wheel-fragment.txt")


def test_wheel_hamming(workdir, capsys):
    code = main(["wheel", "--variant", "hamming", "--n", "1", "--dir", "art"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: pass" in out
    assert os.path.exists("art/hamming-fragment.txt")


def test_wheel_hamming_over_memory_cap_exits_4(workdir, capsys):
    assert main(["wheel", "--variant", "hamming", "--n", "4", "--dir", "art"]) == 4
    assert "MiB" in capsys.readouterr().err


def test_wheel_bad_n_exits_2(workdir):
    assert main(["wheel", "--variant", "abstract", "--n", "0"]) == 2


def test_loop_with_family(workdir, hamming_file, capsys):
    op_path = workdir / "op.txt"
    _write(
        op_path,
        "universe: 00 01 10 11\nbacking: hamming.txt\n",
    )
    fam = _write(workdir / "fam.txt", "00\n01\n00 01\n")
    assert main(["loop", str(op_path), "--k", "2", "--family", fam]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "checked: 36\n" in out  # 3^2 + 3^3 chains
    assert "states: 32\n" in out  # 9 starts, then 23 states at depth 2


def test_loop_malformed_family_exits_2(workdir, hamming_file):
    op_path = _write(
        workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n"
    )
    fam = _write(workdir / "fam.txt", "00\n01\n")  # union missing
    assert main(["loop", op_path, "--k", "2", "--family", fam]) == 2


def test_agm_sweep(workdir, hamming_file, capsys):
    code = main(
        ["agm", hamming_file, "--atoms", "p,q", "--samples", "300", "--seed", "7"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "postulate.star4: pass" in out
    assert "seed: 7" in out


def test_report_written_to_out_file(workdir, hamming_file):
    out_path = workdir / "report.txt"
    assert main(["check", hamming_file, "--out", str(out_path)]) == 0
    assert "result: pass" in out_path.read_text()


def _report_under_hash_seed(seed, args, cwd):
    src = os.path.dirname(os.path.dirname(distrev.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "distrev.cli", *args],
        cwd=cwd, env=env, capture_output=True, check=False,
    )
    return done.returncode, done.stdout


def test_reports_identical_across_hash_seeds(workdir, hamming_file):
    # loop: a violated chain (explicit entries over the Hamming backing),
    # a passing exhaustive run and a sampled run
    _write(
        workdir / "cyclic.txt",
        "universe: 00 01 10 11\nbacking: hamming.txt\n"
        "entry: 01 | 00 10 -> 00\nentry: 10 | 00 01 -> 01\n"
        "entry: 00 | 01 10 -> 10\n",
    )
    _write(workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n")
    _write(workdir / "fam.txt", "00\n01\n10\n00 01\n00 10\n01 10\n00 01 10\n")
    _write(
        workdir / "three.txt",
        "universe: a b c\nentry: a b c | a b c -> a\n"
        "entry: a c | a b c -> b\nentry: b c | a b c -> a b c\n",
    )
    _write(
        workdir / "sat.txt",
        "universe: a b c\nentry: a | b c -> b\nentry: b c | a c -> c\n",
    )
    runs = [
        ["loop", "cyclic.txt", "--k", "3", "--family", "fam.txt"],
        ["loop", "op.txt", "--k", "3", "--family", "fam.txt"],
        ["loop", "op.txt", "--k", "3", "--family", "fam.txt", "--budget", "50",
         "--samples", "200", "--seed", "3"],
        ["realize", "three.txt", "--budget", "2000"],
        ["realize", "sat.txt", "--symmetric"],
    ]
    codes = []
    for args in runs:
        first = _report_under_hash_seed(0, args, workdir)
        assert first == _report_under_hash_seed(1, args, workdir), args
        codes.append(first[0])
    assert codes == [1, 0, 0, 1, 0]
