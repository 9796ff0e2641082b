import hashlib
import os
import re
import subprocess
import sys

import pytest

import distrev
from distrev import logic
from distrev.cli import build_parser, main
from distrev.costs import PseudoDistance
from distrev.distops import OperatorTable, _premise_reader, _walk
from distrev.fileio import load_distance, save_distance, save_operator_table
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


def test_revise_repeated_atom_exits_2(workdir, hamming_file, capsys):
    # as agm --atoms p,p does; the two p's were read as separate atoms
    gamma = _write(workdir / "gamma.txt", "# header\natoms: p p\np\n")
    delta = _write(workdir / "delta.txt", "atoms: p q\n!p\n")
    assert main(["revise", gamma, delta, hamming_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: line 2: repeated atoms ['p']\n"


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


def test_check_inf_under_real_order_exits_2(workdir, capsys):
    path = _write(workdir / "inf.txt", "mode: real\npoints: a b\n0 inf\n1 0\n")
    assert main(["check", path, "--props", "sym"]) == 2
    assert "infinite cost at (a, b) under the real order" in capsys.readouterr().err


def test_check_names_each_property_once(workdir, hamming_file, capsys):
    # repeats, an alias and its full name among them, collapse to the first
    for props, names in (("sym,sym", ["symmetric"]), ("sym,symmetric", ["symmetric"]),
                         ("tir,sym,tir,symmetric", ["tir", "symmetric"])):
        assert main(["check", hamming_file, "--props", props]) == 0
        out = capsys.readouterr().out
        assert re.findall(r"^property\.(\w+): ", out, re.M) == names, props


def test_check_unknown_property_exits_2(workdir, hamming_file, capsys):
    assert main(["check", hamming_file, "--props", "sym,foo"]) == 2
    assert capsys.readouterr().err == "error: unknown property 'foo'\n"


def test_realize_sat_unsat(workdir, hamming_file, capsys):
    from distrev.wheel import build_wheel_gadget, proof_fragment

    gadget = build_wheel_gadget(n=1)
    frag = workdir / "frag.txt"
    save_operator_table(proof_fragment(gadget), frag)
    assert main(["realize", str(frag)]) == 1
    assert "status: unsat" in capsys.readouterr().out

    from distrev.distops import OperatorTable, apply

    dist = gadget.dist
    key = (frozenset({"v1"}), frozenset({"w1", "w2"}))
    sat_table = OperatorTable(gadget.universe, {key: apply(dist, *key)})
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
    # neither variant draws anything, but both accept and report a seed, so
    # that callers passing one keep working
    code = main(["wheel", "--variant", "hamming", "--n", "1", "--seed", "5", "--dir", "art"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed: 5\n" in out
    assert "result: pass" in out
    assert os.path.exists("art/hamming-fragment.txt")


def test_wheel_abstract_sweeps_exhaustively(workdir, capsys):
    # m = 6, 14 points: every one of the 2^28 pairs, whatever the seed
    for seed in ("0", "9"):
        assert main(["wheel", "--n", "3", "--seed", seed, "--dir", "art"]) == 0
        assert "equality: pass (268435456 pairs, exhaustive)\n" in capsys.readouterr().out


def _assert_refused_over_memory_cap(argv, capsys):
    # exit 4 before the sweep allocates, and no artifacts directory left
    assert main([*argv, "--dir", "art"]) == 4
    assert "MiB" in capsys.readouterr().err
    assert not os.path.exists("art")


def test_wheel_hamming_over_memory_cap_exits_4(workdir, capsys):
    # m = n + 3 = 12, the smallest Hamming gadget whose sweep estimate is
    # over the 1 GiB cap
    _assert_refused_over_memory_cap(["wheel", "--variant", "hamming", "--n", "9"], capsys)


@pytest.mark.parametrize("n", ["1", "7"])
def test_wheel_hamming_rejects_samples_exits_2(workdir, capsys, n):
    # no variant samples any more: the option is refused before the gadget
    # is built, even at m = 10, and leaves no artifacts directory
    argv = ["wheel", "--variant", "hamming", "--n", n, "--samples", "100", "--dir", "art"]
    assert main(argv) == 2
    assert "--samples" in capsys.readouterr().err
    assert not os.path.exists("art")


def test_wheel_abstract_over_memory_cap_exits_4(workdir, capsys):
    # m = 12, the smallest abstract gadget over the same cap
    _assert_refused_over_memory_cap(["wheel", "--variant", "abstract", "--n", "9"], capsys)


def test_wheel_bad_n_exits_2(workdir):
    assert main(["wheel", "--variant", "abstract", "--n", "0"]) == 2


def test_loop_with_family(workdir, hamming_file, capsys):
    op_path = workdir / "op.txt"
    _write(
        op_path,
        "universe: 00 01 10 11\nbacking: hamming.txt\n",
    )
    fam = _write(workdir / "fam.txt", "00\n01\n00 01\n")
    # a symmetric backing and no entries: the set distances, 0 and 1,
    # certify the pass for every k, and no walk runs
    assert main(["loop", str(op_path), "--k", "2", "--family", fam]) == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    assert "checked: 36\n" in out  # 3^2 + 3^3 chains
    assert "\nstates: 0\nfixpoint: 0\nphi_classes: 2\n" in out
    assert main(["loop", str(op_path), "--family", fam]) == 0
    out = capsys.readouterr().out
    assert "\nk_max: -\nchecked: 0\nstates: 0\nfixpoint: 0\nphi_classes: 2\nresult: pass\n" in out
    # the walk on the same premises: 9 starts; only ({00}, {01}) and
    # ({01}, {00}) can fail their conclusion, and each reaches 1 new state
    # at depth 2.  Cut off at k = 2 it has no fixpoint; with no cut-off no
    # live start reaches a new state at depth 3: fixpoint 2
    op = OperatorTable(("00", "01", "10", "11"), backing=load_distance(hamming_file))
    sets = [frozenset({"00"}), frozenset({"00", "01"}), frozenset({"01"})]
    premises = _premise_reader(op, sets, op.universe)
    assert _walk(premises, 3, 2) == (None, 11, None)
    assert _walk(premises, 3, None) == (None, 11, 2)
    # a walk's report: the explicit entry leaves the verdict as it was
    _write(op_path, "universe: 00 01 10 11\nbacking: hamming.txt\nentry: 00 | 01 -> 01\n")
    assert main(["loop", str(op_path), "--family", fam]) == 0
    out = capsys.readouterr().out
    assert "\nk_max: -\nchecked: 36\nstates: 11\nfixpoint: 2\nphi_classes: -\nresult: pass\n" in out


def test_loop_malformed_family_exits_2(workdir, hamming_file):
    op_path = _write(
        workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n"
    )
    fam = _write(workdir / "fam.txt", "00\n01\n")  # union missing
    assert main(["loop", op_path, "--k", "2", "--family", fam]) == 2


def test_repeated_label_in_one_set_exits_2(workdir, capsys):
    # the repeated label was merged into one without notice
    _write(workdir / "op.txt", "universe: a b c\nentry: a a | b c -> c\n")
    _write(workdir / "ok.txt", "universe: a b c\nentry: a | b c -> c\n")
    _write(workdir / "fam.txt", "a\na a\n")
    for argv in (["realize", "op.txt"], ["loop", "ok.txt", "--family", "fam.txt"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: line 2: repeated labels in one set ['a']\n"


def test_loop_over_a_backing_that_misses_a_point_exits_2(workdir, capsys):
    # the backing has no distances to c, so no pair that holds c has a result
    _write(workdir / "ab.txt", "mode: real\npoints: a b\n0 1\n1 0\n")
    _write(workdir / "op.txt", "universe: a b c\nbacking: ab.txt\n")
    _write(workdir / "fam.txt", "a\nc\na c\n")
    assert main(["loop", "op.txt", "--family", "fam.txt"]) == 2
    out, err = capsys.readouterr()
    assert "result" not in out and err.startswith("error: ")


def test_loop_report_names_its_backing(workdir, capsys):
    # editing only the backing turns fail into pass; the report once named
    # the operator file alone, with the same hash both times
    _write(workdir / "op.txt", "universe: a b c\nbacking: d.txt\nentry: a | b c -> c\n")
    _write(workdir / "fam.txt", "a\nb\nc\na b\na c\nb c\na b c\n")
    codes = []
    for rows in (b"0 1 1\n1 0 1\n1 1 0\n", b"0 1 1\n1 0 2\n1 3 0\n"):
        text = b"mode: real\npoints: a b c\n" + rows
        (workdir / "d.txt").write_bytes(text)
        codes.append(main(["loop", "op.txt", "--family", "fam.txt"]))
        out = capsys.readouterr().out
        assert (f"\ninput.backing: {os.path.join('.', 'd.txt')}\n"
                f"input.backing.sha256: {hashlib.sha256(text).hexdigest()}\n") in out
    assert codes == [1, 0]
    _write(workdir / "bare.txt", "universe: a b c\nentry: a | b c -> c\n")
    main(["loop", "bare.txt"])
    assert "input.backing" not in capsys.readouterr().out


def test_realize_reads_only_the_entries(workdir, capsys):
    # the backing named on the table's second line is missing: realize,
    # which solves the entries alone, never opens it; loop needs it
    _write(workdir / "op.txt", "universe: a b c\nbacking: gone.txt\nentry: a | b c -> b\n")
    assert main(["realize", "op.txt"]) == 0
    out = capsys.readouterr().out
    assert "\nstatus: sat\n" in out and "backing" not in out
    assert main(["loop", "op.txt"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "gone.txt" in err


@pytest.mark.parametrize("command", ["realize", "loop"])
def test_repeated_universe_label_exits_2(workdir, capsys, command):
    # the table once loaded, and realize printed status: sat and exited 0
    _write(workdir / "op.txt", "universe: a a b\nentry: a | a b -> a\n")
    assert main([command, "op.txt"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: repeated universe labels ['a']\n"


def test_agm_sweep(workdir, hamming_file, capsys):
    code = main(["agm", hamming_file, "--atoms", "p,q"])
    out = capsys.readouterr().out
    assert code == 0
    assert "postulate.star4: pass" in out
    assert "seed:" not in out and "samples:" not in out


VACUOUS = {
    "wheel-samples-negative": ["wheel", "--n", "1", "--samples", "-5"],
    "wheel-samples-0": ["wheel", "--samples", "0"],
    "wheel-n-0": ["wheel", "--n", "0"],
    "wheel-n-negative": ["wheel", "--n", "-3"],
    "agm-samples-0": ["agm", "hamming.txt", "--atoms", "p,q", "--samples", "0"],
    "loop-samples-negative": ["loop", "op.txt", "--k", "3", "--samples", "-1", "--budget", "1"],
    "loop-k-0": ["loop", "op.txt", "--k", "0"],
    "loop-budget-negative": ["loop", "op.txt", "--family", "fam.txt", "--budget", "-5"],
    "realize-budget-negative": ["realize", "op.txt", "--budget", "-3"],
    "realize-budget-0": ["realize", "op.txt", "--budget", "0"],
    "check-no-property": ["check", "hamming.txt", "--props", ","],
}


@pytest.mark.parametrize("argv", VACUOUS.values(), ids=VACUOUS.keys())
def test_counts_below_one_and_empty_property_lists_exit_2(workdir, hamming_file, capsys,
                                                          argv):
    # each would otherwise check nothing and report a pass, or for realize
    # give up at once as unknown; wheel, agm and loop, which no longer
    # sample, refuse --samples whatever its count; wheel refuses --n below 1
    # as a count, not as a wheel of too few points
    _write(workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n")
    _write(workdir / "fam.txt", "00\n01\n00 01\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "result" not in out and "wheel needs" not in err


MALFORMED = {
    "agm-repeated-atom": ["agm", "hamming.txt", "--atoms", "p,p"],
    "agm-empty-atoms": ["agm", "hamming.txt", "--atoms", ","],
    "agm-trailing-comma": ["agm", "hamming.txt", "--atoms", "p,"],
    "loop-empty-family": ["loop", "op.txt", "--k", "2", "--family", "empty.txt"],
    "loop-empty-closure": ["loop", "op.txt"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_atoms_and_empty_families_exit_2(workdir, hamming_file, capsys, argv):
    # an entry-less operator closes no family without --family
    _write(workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n")
    _write(workdir / "empty.txt", "")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "result" not in out and err.startswith("error: ")


SUBCOMMAND_OPTIONS = {
    "revise": {"--out"},
    "check": {"--props", "--out"},
    "realize": {"--symmetric", "--budget", "--out"},
    "wheel": {"--variant", "--n", "--dir", "--seed", "--out"},
    "loop": {"--k", "--family", "--budget", "--out"},
    "agm": {"--atoms", "--out"},
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    return action.choices


def test_each_subcommand_declares_only_the_options_it_reads():
    (action,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    assert set(action.choices) == set(SUBCOMMAND_OPTIONS)
    for name, sub in action.choices.items():
        declared = {opt for a in sub._actions for opt in a.option_strings}
        assert declared - {"-h", "--help"} == SUBCOMMAND_OPTIONS[name], name


DROPPED = [("revise", "--seed"), ("revise", "--budget"), ("revise", "--samples"),
           ("check", "--seed"), ("check", "--budget"), ("check", "--samples"),
           ("realize", "--seed"), ("realize", "--samples"),
           ("wheel", "--budget"), ("wheel", "--samples"), ("agm", "--budget"),
           ("agm", "--seed"), ("agm", "--samples"), ("loop", "--seed"), ("loop", "--samples")]
MINIMAL_ARGV = {"revise": ["g.txt", "d.txt", "x.txt"], "check": ["x.txt"],
                "realize": ["t.txt"], "wheel": [], "agm": ["x.txt", "--atoms", "p,q"],
                "loop": ["t.txt"]}


@pytest.mark.parametrize("subcommand, option", DROPPED, ids=["".join(d) for d in DROPPED])
def test_dropped_options_exit_2(workdir, capsys, subcommand, option):
    assert main([subcommand, *MINIMAL_ARGV[subcommand], option, "3"]) == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


def _readme():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_readme_command_line_matches_the_parser():
    # every example line parses, and the option table lists each
    # subcommand's options exactly
    section = _readme().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()]
    assert {words[0] for words in commands} == set(SUBCOMMAND_OPTIONS)
    parser = build_parser()
    for words in commands:
        parser.parse_args(words)
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().strip("`") in SUBCOMMAND_OPTIONS:
            table[cells[1].strip().strip("`")] = set(re.findall(r"`(--[a-z]+)`", cells[2]))
    assert table == SUBCOMMAND_OPTIONS


def test_readme_connectives_match_the_grammar():
    # the file-format paragraph names the connectives tightest first and
    # the right-associative ones, as the parser's connective table has them
    text = " ".join(_readme().split())
    listed, right = (re.findall(r"`([^`]+)`", part) for part in re.search(
        r"the connectives (.*?), which bind in that order, tightest first; "
        r"(.*?) are right-associative", text).groups())
    binary = sorted(logic._BINARY, key=lambda row: -row.prec)
    assert listed == ["!"] + [row.symbol for row in binary]
    assert set(right) == {row.symbol for row in binary if row.right_assoc}


def test_report_written_to_out_file(workdir, hamming_file):
    out_path = workdir / "report.txt"
    assert main(["check", hamming_file, "--out", str(out_path)]) == 0
    assert "result: pass" in out_path.read_text()


def _child(argv, cwd, **env):
    # a fresh interpreter with this distrev first on its path
    src = os.path.dirname(os.path.dirname(distrev.__file__))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)


def _report_under_hash_seed(seed, args, cwd):
    done = _child(["-m", "distrev.cli", *args], cwd, PYTHONHASHSEED=str(seed))
    return done.returncode, done.stdout


def test_only_input_digests_load_openssl(workdir, capsys):
    # hashlib maps OpenSSL's libcrypto (about 3.6 MB RSS), so a wheel child,
    # which reads no input, never imports it; realize still digests its input
    probe = ("import sys\nfrom distrev.cli import main\n"
             "code = main(['wheel', '--n', '1', '--dir', 'art'])\n"
             "print(code, '_hashlib' in sys.modules, file=sys.stderr)\n")
    assert _child(["-c", probe], workdir).stderr == b"0 False\n"
    frag = workdir / "art" / "wheel-fragment.txt"
    assert main(["realize", str(frag)]) == 1
    digest = hashlib.sha256(frag.read_bytes()).hexdigest()
    assert f"\ninput.operator.sha256: {digest}\n" in capsys.readouterr().out


def test_reports_identical_across_hash_seeds(workdir, hamming_file):
    # loop: a violated chain (explicit entries over the Hamming backing),
    # the same from a subdirectory, a passing run and a walk refused over
    # its budget; wheel: two exhaustive abstract sweeps, one given a seed; realize: the
    # wheel fragment, whose conflict follows the order of the solver's path
    # search; agm: the postulate sweep over the cached model-set space
    _write(
        workdir / "cyclic.txt",
        "universe: 00 01 10 11\nbacking: hamming.txt\n"
        "entry: 01 | 00 10 -> 00\nentry: 10 | 00 01 -> 01\n"
        "entry: 00 | 01 10 -> 10\n",
    )
    _write(workdir / "op.txt", "universe: 00 01 10 11\nbacking: hamming.txt\n")
    _write(workdir / "fam.txt", "00\n01\n10\n00 01\n00 10\n01 10\n00 01 10\n")
    (workdir / "sub").mkdir()
    _write(
        workdir / "sub" / "cyclic.txt",
        "universe: 00 01 10 11\nbacking: ../hamming.txt\n"
        "entry: 01 | 00 10 -> 00\nentry: 10 | 00 01 -> 01\n"
        "entry: 00 | 01 10 -> 10\n",
    )
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
        ["loop", os.path.join("sub", "cyclic.txt"), "--k", "3", "--family", "fam.txt"],
        ["loop", "op.txt", "--k", "3", "--family", "fam.txt"],
        ["loop", "cyclic.txt", "--k", "3", "--family", "fam.txt", "--budget", "50"],
        ["realize", "three.txt", "--budget", "2000"],
        ["realize", "sat.txt", "--symmetric"],
        ["wheel", "--n", "1", "--dir", "art"],
        ["realize", "art/wheel-fragment.txt"],
        ["wheel", "--n", "3", "--seed", "7", "--dir", "art"],
        ["agm", "hamming.txt", "--atoms", "p,q"],
    ]
    codes, reports = [], []
    for args in runs:
        first = _report_under_hash_seed(0, args, workdir)
        assert first == _report_under_hash_seed(1, args, workdir), args
        codes.append(first[0])
        reports.append(first[1])
    assert codes == [1, 1, 0, 4, 1, 0, 0, 1, 0, 0]
    # a backing is named as resolved against its operator file's directory
    digest = hashlib.sha256((workdir / "hamming.txt").read_bytes()).hexdigest()
    for report, path in ((reports[0], os.path.join(".", "hamming.txt")),
                         (reports[1], os.path.join("sub", "..", "hamming.txt"))):
        assert f"\ninput.backing: {path}\ninput.backing.sha256: {digest}\n".encode() in report
