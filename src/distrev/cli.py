"""Command-line entry point: reproducible batch commands with line-oriented
key:value reports.

Exit codes: 0 pass/SAT, 1 fail/UNSAT, 2 input error, 3 inconsistency,
4 budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .costs import (
    LIBERAL_PROPERTIES,
    OrderMode,
    PseudoDistance,
    REAL_PROPERTIES,
    check_property,
)
from .distops import OperatorTable, check_loop, family_closure
from .errors import (
    BoundExceededError,
    DistrevError,
    FileFormatError,
    InconsistentTheoryError,
)
from .logic import formula_to_text
from .realizability import solve_table
from .revision import (
    RevisionOperator,
    Theory,
    check_agm,
    revise,
    valuation_universe,
)
from .wheel import (
    build_hamming_wheel,
    build_wheel_gadget,
    proof_fragment,
    verify_hamming_claims,
    verify_wheel_claims,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_BUDGET = 4


class Report:
    """Line-oriented key:value output; nested lists indent with two spaces."""

    def __init__(self):
        self.lines = []

    def add(self, key, value):
        self.lines.append(f"{key}: {value}")

    def add_list(self, key, items):
        self.lines.append(f"{key}:")
        for item in items:
            self.lines.append(f"  - {item}")

    def add_input(self, name, path):
        # imported here: libcrypto costs ~3.6 MB RSS, and only input-reading commands digest
        import hashlib

        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.add(f"input.{name}", path)
        self.add(f"input.{name}.sha256", digest)

    def render(self):
        return "\n".join(self.lines) + "\n"

    def write(self, out):
        text = self.render()
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        sys.stdout.write(text)


def _format_witnesses(report):
    return [repr(w) for w in report.witnesses]


def _valuation_distance(dist, signature):
    """Re-key a label-addressed distance by the valuations of a signature."""
    universe = valuation_universe(signature)
    by_label = {v.label(): v for v in universe}
    if set(dist.universe) != set(by_label):
        raise FileFormatError(
            "distance points must be exactly the valuation labels "
            f"{sorted(by_label)}"
        )
    table = {
        (by_label[a], by_label[b]): c for (a, b), c in dist.table.items()
    }
    return PseudoDistance(universe, dist.mode, table)


def _model_labels(model_set):
    return " ".join(sorted(v.label() for v in model_set)) or "-"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_revise(args):
    rep = Report()
    rep.add("command", "revise")
    rep.add_input("gamma", args.gamma)
    rep.add_input("delta", args.delta)
    rep.add_input("distance", args.distance)
    sig_g, gamma_fs = fileio.load_theory_file(args.gamma)
    sig_d, delta_fs = fileio.load_theory_file(args.delta)
    if sig_g != sig_d:
        raise FileFormatError("theory files must share one atoms header")
    dist = _valuation_distance(fileio.load_distance(args.distance), sig_g)
    gamma = Theory.from_formulas(gamma_fs, sig_g)
    delta = Theory.from_formulas(delta_fs, sig_g)
    op = RevisionOperator.from_distance(dist, sig_g)
    result = revise(op, gamma, delta)
    rep.add("models", _model_labels(result.model_set))
    rep.add("theory", formula_to_text(result.canonical_formula()))
    rep.write(args.out)
    return EXIT_PASS


_PROP_ALIASES = {
    "sym": "symmetric",
    "pos": "positive",
    "lib-ir": "liberal_ir",
    "lib-pos": "liberal_positive",
    "lib-tir": "liberal_tir",
}


def cmd_check(args):
    rep = Report()
    rep.add("command", "check")
    rep.add_input("distance", args.distance)
    dist = fileio.load_distance(args.distance)
    if args.props is not None:
        props = list(dict.fromkeys(_PROP_ALIASES.get(p, p) for p in args.props.split(",") if p))
        if not props:
            raise DistrevError(f"no property in --props {args.props!r}")
        for prop in props:
            if prop not in REAL_PROPERTIES + LIBERAL_PROPERTIES:
                raise DistrevError(f"unknown property {prop!r}")
    else:
        props = REAL_PROPERTIES if dist.mode is OrderMode.REAL else LIBERAL_PROPERTIES
    all_pass = True
    for prop in props:
        result = check_property(dist, prop)
        rep.add(f"property.{prop}", "pass" if result.passed else "fail")
        if not result.passed:
            all_pass = False
            rep.add(f"property.{prop}.violations", result.total_violations)
            rep.add_list(f"property.{prop}.witnesses", _format_witnesses(result))
    rep.add("result", "pass" if all_pass else "fail")
    rep.write(args.out)
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_realize(args):
    rep = Report()
    rep.add("command", "realize")
    rep.add_input("operator", args.operator)
    table, _ = fileio.load_operator_table(args.operator)
    verdict = solve_table(table, symmetric=args.symmetric, budget=args.budget)
    rep.add("status", verdict.status)
    rep.add("nodes", verdict.nodes)
    if verdict.status == "sat":
        rep.add_list(
            "witness",
            [f"{v} {w} -> {rank}" for (v, w), rank in sorted(verdict.witness.items())],
        )
    elif verdict.status == "unsat":
        rep.add_list("conflict", verdict.conflict or [])
    rep.write(args.out)
    return {
        "sat": EXIT_PASS,
        "unsat": EXIT_FAIL,
        "unknown": EXIT_BUDGET,
    }[verdict.status]


def _add_property_section(rep, prefix, result):
    rep.add(prefix, "pass" if result.passed else "fail")
    if not result.passed:
        rep.add_list(f"{prefix}.witnesses", _format_witnesses(result))


def _sweep_line(sweep):
    return f"{'pass' if sweep.passed else 'fail'} ({sweep.pairs_checked} pairs, exhaustive)"


def cmd_wheel(args):
    rep = Report()
    rep.add("command", "wheel")
    rep.add("variant", args.variant)
    rep.add("n", args.n)
    rep.add("seed", args.seed)
    if args.variant == "abstract":
        gadget = build_wheel_gadget(n=args.n)
        result = verify_wheel_claims(gadget)
    else:
        gadget = build_hamming_wheel(n=args.n)
        result = verify_hamming_claims(gadget)
    os.makedirs(args.dir, exist_ok=True)
    prefix = os.path.join(args.dir, "wheel" if args.variant == "abstract" else "hamming")
    fileio.save_distance(gadget.dist, f"{prefix}-distance.txt")
    fileio.save_distance(gadget.patch(result.rung)[1], f"{prefix}-distance-patched.txt")
    fileio.save_operator_table(proof_fragment(gadget), f"{prefix}-fragment.txt")
    rep.add("m", gadget.m)
    rep.add("patched_rung", result.rung)
    rep.add("fragment", result.fragment_verdict.status)
    rep.add("inclusion", "pass" if result.inclusion.passed else "fail")
    rep.add("equality", _sweep_line(result.equality))
    if result.reduction is not None:
        rep.add("reduction", _sweep_line(result.reduction))
    for name, prop in result.properties.items():
        _add_property_section(rep, name, prop)
    rep.add("loop_violation", "found" if not result.loop.passed else "absent")
    if not result.loop.passed:
        rep.add("loop_violation.k", result.loop.k)
        rep.add_list(
            "loop_violation.chain", [" ".join(sorted(s)) for s in result.loop.chain]
        )
    rep.add("result", "pass" if result.passed else "fail")
    rep.write(args.out)
    return EXIT_PASS if result.passed else EXIT_FAIL


def cmd_loop(args):
    rep = Report()
    rep.add("command", "loop")
    rep.add_input("operator", args.operator)
    op, backing = fileio.load_operator_table(args.operator)
    if backing is not None:
        rep.add_input("backing", backing)
        op = OperatorTable(op.universe, op.entries, fileio.load_distance(backing))
    if args.family:
        rep.add_input("family", args.family)
        family = fileio.load_family(args.family)
    else:
        family = family_closure(
            {key[0] for key in op.entries} | {key[1] for key in op.entries}
        )
    verdict = check_loop(op, family, args.k, budget=args.budget)
    rep.add("k_max", "-" if args.k is None else args.k)
    rep.add("checked", verdict.checked)
    rep.add("states", verdict.states)
    rep.add("fixpoint", "-" if verdict.fixpoint is None else verdict.fixpoint)
    rep.add("result", "pass" if verdict.passed else "fail")
    if not verdict.passed:
        rep.add("violation.k", verdict.k)
        rep.add_list("violation.chain", [" ".join(sorted(s)) for s in verdict.chain])
    rep.write(args.out)
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def cmd_agm(args):
    rep = Report()
    rep.add("command", "agm")
    rep.add_input("distance", args.distance)
    signature = tuple(args.atoms.split(","))
    if "" in signature or len(set(signature)) < len(signature):
        raise DistrevError(f"--atoms needs distinct non-empty names, not {args.atoms!r}")
    dist = _valuation_distance(fileio.load_distance(args.distance), signature)
    op = RevisionOperator.from_distance(dist, signature)
    reports = check_agm(op)
    all_pass = True
    for name, result in reports.items():
        _add_property_section(rep, f"postulate.{name}", result)
        all_pass = all_pass and result.passed
    rep.add("result", "pass" if all_pass else "fail")
    rep.write(args.out)
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distrev",
        description="Distance-based belief revision workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("revise", help="revise one theory by another")
    p.add_argument("gamma")
    p.add_argument("delta")
    p.add_argument("distance")
    p.set_defaults(func=cmd_revise)

    p = sub.add_parser("check", help="check distance properties")
    p.add_argument("distance")
    p.add_argument("--props", default=None, help="comma list, e.g. sym,ir,pos,tir")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="decide distance realizability of a table")
    p.add_argument("operator")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--budget", type=_positive_int, default=200_000)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("wheel", help="build and verify a cycle gadget")
    p.add_argument("--variant", choices=("abstract", "hamming"), default="abstract")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--dir", default="wheel-artifacts")
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in the report; the sweeps are exhaustive and draw nothing")
    p.set_defaults(func=cmd_wheel)

    p = sub.add_parser("loop", help="check the cyclic chain condition")
    p.add_argument("operator")
    p.add_argument("--k", type=_positive_int, default=None, help="cut-off (none: every k)")
    p.add_argument("--family", default=None)
    p.add_argument("--budget", type=_positive_int, default=10**6)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("agm", help="postulate sweep for a revision distance")
    p.add_argument("distance")
    p.add_argument("--atoms", required=True, help="comma list of atoms")
    p.set_defaults(func=cmd_agm)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="also write the report here")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InconsistentTheoryError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONSISTENT
    except BoundExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (DistrevError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
