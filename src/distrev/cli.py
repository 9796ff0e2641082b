"""Command-line entry point: reproducible batch commands with line-oriented
key:value reports.

Exit codes: 0 pass/SAT, 1 fail/UNSAT, 2 input error, 3 inconsistency,
4 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
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
from .distops import check_loop, family_closure
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
    hamming_proof_fragment,
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
    if args.props:
        props = [_PROP_ALIASES.get(p, p) for p in args.props.split(",") if p]
    else:
        props = list(
            REAL_PROPERTIES if dist.mode is OrderMode.REAL else LIBERAL_PROPERTIES
        )
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
    table = fileio.load_operator_table(args.operator)
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


def cmd_wheel(args):
    rep = Report()
    rep.add("command", "wheel")
    rep.add("variant", args.variant)
    rep.add("n", args.n)
    rep.add("seed", args.seed)
    os.makedirs(args.dir, exist_ok=True)
    if args.variant == "abstract":
        gadget = build_wheel_gadget(n=args.n)
        sample = None if gadget.params.m <= 5 else args.samples
        result = verify_wheel_claims(gadget, sample=sample, seed=args.seed)
        fileio.save_distance(gadget.dist, os.path.join(args.dir, "wheel-distance.txt"))
        fileio.save_distance(
            gadget.patched_dist, os.path.join(args.dir, "wheel-distance-patched.txt")
        )
        fileio.save_operator_table(
            proof_fragment(gadget.op, gadget.params),
            os.path.join(args.dir, "wheel-fragment.txt"),
        )
        rep.add("m", gadget.params.m)
        rep.add("patched_rung", gadget.r)
        rep.add("fragment", result.fragment_verdict.status)
        rep.add("inclusion", "pass" if result.inclusion.passed else "fail")
        rep.add(
            "equality",
            f"{'pass' if result.equality.passed else 'fail'} "
            f"({result.equality.pairs_checked} pairs, "
            f"{'sampled' if result.equality.sampled else 'exhaustive'})",
        )
        for name, prop in result.properties.items():
            _add_property_section(rep, f"patched.{name}", prop)
        rep.add("loop_violation", "found" if not result.loop.passed else "absent")
        if not result.loop.passed:
            rep.add("loop_violation.k", result.loop.k)
            rep.add_list(
                "loop_violation.chain", [" ".join(sorted(s)) for s in result.loop.chain]
            )
    else:
        gadget = build_hamming_wheel(n=args.n)
        result = verify_hamming_claims(gadget)
        fileio.save_distance(
            gadget.dist, os.path.join(args.dir, "hamming-distance.txt")
        )
        fileio.save_distance(
            gadget.patched_dist, os.path.join(args.dir, "hamming-distance-patched.txt")
        )
        fileio.save_operator_table(
            hamming_proof_fragment(gadget),
            os.path.join(args.dir, "hamming-fragment.txt"),
        )
        rep.add("m", gadget.m)
        rep.add("patched_rung", gadget.r)
        rep.add(
            "equality",
            f"{'pass' if result.equality.passed else 'fail'} "
            f"({result.equality.pairs_checked} pairs)",
        )
        rep.add(
            "reduction",
            f"{'pass' if result.reduction.passed else 'fail'} "
            f"({result.reduction.pairs_checked} pairs)",
        )
        _add_property_section(rep, "hamming_respect", result.hir)
        _add_property_section(rep, "liberal_triangle", result.liberal_tir)
        _add_property_section(rep, "sandwich", result.sandwich)
        rep.add("fragment", result.fragment_verdict.status)
    rep.add("result", "pass" if result.passed else "fail")
    rep.write(args.out)
    return EXIT_PASS if result.passed else EXIT_FAIL


def cmd_loop(args):
    rep = Report()
    rep.add("command", "loop")
    rep.add_input("operator", args.operator)
    rep.add("seed", args.seed)
    op = fileio.load_operator_table(args.operator)
    if args.family:
        rep.add_input("family", args.family)
        family = fileio.load_family(args.family)
    else:
        family = family_closure(
            {key[0] for key in op.entries} | {key[1] for key in op.entries}
        )
    verdict = check_loop(
        op, family, args.k, budget=args.budget, samples=args.samples, seed=args.seed
    )
    rep.add("k_max", args.k)
    rep.add("checked", verdict.checked)
    rep.add("states", verdict.states)
    rep.add("sampled", verdict.sampled)
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
    rep.add("seed", args.seed)
    rep.add("samples", args.samples)
    signature = tuple(args.atoms.split(","))
    dist = _valuation_distance(fileio.load_distance(args.distance), signature)
    op = RevisionOperator.from_distance(dist, signature)
    reports = check_agm(op, samples=args.samples, seed=args.seed)
    all_pass = True
    for name, result in reports.items():
        _add_property_section(rep, f"postulate.{name}", result)
        all_pass = all_pass and result.passed
    rep.add("result", "pass" if all_pass else "fail")
    rep.write(args.out)
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distrev",
        description="Distance-based belief revision workbench",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=200_000)
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--out", default=None, help="also write the report here")

    p = sub.add_parser("revise", help="revise one theory by another")
    p.add_argument("gamma")
    p.add_argument("delta")
    p.add_argument("distance")
    common(p)
    p.set_defaults(func=cmd_revise)

    p = sub.add_parser("check", help="check distance properties")
    p.add_argument("distance")
    p.add_argument("--props", default=None, help="comma list, e.g. sym,ir,pos,tir")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("realize", help="decide distance realizability of a table")
    p.add_argument("operator")
    p.add_argument("--symmetric", action="store_true")
    common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("wheel", help="build and verify a cycle gadget")
    p.add_argument("--variant", choices=("abstract", "hamming"), default="abstract")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--dir", default="wheel-artifacts")
    common(p)
    p.set_defaults(func=cmd_wheel)

    p = sub.add_parser("loop", help="check the cyclic chain condition")
    p.add_argument("operator")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--family", default=None)
    common(p)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("agm", help="postulate sweep for a revision distance")
    p.add_argument("distance")
    p.add_argument("--atoms", required=True, help="comma list of atoms")
    common(p)
    p.set_defaults(func=cmd_agm)

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
