"""Per-layer metrics of the traced run and the end-to-end metric each one
should move.  BENCHMARK.json's ``per_layer`` list mirrors METRICS; the
fourth field is the prediction a change to that layer is judged by."""

from __future__ import annotations

from tracer import LAYERS, calls, total
from workloads import GADGET_RUNGS

METRICS = (
    ("costs.compare_costs.calls", "count", "lower", "checkers wall_s"),
    ("costs.check_property.s", "s", "lower", "gadgets wall_s"),
    ("distops.apply.calls", "count", "lower",
     "checkers wall_s, job_ms.p50; solver job_ms.p50 (witness checks); not gadgets"),
    ("distops.apply.s", "s", "lower", "checkers wall_s, job_ms.p50"),
    ("distops.apply.pairs_per_s", "1/s", "higher", "checkers wall_s, job_ms.p50"),
    ("distops.check_loop.s", "s", "lower", "checkers wall_s"),
    ("distops.check_loop.chains", "count", "lower", "checkers wall_s"),
    ("distops.find_loop_violation.s", "s", "lower", "gadgets wall_s (abstract n=3)"),
    ("logic.models.s", "s", "lower", "checkers job_ms.p50"),
    ("logic.canonical_dnf.s", "s", "lower", "checkers job_ms.p50"),
    ("revision.check_agm.s", "s", "lower", "checkers wall_s"),
    ("revision.check_disjunction_iteration.s", "s", "lower", "checkers wall_s"),
    ("revision.check_star_loop.s", "s", "lower", "checkers wall_s"),
    ("revision.check_dp_cp.s", "s", "lower", "checkers wall_s"),
    ("revision.revise_models.calls", "count", "lower", "checkers job_ms.p50"),
    ("revision.revise_models.hit_ratio", "ratio", "higher", "checkers job_ms.p50"),
    ("realizability.compile_constraints.s", "s", "lower", "solver wall_s"),
    ("realizability.atoms", "count", "lower", "solver wall_s"),
    ("realizability.solve.s", "s", "lower", "solver wall_s, job_ms.p90"),
    ("realizability.nodes", "count", "lower", "solver wall_s, job_ms.p90"),
    ("realizability.nodes_per_s", "1/s", "higher", "solver wall_s, job_ms.p90"),
    ("realizability.verify_witness.s", "s", "lower", "solver job_ms.p50"),
    ("realizability.sat", "count", "higher", "solver failed_ratio"),
    ("realizability.unsat", "count", "higher", "solver failed_ratio"),
    ("realizability.unknown", "count", "lower", "solver failed_ratio"),
    ("realizability.brute_force_realizable.s", "s", "lower",
     "none: the oracle runs in the correctness gate, traced only"),
    ("wheel.wheel_equality_sweep.s", "s", "lower", "gadgets wall_s"),
    ("wheel.wheel_equality_sweep.pairs", "count", "lower", "gadgets wall_s"),
    ("wheel.verify_hamming_claims.s", "s", "lower", "gadgets wall_s, peak_rss_mb"),
    ("wheel.verify_hamming_claims.pairs", "count", "lower", "gadgets wall_s, peak_rss_mb"),
    ("wheel.verify_wheel_claims.s", "s", "lower", "gadgets wall_s"),
) + tuple(
    (f"wheel.rss_mb.{variant}_n{n}", "MB", "lower", "gadgets peak_rss_mb")
    for variant, n in GADGET_RUNGS
) + (
    ("cli.wheel.s", "s", "lower", "flat everywhere"),
    ("cli.realize.s", "s", "lower", "flat everywhere"),
    ("fileio.save.s", "s", "lower", "flat everywhere"),
    ("fileio.load.s", "s", "lower", "flat everywhere"),
) + tuple(
    (f"{layer}.self_s", "s", "lower", "span minus the child spans it covers")
    for layer in LAYERS
) + (
    ("trace.untraced_wall_s", "s", "lower", "untraced pass of the traced run"),
    ("trace.traced_wall_s", "s", "lower", "traced pass of the traced run"),
    ("trace.overhead_ratio", "ratio", "lower", "traced over untraced wall"),
)

UNITS = {name: unit for name, unit, _, _ in METRICS}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, rung_rss_kb):
    """Per-layer metrics from the tracer; rung RSS from the gadget children."""
    count = tracer.counts.get
    out = {
        "costs.compare_costs.calls": count("costs.compare_costs", 0),
        "costs.check_property.s": total(tracer, "costs.check_property"),
        "distops.apply.calls": calls(tracer, "distops.apply"),
        "distops.apply.s": total(tracer, "distops.apply"),
        "distops.apply.pairs_per_s": _ratio(count("distops.apply.pairs", 0),
                                            total(tracer, "distops.apply")),
        "distops.check_loop.s": total(tracer, "distops.check_loop"),
        "distops.check_loop.chains": count("distops.check_loop.chains", 0),
        "distops.find_loop_violation.s": total(tracer, "distops.find_loop_violation"),
        "logic.models.s": total(tracer, "logic.models"),
        "logic.canonical_dnf.s": total(tracer, "logic.canonical_dnf"),
    }
    for name in ("check_agm", "check_disjunction_iteration", "check_star_loop", "check_dp_cp"):
        out[f"revision.{name}.s"] = total(tracer, f"revision.{name}")
    revise = calls(tracer, "revision.revise_models")
    misses = tracer.edges.get("revision.revise_models>distops.apply", 0)
    out["revision.revise_models.calls"] = revise
    out["revision.revise_models.hit_ratio"] = 1 - _ratio(misses, revise) if revise else 0.0
    out["realizability.compile_constraints.s"] = total(tracer, "realizability.compile_constraints")
    out["realizability.atoms"] = count("realizability.atoms", 0)
    out["realizability.solve.s"] = total(tracer, "realizability.solve")
    out["realizability.nodes"] = count("realizability.nodes", 0)
    out["realizability.nodes_per_s"] = _ratio(out["realizability.nodes"],
                                              out["realizability.solve.s"])
    out["realizability.verify_witness.s"] = total(tracer, "realizability.verify_witness")
    for status in ("sat", "unsat", "unknown"):
        out[f"realizability.{status}"] = count(f"realizability.{status}", 0)
    out["realizability.brute_force_realizable.s"] = total(
        tracer, "realizability.brute_force_realizable")
    out["wheel.wheel_equality_sweep.s"] = total(tracer, "wheel.wheel_equality_sweep")
    out["wheel.wheel_equality_sweep.pairs"] = count("wheel.wheel_equality_sweep.pairs", 0)
    out["wheel.verify_hamming_claims.s"] = total(tracer, "wheel.verify_hamming_claims")
    out["wheel.verify_hamming_claims.pairs"] = count("wheel.verify_hamming_claims.pairs", 0)
    out["wheel.verify_wheel_claims.s"] = total(tracer, "wheel.verify_wheel_claims")
    rss = dict(zip(GADGET_RUNGS, rung_rss_kb))
    for variant, n in GADGET_RUNGS:
        out[f"wheel.rss_mb.{variant}_n{n}"] = rss.get((variant, n), 0) / 1024
    for name in ("cli.wheel", "cli.realize", "fileio.save", "fileio.load"):
        out[f"{name}.s"] = total(tracer, name)
    return out
