"""In-memory span tracer that rebinds distrev's public functions.

Each traced function is replaced, in every module that calls it by name, by
a wrapper that records a span: name, start, end and the span that caused it.
Spans of one job share the job's span id.  Aggregates (calls, total time of
outermost spans, self time) are kept as spans close; the spans themselves
stay in compact arrays until ``write`` dumps them when the run ends.

``compare_costs`` is called millions of times per pass, so it is only
counted, never timed: its time stays in the self time of its caller.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import distrev.cli as cli
import distrev.costs as costs
import distrev.distops as distops
import distrev.fileio as fileio
import distrev.logic as logic
import distrev.realizability as realizability
import distrev.revision as revision
import distrev.wheel as wheel


def _apply_pairs(args, kwargs, result):
    return {"distops.apply.pairs": len(args[1]) * len(args[2])}


def _loop_chains(args, kwargs, result):
    return {"distops.check_loop.chains": result.checked}


def _atoms(args, kwargs, result):
    return {"realizability.atoms": sum(
        len(d) for c in result.clauses for d in c.disjuncts)}


def _verdict(args, kwargs, result):
    return {"realizability.nodes": result.nodes, f"realizability.{result.status}": 1}


def _sweep_pairs(args, kwargs, result):
    return {"wheel.wheel_equality_sweep.pairs": result.pairs_checked}


def _hamming_pairs(args, kwargs, result):
    return {"wheel.verify_hamming_claims.pairs":
            result.equality.pairs_checked + result.reduction.pairs_checked}


# (span name, function's home module, attribute, modules that call it by
# name, work counter).  Patching the home module also covers callers that
# reach the function as ``module.attr``, the benchmark's jobs included.
TRACED = (
    ("costs.check_property", costs, "check_property", (wheel, cli), None),
    ("costs.check_hir", costs, "check_hir", (wheel,), None),
    ("distops.apply", distops, "apply", (revision, realizability, wheel), _apply_pairs),
    ("distops.check_loop", distops, "check_loop", (revision, cli), _loop_chains),
    ("distops.check_inclusion", distops, "check_inclusion", (wheel,), None),
    ("distops.find_loop_violation", distops, "find_loop_violation", (wheel,), None),
    ("logic.models", logic, "models", (revision,), None),
    ("logic.canonical_dnf", logic, "canonical_dnf", (revision,), None),
    ("logic.definable_model_sets", logic, "definable_model_sets", (revision,), None),
    ("revision.check_agm", revision, "check_agm", (cli,), None),
    ("revision.check_disjunction_iteration", revision, "check_disjunction_iteration", (), None),
    ("revision.check_star_loop", revision, "check_star_loop", (), None),
    ("revision.check_dp_cp", revision, "check_dp_cp", (), None),
    ("realizability.solve_table", realizability, "solve_table", (cli, wheel), None),
    ("realizability.compile_constraints", realizability, "compile_constraints", (), _atoms),
    ("realizability.solve", realizability, "solve", (), _verdict),
    ("realizability.verify_witness", realizability, "verify_witness", (), None),
    ("wheel.build_wheel_gadget", wheel, "build_wheel_gadget", (cli,), None),
    ("wheel.build_hamming_wheel", wheel, "build_hamming_wheel", (cli,), None),
    ("wheel.verify_wheel_claims", wheel, "verify_wheel_claims", (cli,), None),
    ("wheel.wheel_equality_sweep", wheel, "wheel_equality_sweep", (), _sweep_pairs),
    ("wheel.verify_hamming_claims", wheel, "verify_hamming_claims", (cli,), _hamming_pairs),
    ("fileio.load", fileio, "load_operator_table", (), None),
    ("fileio.load", fileio, "load_distance", (), None),
    ("fileio.save", fileio, "save_distance", (), None),
    ("fileio.save", fileio, "save_operator_table", (), None),
    ("cli.realize", cli, "cmd_realize", (), None),
    ("cli.wheel", cli, "cmd_wheel", (), None),
)

LAYERS = ("costs", "distops", "logic", "revision", "realizability", "wheel",
          "fileio", "cli")


class Tracer:
    def __init__(self):
        self.stats = {}   # name -> [calls, total_s of outermost spans, self_s]
        self.edges = {}   # "parent>child" -> calls
        self.counts = {}  # work counters
        self.names = []
        self._name_ids = {}
        self._stack = []  # frames: [span id, name, child time]
        self._active = {}
        self._next_id = 1
        self._job = 0
        self._patches = []
        self.child_spans = 0  # spans recorded by traced child processes
        # one row per closed span
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        if not self._stack:
            self._job = sid
        self._stack.append([sid, name, 0.0])
        self._active[name] = self._active.get(name, 0) + 1

    def _close(self, name, start, end):
        sid, _, child = self._stack.pop()
        active = self._active[name] - 1
        self._active[name] = active
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
            edge = f"{parent[1]}>{name}"
            self.edges[edge] = self.edges.get(edge, 0) + 1
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        if not active:
            st[1] += dur
        st[2] += dur - child
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_id.append(sid)
        self.span_parent.append(parent[0] if parent is not None else 0)
        self.span_job.append(self._job)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    def add(self, counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, start, perf_counter())
            if work is not None:
                tracer.add(work(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def _patch(self, targets, attr, make):
        """Rebind ``attr`` wherever it still names the home function."""
        original = getattr(targets[0], attr, None)
        if original is None:
            return  # gone from this version of distrev: its metrics read 0
        value = make(original)
        for target in targets:
            if getattr(target, attr, None) is original:
                self._patches.append((target, attr, original))
                setattr(target, attr, value)

    def install(self):
        """Rebind every traced name; ``uninstall`` restores the originals."""
        for name, home, attr, callers, work in TRACED:
            self._patch((home,) + callers, attr,
                        lambda fn, name=name, work=work: self.wrap(name, fn, work))
        self._patch((revision.RevisionOperator,), "revise_models",
                    lambda fn: self.wrap("revision.revise_models", fn))
        self._patch((costs, distops), "compare_costs",
                    lambda fn: self.counter("costs.compare_costs", fn))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self):
        return {"stats": self.stats, "edges": self.edges, "counts": self.counts,
                "spans": len(self.span_id)}

    def merge(self, summary):
        """Fold in the summary of a traced child process."""
        for name, (calls, total, self_s) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for key, value in summary["edges"].items():
            self.edges[key] = self.edges.get(key, 0) + value
        self.add(summary["counts"])
        self.child_spans += summary["spans"]

    def write(self, path):
        """Dump every recorded span as tab-separated rows."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            names = self.names
            for row in zip(self.span_id, self.span_parent, self.span_job,
                           self.span_name, self.span_start, self.span_end):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t"
                         f"{row[4]:.9f}\t{row[5]:.9f}\n")


def total(tracer, name):
    return tracer.stats.get(name, (0, 0.0, 0.0))[1]


def calls(tracer, name):
    return tracer.stats.get(name, (0, 0.0, 0.0))[0]


def layer_self_times(tracer):
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in tracer.stats.items():
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += self_s
    return out
