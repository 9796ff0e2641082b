"""distrev benchmark: closed-loop workloads over the public distrev API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload checkers|solver|gadgets|all \\
        --seed N --seconds S --trace 0|1

Each workload is one client that sends its next job only after the previous
one finished; at most one child process runs at a time.  A run repeats the
workload's fixed job list (a pass) while the next pass is expected to end
within --seconds, and always makes at least one pass.  It then checks every
stored verdict, prints each metric as ``<workload>.<metric>: <value> <unit>``
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A job that raises, or whose child process crashes, aborts the
run without a result, so ``failed`` is 0 in every result printed.  Jobs that
complete without a verdict (unknown, or over budget) are not failed
operations; they are counted in ``failed_ratio``.

Times are reported in reference seconds (see speed.py), which takes the
machine's own speed swings out of them; the raw seconds are printed too.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced pass
and one traced pass instead and reports the per-layer metrics, the layers'
self times and the tracing overhead; spans go to
.perfbench_work/<workload>/spans.tsv.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from speed import CHILD_EXPONENT, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "inputs.json"
NAMES = ("checkers", "solver", "gadgets")
SETUP_PROBES = 9
SETUP_PROBE_PERIOD_S = 0.05


def import_distrev():
    """Import distrev from this checkout's src/ and nowhere else."""
    pkg = SRC / "distrev" / "__init__.py"
    if not pkg.is_file():
        sys.exit(f"perfbench: {pkg} is missing; run from the root of a distrev checkout")
    sys.path.insert(0, str(SRC))
    import distrev

    if Path(distrev.__file__).resolve() != pkg.resolve():
        sys.exit(f"perfbench: imported distrev from {distrev.__file__}, not {pkg}")


@dataclass
class Pass:
    """One closed-loop pass over the job list."""

    jobs: list
    results: list = field(default_factory=list)
    times: list = field(default_factory=list)   # seconds per job
    scaled: list = field(default_factory=list)  # reference seconds per job

    @property
    def wall(self):
        return sum(self.scaled)

    @property
    def raw_wall(self):
        return sum(self.times)


def _run_pass(workload, tracer=None):
    """One pass.  In-process jobs are scaled by this process's speed over
    the pass; a child process reports its own speed (see child.py)."""
    p = Pass(workload.jobs(tracer))
    probe = None if workload.children else SpeedProbe()
    with probe or contextlib.nullcontext():
        for kind, fn in p.jobs:
            spent = probe.spent if probe else 0.0
            start = time.perf_counter()
            if tracer is None:
                p.results.append(fn())
            else:
                p.results.append(tracer.call(f"job.{kind}", fn))
            elapsed = time.perf_counter() - start
            p.times.append(elapsed - (probe.spent - spent if probe else 0.0))
    if probe:
        p.scaled = [t * probe.factor() for t in p.times]
    else:
        p.scaled = [(t - r["probe_spent_s"]) * r["speed_factor"] ** CHILD_EXPONENT
                    for t, r in zip(p.times, p.results)]
    return p


def _setup_probes(args):
    """Median set-up time, in reference and in raw seconds, of fresh
    processes run one after another (see ``_setup_probe``)."""
    reports = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(i)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        reports.append(json.loads(proc.stdout))
    return (statistics.median(r["setup_s"] for r in reports),
            statistics.median(r["raw_s"] for r in reports),
            {r["digest"] for r in reports})


def _setup_probe(args):
    """Time from the first line of this file to the first job being ready:
    importing distrev, generating the inputs, writing the input files and
    building the jobs."""
    with SpeedProbe(SETUP_PROBE_PERIOD_S) as probe:
        import_distrev()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, WORK / f"probe-{args.workload}")
        workload.write_files()
        workload.jobs()
        raw = time.perf_counter() - STARTED - probe.spent
    print(json.dumps({"digest": workload.digest, "raw_s": raw,
                      "setup_s": raw * probe.factor()}))
    return 0


def _check_digest(workload):
    """Seeds listed in inputs.json must still generate the same inputs."""
    known = json.loads(DIGESTS.read_text())[workload.name]
    expected = known.get(str(workload.seed), workload.digest)
    if expected != workload.digest:
        return [f"seed {workload.seed} generated inputs {workload.digest}, "
                f"inputs.json records {expected}"]
    return []


def _undecided(workload, p):
    return sum(workload.undecided(kind, res) for (kind, _), res in zip(p.jobs, p.results))


def _emit(workload, metrics, units, counts, errors, attempted, extra=()):
    for line in extra:
        print(f"{workload.name}.{line}")
    for key, value in sorted(counts.items()):
        print(f"{workload.name}.count.{key}: {value}")
    for key, value in metrics.items():
        print(f"{workload.name}.{key}: {value} {units[key]}")
    for err in errors:
        print(f"perfbench: WRONG: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": 0,  # a failed job aborts the run before this line
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


def run_untraced(workload, args):
    setup_s, setup_raw_s, digests = _setup_probes(args)
    workload.write_files()
    first, counts, errors = None, None, []
    walls, raw_walls, job_ms, by_kind = [], [], [], {}
    attempted = undecided = 0
    began = time.perf_counter()
    while True:
        p = _run_pass(workload)
        # keep only the first pass's results, for the gate after the timed
        # phase; later passes must repeat its work counts exactly.  Peak RSS
        # is read after the first pass too, as the allocator's high-water
        # mark creeps with the number of passes.
        if first is None:
            first, counts = p, workload.counts(p.jobs, p.results)
            peak_kb = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
                          + workload.rung_rss_kb(p.results))
        elif workload.counts(p.jobs, p.results) != counts:
            errors.append("work counts differ between passes")
        walls.append(p.wall)
        raw_walls.append(p.raw_wall)
        attempted += len(p.jobs)
        undecided += _undecided(workload, p)
        job_ms += [t * 1000 for t in p.scaled]
        for (kind, _), t in zip(p.jobs, p.scaled):
            by_kind.setdefault(kind, []).append(t)
        if time.perf_counter() - began + p.raw_wall > args.seconds:
            break
    errors = workload.gate(first.jobs, first.results) + errors
    if digests != {workload.digest}:
        errors.append("set-up probes generated different inputs")
    errors += _check_digest(workload)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kb / 1024,
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    extra = [
        f"seed: {args.seed}",
        f"inputs.sha256: {workload.digest}",
        f"passes: {len(walls)}",
        f"raw.setup_s: {setup_raw_s} s",
        f"raw.wall_s: {statistics.median(raw_walls)} s",
        f"failed_ratio: {undecided / attempted} ({undecided}/{attempted} undecided)",
    ]
    extra += [f"job_s.{kind}: {sum(ts) / len(walls)} s (n={len(ts)})"
              for kind, ts in by_kind.items()]
    if len(job_ms) >= 100:
        deciles = statistics.quantiles(job_ms, n=10)
        extra += [f"job_ms.p50: {statistics.median(job_ms)} ms (n={len(job_ms)})",
                  f"job_ms.p90: {deciles[8]} ms (n={len(job_ms)})"]
    return _emit(workload, metrics, units, counts, errors, attempted, extra)


def run_traced(workload, args):
    from tracer import Tracer, layer_self_times
    import layers

    workload.write_files()
    untraced = _run_pass(workload)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    self_times = layer_self_times(tracer)  # before the gate adds oracle spans
    errors = workload.gate(traced.jobs, traced.results, tracer)
    counts = workload.counts(traced.jobs, traced.results)
    if workload.counts(untraced.jobs, untraced.results) != counts:
        errors.append("work counts differ between the traced and untraced pass")
    errors += _check_digest(workload)
    tracer.write(workload.workdir / "spans.tsv")
    metrics = layers.per_layer(tracer, workload.rung_rss_kb(traced.results))
    for layer, self_s in self_times.items():
        metrics[f"{layer}.self_s"] = self_s
    metrics["trace.untraced_wall_s"] = untraced.wall
    metrics["trace.traced_wall_s"] = traced.wall
    metrics["trace.overhead_ratio"] = traced.wall / untraced.wall
    spans = len(tracer.span_id) + tracer.child_spans
    return _emit(workload, metrics, layers.UNITS, counts, errors, len(traced.jobs),
                 [f"trace.spans: {spans}",
                  f"failed_ratio: {_undecided(workload, traced) / len(traced.jobs)}"])


def run_all(args):
    """Every workload in its own process, one after another."""
    summary, ok = {}, True
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary[name] = result
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        return _setup_probe(args)
    import_distrev()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        return run_traced(workload, args)
    return run_untraced(workload, args)


if __name__ == "__main__":
    sys.exit(main())
