"""Run one distrev command in this process and report on it.

Usage: python3 perfbench/child.py --result FILE [--trace] -- <distrev args>

The distrev report goes to standard output.  FILE receives the command's
exit code, this process's peak resident memory, its speed relative to the
reference (see speed.py) and, with --trace, the span aggregates of the run;
the spans themselves go to FILE's stem + ".spans.tsv".
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from run import import_distrev
from speed import SpeedProbe


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    import_distrev()
    from distrev import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with SpeedProbe() as probe:
        code = cli.main(command)
    sys.stdout.flush()
    result = {
        "exit": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_factor": probe.factor(),
        "probe_spent_s": probe.spent,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write(args.result.rsplit(".", 1)[0] + ".spans.tsv")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
