#!/usr/bin/env python3
"""Check one ``bench/run.py`` run from the last line of its standard output.

Reads the run's output on standard input, prints one summary line
(``correct``, ``attempted``, ``failed`` and each named metric's value)
and exits 1 unless ``correct`` is true, ``attempted`` is above 0,
``failed`` is 0 and every named metric is present and above 0.  A run
that attempted no op reports ``correct`` true, so ``attempted`` is
checked on its own.  A last line that is not a run's JSON object exits
1 with ``WORKLOAD no run line: <its first 80 characters>`` on standard
error.

Usage: python3 bench/run.py ... | python3 scripts/check_bench_run.py [--workload NAME] [METRIC ...]
"""

from __future__ import annotations

import argparse
import json
import sys


def check(line: str, metrics: list[str]) -> tuple[str, bool]:
    """The summary of one run's JSON line and whether it passes."""
    run = json.loads(line)
    values = {name: run["metrics"].get(name, {}).get("value") for name in metrics}
    attempted = run.get("attempted")
    summary = " ".join(
        ["correct", str(run["correct"]), "attempted", str(attempted)]
        + ["failed", str(run["failed"])]
        + [f"{name} {value}" for name, value in values.items()]
    )
    ok = (
        run["correct"] is True
        and isinstance(attempted, int)
        and attempted > 0
        and run["failed"] == 0
        and all(value is not None and value > 0 for value in values.values())
    )
    return summary, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="name printed before the summary")
    parser.add_argument("metrics", nargs="*", metavar="METRIC", help="metric that must be > 0")
    args = parser.parse_args(argv)
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no output from bench/run.py", file=sys.stderr)
        return 1
    prefix = f"{args.workload} " if args.workload else ""
    try:
        summary, ok = check(lines[-1], args.metrics)
    except (ValueError, TypeError, KeyError, AttributeError):
        print(f"{prefix}no run line: {lines[-1][:80]}", file=sys.stderr)
        return 1
    print(prefix + summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
