"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --runs 10 --seconds 20 [--out FILE]

Runs ``run.py --trace 0`` once per seed 1..RUNS and workload (workloads
interleaved, so drift of the machine reaches all of them alike) and
prints, per workload and metric, the median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound.  A spread at or above the bound fails; above a third of
it is flagged.  The spread of ``setup_s`` is reported but not judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
from run import WORKLOADS, metadata

BENCH = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", help="write every run's values to this JSON file")
    args = parser.parse_args()

    meta = metadata(1, args.seconds)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    for seed in range(1, args.runs + 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"done {name} seed {seed}", file=sys.stderr)

    worst = 0.0
    summary: dict[str, dict[str, dict]] = {}
    for name in WORKLOADS:
        print(f"== {name} ({args.runs} runs of {args.seconds} s)")
        for metric, unit, _, bound in metrics.END_TO_END:
            median, share = spread(values[name][metric])
            summary.setdefault(name, {})[metric] = {"median": median, "spread": share}
            judged = metric != "setup_s"
            verdict = "not judged" if not judged else "FAIL" if share >= bound else (
                "wide" if share > bound / 3 else "ok"
            )
            if judged:
                worst = max(worst, share / bound)
            print(f"   {metric:<18} median {median:>12.6g} {unit:<4} spread {share:.3f}"
                  f" (bound {bound}) {verdict}")
    if args.out:
        out = {"metadata": meta, "runs": args.runs, "summary": summary, "values": values}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0 if worst < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
