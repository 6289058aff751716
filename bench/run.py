"""aspectminer benchmark: seeded review catalogs through the public API.

    python3 bench/run.py --workload summarize-catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --out bench/results/NAME.json

One run generates the workload's catalog from the seed (not timed),
times set-up (``import aspectminer`` + ``load_resources``) in several
fresh processes, then runs the closed loop in one more fresh process
(see worker.py).  It prints every metric by name and unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs every workload both ways and, with ``--out``,
writes the results with the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import metrics
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # worker op kind: summarize | evaluate | cli
    why: str
    # The size curve (smallest, largest, skew) is an assumption, not a
    # count: the shipped sample holds products of one size.
    smallest: int
    largest: int
    skew: float
    products: int = 3 * gen.BLOCK
    raw: bool = False  # tagged by the baseline tagger, so raw-safe vocabulary only
    open_terms: int = 0  # > 0: generated dictionary with this many canonical terms


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "summarize-catalog",
            "summarize",
            "pretagged products over the bundled dictionary: extraction dominates, "
            "grouping sees few surfaces, no tagging or evaluation",
            smallest=20,
            largest=4000,
            skew=3.0,
        ),
        Workload(
            "evaluate-gold",
            "evaluate",
            "raw annotated products tagged by the baseline tagger and scored against "
            "gold; the per-product O(P*G) matching sets p90",
            smallest=20,
            largest=2200,
            skew=2.0,
            raw=True,
        ),
        Workload(
            "open-vocab",
            "summarize",
            "generated dictionary of thousands of terms plus unknown nouns: distinct "
            "surfaces grow with product size, stressing lookup and grouping",
            smallest=15,
            largest=1000,
            skew=3.0,
            open_terms=2000,
        ),
        Workload(
            "cli-batch",
            "cli",
            "one in-process cli.main per small or medium product: argparse, config, "
            "resource loading and output writing are paid on every op",
            smallest=20,
            largest=400,
            skew=1.5,
            raw=True,
        ),
    )
}


def build_catalog(w: Workload, seed: int, directory: Path) -> None:
    """Write every product file, expectation and catalog index for one seed."""
    rng = random.Random(f"{w.name}:{seed}")
    if w.open_terms:
        vocabulary, aspects, synonyms = gen.open_vocabulary(rng, w.open_terms)
        (directory / "aspects.txt").write_text(aspects, encoding="utf-8")
        (directory / "synonyms.txt").write_text(synonyms, encoding="utf-8")
    else:
        vocabulary = gen.bundled_vocabulary(raw_safe=w.raw)
    entries = []
    sizes = gen.product_sizes(w.products, w.smallest, w.largest, w.skew)
    for j, size in enumerate(sizes):
        product = gen.make_product(vocabulary, rng, f"p{j:04d}", size)
        entry = gen.write_product(directory, product)
        if w.kind == "cli":
            entry["command"] = "evaluate" if j % 3 == 2 else "summarize"
            entry["format"] = ("text", "machine")[j % 2]
        entries.append(entry)
    if w.kind == "cli":
        (directory / "config.json").write_text('{"top_k": 3}\n', encoding="utf-8")
    index = {"workload": w.name, "seed": seed, "block": gen.BLOCK, "products": entries}
    (directory / "catalog.json").write_text(json.dumps(index, indent=1), encoding="utf-8")


def worker(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns metrics and details."""
    WORK.mkdir(exist_ok=True)
    catalog = WORK / f"{w.name}-seed{seed}-{os.getpid()}"
    catalog.mkdir()
    try:
        build_catalog(w, seed, catalog)
        worker("setup", w.kind, str(catalog))  # untimed: fills the bytecode cache
        # Half the set-up probes run before the loop and half after it, so
        # one slow spell of the machine does not move their median.
        setups = [worker("setup", w.kind, str(catalog)) for _ in range(SETUP_PROBES // 2)]
        spans_path = WORK / f"spans-{w.name}-seed{seed}.jsonl"
        result = worker("run", w.kind, str(catalog), repr(seconds), str(spans_path) if trace else "-")
        setups += [worker("setup", w.kind, str(catalog)) for _ in range(SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(catalog, ignore_errors=True)
    values = metrics.per_layer(result) if trace else metrics.end_to_end(setups, result)
    return {
        "workload": w.name,
        "trace": trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "ops_timed": len(result["durations"]),
        "sentences": result["sentences"],
        "values": values,
        "wall_clock": None if trace else metrics.end_to_end(setups, result, False),
        "reference_s": statistics.median(result["refs"]),
        "spans_file": str(spans_path.relative_to(ROOT)) if trace else None,
        "unattributed_share": (
            result["spans"]["unattributed_s"] / result["spans"]["op_s"] if trace else None
        ),
    }


def units(trace: bool) -> dict[str, str]:
    rows = metrics.PER_LAYER if trace else metrics.END_TO_END
    return {row[0]: row[1] for row in rows}


def print_run(run: dict) -> None:
    n = run["ops_timed"]
    beyond = n - 1 - int(0.9 * (n - 1))  # samples above the interpolated p90
    print(
        f"== {run['workload']} ({'traced' if run['trace'] else 'untraced'}): "
        f"ops attempted {run['attempted']}, failed {run['failed']}; "
        f"{n} timed ops, {beyond} beyond p90; {run['sentences']} sentences"
    )
    for failure in run["failures"]:
        print(f"   failed: {failure}")
    unit = units(run["trace"])
    wall = run["wall_clock"] or {}
    for name, value in run["values"].items():
        note = f"   (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"   {name:<32} {value:>14.6g} {unit[name]:<5}{note}")
    print(
        f"   reference loop median {run['reference_s'] * 1000:.3f} ms; times above are at "
        f"the reference speed of {speed.REFERENCE_S * 1000:g} ms (see speed.py)"
    )
    if run["trace"]:
        print(
            "   waiting: none (single-threaded, no queues); "
            f"op time outside package calls: {run['unattributed_share']:.3f}"
        )


def metadata(seed: int, seconds: float) -> dict:
    try:
        # The ceiling keeps git from reading any directory above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "seed": seed,
        "seconds": seconds,
        "git_commit": commit or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def result_line(runs: list[dict], prefix: bool) -> str:
    values = {}
    for run in runs:
        unit = units(run["trace"])
        for name, value in run["values"].items():
            key = f"{run['workload']}.{name}" if prefix else name
            values[key] = {"value": value, "unit": unit[name]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": values,
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write results with run metadata to this JSON file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aspectminer" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    meta = metadata(args.seed, args.seconds)
    print("run: " + json.dumps(meta))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    runs = []
    for w, trace in plan:
        run = measure(w, args.seed, args.seconds, trace)
        print_run(run)
        runs.append(run)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"metadata": meta, "runs": runs}, indent=1) + "\n", encoding="utf-8"
        )
    print(result_line(runs, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
