"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json at the repository root lists the same metrics; a
self-test keeps the two in step.
"""

from __future__ import annotations

import statistics

import speed

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("sentences_per_s", "1/s", "higher", 0.2),
    ("product_s_p50", "s", "lower", 0.2),
    ("product_s_p90", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Spans recorded around calls into the package: (span name, also report
# the median per op).  Each gives "<span>_s", the busy time summed over
# the run, and optionally "<span>_op_s".
SPANS = (
    ("patterns.extract", True),
    ("patterns.load", False),
    ("evaluation.match", True),
    ("evaluation.report", False),
    ("grouping.group", True),
    ("tagger.tag", True),
    ("tagger.pretagged", True),
    ("tagger.lexicon_load", False),
    ("corpus.parse", True),
    ("scoring.score", True),
    ("summary.generate", True),
    ("summary.render", True),
    ("lexicons.load", True),
    ("pipeline.load_resources", False),
    ("cli.main", True),
)

COUNTS = (
    "patterns.pairs",
    "evaluation.pred_items",
    "evaluation.gold_items",
    "grouping.surfaces",
    "grouping.groups",
    "tagger.tokens",
    "corpus.sentences",
    "lexicons.dictionary_entries",
)

MODULES = (
    "patterns",
    "evaluation",
    "grouping",
    "tagger",
    "corpus",
    "scoring",
    "summary",
    "lexicons",
    "pipeline",
    "cli",
)


def _per_layer():
    rows = []
    for span, per_op in SPANS:
        rows.append((f"{span}_s", "s", "lower"))
        if per_op:
            rows.append((f"{span}_op_s", "s", "lower"))
    rows += [
        ("pipeline.import_s", "s", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("patterns.fallback_share", "ratio", "lower"),
    ]
    rows += [(name, "count", "higher") for name in COUNTS]
    rows += [(f"{m}.raised", "count", "lower") for m in MODULES]
    rows += [(f"{m}.share", "ratio", "lower") for m in MODULES]
    rows += [("trace.overhead_share", "ratio", "lower"), ("trace.ops", "count", "higher")]
    return tuple(rows)


# (name, unit, better)
PER_LAYER = _per_layer()


def percentile_p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setups: list[dict], worker: dict, at_reference_speed: bool = True) -> dict:
    """End-to-end values; timings at the reference speed unless told otherwise.

    ``setups`` are the set-up probes' results, ``worker`` the loop's.
    Each op's time is scaled by the reference loop timed around it.
    """
    refs = worker["refs"]

    def scale(i: int) -> float:
        return speed.factor(refs, i) if at_reference_speed else 1.0

    ops = [seconds * scale(i) for i, seconds in enumerate(worker["durations"])]
    report = worker["report_s"] * scale(len(refs) - 1)
    setup = [
        (s["import_s"] + s["load_resources_s"])
        * (speed.REFERENCE_S / s["ref"] if at_reference_speed else 1.0)
        for s in setups
    ]
    return {
        "setup_s": statistics.median(setup),
        "sentences_per_s": worker["sentences"] / (sum(ops) + report),
        "product_s_p50": statistics.median(ops),
        "product_s_p90": percentile_p90(ops),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }


def per_layer(worker: dict) -> dict[str, float]:
    """Per-layer values from the traced worker's span summary and counts.

    Times are at the reference speed, scaled by the run's median
    reference loop; shares and counts need no scaling.
    """
    spans = worker["spans"]
    scale = speed.factor(worker["refs"])
    values: dict[str, float] = {}
    for span, per_op in SPANS:
        values[f"{span}_s"] = spans["total_s"].get(span, 0.0) * scale
        if per_op:
            values[f"{span}_op_s"] = spans["op_median_s"].get(span, 0.0) * scale
    counts = worker["counts"]
    values["pipeline.import_s"] = worker["import_s"] * scale
    values["cli.overhead_s"] = spans["module_self_s"].get("cli", 0.0) * scale
    pairs = counts.get("patterns.pairs", 0)
    values["patterns.fallback_share"] = counts.get("patterns.fallback", 0) / pairs if pairs else 0.0
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    for module in MODULES:
        values[f"{module}.raised"] = spans["raised"].get(module, 0)
        values[f"{module}.share"] = spans["module_self_s"].get(module, 0.0) / spans["op_s"]
    values["trace.overhead_share"] = worker["overhead_share"]
    values["trace.ops"] = worker["traced_ops"]
    return values
