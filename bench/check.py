"""Checks of one op's output against the expectation the generator recorded.

Each function returns a list of problems; an empty list means the op is
correct.  Precision and recall values are not compared: they depend on
how gold and predicted aspects are matched, which may change, while the
pairs, totals and item counts may not.
"""

from __future__ import annotations

import math
from collections import Counter

from aspectminer.evaluation import check_f_consistency, load_report

EVALUATION_COUNTS = (
    "n_predicted_aspects",
    "n_predicted_opinions",
    "n_gold_aspects",
    "n_gold_opinions",
)


def pair_rows(pairs) -> list[tuple]:
    return sorted(
        (p.sentence.position, p.aspect_surface, p.opinion_surface, p.orientation, p.pattern_name)
        for p in pairs
    )


def diff_pairs(expected: list, pairs) -> list[str]:
    want = Counter(tuple(row) for row in expected)
    got = Counter(pair_rows(pairs))
    if want == got:
        return []
    missing = sorted((want - got).elements())
    extra = sorted((got - want).elements())
    return [
        f"pairs differ: {len(missing)} missing (first {missing[:2]}), "
        f"{len(extra)} unexpected (first {extra[:2]})"
    ]


def percentages(positive: int, negative: int) -> tuple[int, int]:
    """Summary percentages: positive rounded half up, negative its complement."""
    total = positive + negative
    if total == 0:
        return 0, 0
    pos = int(math.floor(100.0 * positive / total + 0.5))
    return pos, 100 - pos


def check_rendered(expect: dict, fmt: str, text: str) -> list[str]:
    """Each summary format must carry the expected totals or percentages."""
    pos, neg = expect["positive_total"], expect["negative_total"]
    pos_pct, neg_pct = percentages(pos, neg)
    lines = text.splitlines()
    if fmt == "text":
        ok = f"opinions: {pos + neg} ({pos_pct}% positive, {neg_pct}% negative)" in lines
    elif fmt == "machine":
        ok = lines[:1] == [f"summary\t{expect['product']}\t{pos + neg}\t{pos_pct}\t{neg_pct}"]
    else:
        ok = (
            len(lines) >= 2
            and lines[0].startswith("overall")
            and lines[0].endswith(f"{pos_pct:>3}%")
            and lines[1].endswith(f"{neg_pct:>3}%")
        )
    return [] if ok else [f"{fmt} summary does not carry the expected totals"]


def check_summary(expect: dict, summary, groups, renders: dict[str, str]) -> list[str]:
    problems = diff_pairs(expect["pairs"], [p for g in groups for p in g.pairs])
    for attr in ("positive_total", "negative_total"):
        if getattr(summary, attr) != expect[attr]:
            problems.append(f"{attr} {getattr(summary, attr)} != {expect[attr]}")
    for fmt, text in renders.items():
        problems += check_rendered(expect, fmt, text)
    return problems


def check_evaluation(expect: dict, pairs, breakdown) -> list[str]:
    problems = diff_pairs(expect["pairs"], pairs)
    for attr in EVALUATION_COUNTS:
        if getattr(breakdown, attr) != expect[attr]:
            problems.append(f"{attr} {getattr(breakdown, attr)} != {expect[attr]}")
    return problems


def check_report(report, comparison, n_rows: int) -> list[str]:
    problems = [f"f-consistency: {m}" for m in check_f_consistency(report)]
    problems += [f"comparison: {m}" for m in comparison.f_mismatches]
    if len(report.per_product) != n_rows:
        problems.append(f"report has {len(report.per_product)} rows for {n_rows} products")
    if n_rows >= 2 and len(comparison.t_tests) != 4:
        problems.append(f"{len(comparison.t_tests)} t-tests, expected 4")
    return problems


def check_cli_evaluate(expect: dict, out_path) -> list[str]:
    """The machine-format report: one row for the product, f consistent."""
    report = load_report(out_path)
    problems = [f"f-consistency: {m}" for m in check_f_consistency(report)]
    if report.products != (expect["product"],):
        problems.append(f"report rows {report.products} != ({expect['product']!r},)")
    return problems
