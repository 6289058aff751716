"""Scoring of extraction output against gold annotations.

Matching is per sentence.  The headline aspect metric accepts a
token-subset match in either direction (gold "battery life" matches a
predicted "battery"); exact lowercase equality is computed alongside.
Opinion metrics additionally require orientation agreement with the
sign of the gold strength.

The paired t-test evaluates the Student t survival function through the
regularized incomplete beta function (continued fraction), accurate to
well under 1e-6.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import exp, fsum, inf, lgamma, log, sqrt
from pathlib import Path

from .corpus import Corpus
from .errors import ParseError, read_text
from .lexicons import POSITIVE
from .patterns import AspectOpinionPair

_SENTENCE_KEY = tuple[str, int]


@dataclass(frozen=True)
class ExtractionScores:
    """Per-product precision/recall/f for aspect and opinion extraction."""

    product: str
    aspect_p: float
    aspect_r: float
    aspect_f: float
    opinion_p: float
    opinion_r: float
    opinion_f: float

    def __post_init__(self):
        for name in ("aspect_p", "aspect_r", "aspect_f", "opinion_p", "opinion_r", "opinion_f"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    @classmethod
    def from_rates(
        cls, product: str, aspect_p: float, aspect_r: float, opinion_p: float, opinion_r: float
    ) -> "ExtractionScores":
        """Row whose f columns are computed from its precision and recall."""
        return cls(
            product=product,
            aspect_p=aspect_p,
            aspect_r=aspect_r,
            aspect_f=f_measure(aspect_p, aspect_r),
            opinion_p=opinion_p,
            opinion_r=opinion_r,
            opinion_f=f_measure(opinion_p, opinion_r),
        )


@dataclass(frozen=True)
class EvalReport:
    per_product: tuple[ExtractionScores, ...]
    averages: ExtractionScores

    @property
    def products(self) -> tuple[str, ...]:
        return tuple(r.product for r in self.per_product)


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    two_tailed: bool
    degenerate: bool = False


@dataclass(frozen=True)
class ExtractionBreakdown:
    """Subset-match metrics (headline) plus exact-match counterparts."""

    aspect_p: float
    aspect_r: float
    opinion_p: float
    opinion_r: float
    aspect_p_exact: float
    aspect_r_exact: float
    opinion_p_exact: float
    opinion_r_exact: float
    n_predicted_aspects: int
    n_gold_aspects: int
    n_predicted_opinions: int
    n_gold_opinions: int


def f_measure(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= r <= 1.0:
        raise ValueError("precision and recall must be within [0, 1]")
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


def _terms_match(a: str, b: str) -> bool:
    if a == b:
        return True
    ta, tb = set(a.split()), set(b.split())
    return ta <= tb or tb <= ta


def _ratio(matched: int, total: int) -> float:
    return matched / total if total else 0.0


# One side's items grouped by sentence: per sentence, its distinct aspect
# terms, or its distinct (aspect term, orientation) pairs.
_Buckets = dict[_SENTENCE_KEY, list]


def _add(buckets: _Buckets, key: _SENTENCE_KEY, item) -> None:
    bucket = buckets.setdefault(key, [])
    if item not in bucket:
        bucket.append(item)


def _size(buckets: _Buckets) -> int:
    return sum(len(bucket) for bucket in buckets.values())


def _opinion_hit(match):
    """Opinion items match when their terms match and orientations agree."""
    return lambda p, g: match(p[0], g[0]) and p[1] == g[1]


def _count_matched(predicted: _Buckets, gold: _Buckets, hit) -> tuple[int, int]:
    """Matched (predictions, golds): an item counts once it hits any item
    of the other side in the same sentence."""
    matched_pred = sum(
        any(hit(p, g) for g in gold.get(key, ()))
        for key, bucket in predicted.items()
        for p in bucket
    )
    matched_gold = sum(
        any(hit(p, g) for p in predicted.get(key, ()))
        for key, bucket in gold.items()
        for g in bucket
    )
    return matched_pred, matched_gold


def evaluate_extraction_detailed(
    predicted: list[AspectOpinionPair], gold: Corpus
) -> ExtractionBreakdown:
    """Headline subset-match metrics plus their exact-match counterparts.

    Duplicate predictions and duplicate gold items collapse before
    counting; an empty side yields 0.0 for its ratios.

    Items are kept per sentence, so each is compared only with the other
    side's items of its own sentence and the cost is linear in the
    number of sentences.
    """
    known = {(s.review_id, s.sentence_index) for s in gold.sentences}

    pred_aspects: _Buckets = {}
    pred_opinions: _Buckets = {}
    for pair in predicted:
        source = pair.sentence.source
        if source is None or (source.review_id, source.sentence_index) not in known:
            raise ValueError(
                f"predicted pair for aspect {pair.aspect_surface!r} references "
                f"a sentence outside the gold corpus"
            )
        key = (source.review_id, source.sentence_index)
        aspect = pair.aspect_surface.lower()
        _add(pred_aspects, key, aspect)
        _add(pred_opinions, key, (aspect, pair.orientation))

    gold_aspects: _Buckets = {}
    gold_opinions: _Buckets = {}
    for sentence in gold.sentences:
        key = (sentence.review_id, sentence.sentence_index)
        for ann in sentence.gold:
            term = ann.aspect_term.lower()
            sign = POSITIVE if ann.strength > 0 else "negative"
            _add(gold_aspects, key, term)
            _add(gold_opinions, key, (term, sign))

    n_pred_aspects, n_gold_aspects = _size(pred_aspects), _size(gold_aspects)
    n_pred_opinions, n_gold_opinions = _size(pred_opinions), _size(gold_opinions)
    ap, ag = _count_matched(pred_aspects, gold_aspects, _terms_match)
    op, og = _count_matched(pred_opinions, gold_opinions, _opinion_hit(_terms_match))
    ap_x, ag_x = _count_matched(pred_aspects, gold_aspects, operator.eq)
    op_x, og_x = _count_matched(pred_opinions, gold_opinions, _opinion_hit(operator.eq))

    return ExtractionBreakdown(
        aspect_p=_ratio(ap, n_pred_aspects),
        aspect_r=_ratio(ag, n_gold_aspects),
        opinion_p=_ratio(op, n_pred_opinions),
        opinion_r=_ratio(og, n_gold_opinions),
        aspect_p_exact=_ratio(ap_x, n_pred_aspects),
        aspect_r_exact=_ratio(ag_x, n_gold_aspects),
        opinion_p_exact=_ratio(op_x, n_pred_opinions),
        opinion_r_exact=_ratio(og_x, n_gold_opinions),
        n_predicted_aspects=n_pred_aspects,
        n_gold_aspects=n_gold_aspects,
        n_predicted_opinions=n_pred_opinions,
        n_gold_opinions=n_gold_opinions,
    )


def make_report(rows: list[ExtractionScores]) -> EvalReport:
    """Aggregate per-product rows.

    Precision and recall average as plain means; the averaged f columns
    are recomputed from those means so the summary row stays internally
    consistent (mean-of-f generally is not the f of the means).
    """
    if not rows:
        raise ValueError("report needs at least one product row")
    n = len(rows)

    def mean(attr: str) -> float:
        return fsum(getattr(r, attr) for r in rows) / n

    averages = ExtractionScores.from_rates(
        "average", mean("aspect_p"), mean("aspect_r"), mean("opinion_p"), mean("opinion_r")
    )
    return EvalReport(per_product=tuple(rows), averages=averages)


def check_f_consistency(report: EvalReport, tolerance: float = 0.005) -> list[str]:
    """Flag rows whose stored f differs from 2pr/(p+r) beyond tolerance."""
    messages = []
    for row in list(report.per_product) + [report.averages]:
        for kind in ("aspect", "opinion"):
            stored = getattr(row, f"{kind}_f")
            computed = f_measure(getattr(row, f"{kind}_p"), getattr(row, f"{kind}_r"))
            if abs(stored - computed) > tolerance:
                messages.append(
                    f"{row.product}: {kind} f-measure {stored:.3f} differs from "
                    f"recomputed {computed:.3f}"
                )
    return messages


# Student t machinery: regularized incomplete beta via modified Lentz
# continued fraction (converges to ~1e-12 here, far inside the 1e-6 budget).

_CF_MAX_ITER = 300
_CF_EPS = 3e-12
_CF_TINY = 1e-300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log(1.0 - x)
    front = exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(
    sample_a: list[float], sample_b: list[float], two_tailed: bool = True
) -> TTestResult:
    """Paired Student t-test over equal-length samples.

    Zero-variance differences short-circuit to a degenerate result:
    p = 1 when the common difference is 0, p = 0 otherwise.  The
    one-tailed p is the upper-tail probability of the signed statistic.
    """
    if len(sample_a) != len(sample_b):
        raise ValueError("samples must have equal length")
    n = len(sample_a)
    if n < 2:
        raise ValueError("need at least two paired observations")
    diffs = [a - b for a, b in zip(sample_a, sample_b)]
    mean = fsum(diffs) / n
    variance = fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if variance == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0, two_tailed, degenerate=True)
        t = inf if mean > 0 else -inf
        return TTestResult(t, df, 0.0, two_tailed, degenerate=True)
    t = mean / sqrt(variance / n)
    if two_tailed:
        p = 2.0 * student_t_sf(abs(t), df)
    else:
        p = student_t_sf(t, df)
    return TTestResult(t, df, min(p, 1.0), two_tailed)


@dataclass(frozen=True)
class ComparisonResult:
    table: str
    t_tests: dict[str, TTestResult]
    f_mismatches: tuple[str, ...]

    def __str__(self) -> str:
        return self.table


_COMPARED_METRICS = (
    ("aspect precision", "aspect_p"),
    ("aspect recall", "aspect_r"),
    ("opinion precision", "opinion_p"),
    ("opinion recall", "opinion_r"),
)


def compare_to_baseline(report: EvalReport, baseline: EvalReport) -> ComparisonResult:
    """Side-by-side averages plus paired t-tests over per-product vectors.

    Products must cover the same set; vectors align by product name.
    T-tests need two or more products and are omitted otherwise.
    """
    mine = {r.product: r for r in report.per_product}
    theirs = {r.product: r for r in baseline.per_product}
    if set(mine) != set(theirs):
        only_a = sorted(set(mine) - set(theirs))
        only_b = sorted(set(theirs) - set(mine))
        raise ValueError(
            f"product sets differ (report only: {only_a}, baseline only: {only_b})"
        )
    products = sorted(mine)

    t_tests: dict[str, TTestResult] = {}
    if len(products) >= 2:
        for label, attr in _COMPARED_METRICS:
            a = [getattr(mine[p], attr) for p in products]
            b = [getattr(theirs[p], attr) for p in products]
            t_tests[label] = paired_t_test(a, b, two_tailed=True)

    mismatches = tuple(
        f"report {m}" for m in check_f_consistency(report)
    ) + tuple(f"baseline {m}" for m in check_f_consistency(baseline))

    lines = []
    header = f"{'':<22}{'system':<12}{'aspect':>8}{'opinion':>9}"
    lines.append(header)
    blocks = (
        ("average precision", "aspect_p", "opinion_p"),
        ("average recall", "aspect_r", "opinion_r"),
        ("average f-measure", "aspect_f", "opinion_f"),
    )
    for title, a_attr, o_attr in blocks:
        for name, rep in (("proposed", report), ("baseline", baseline)):
            label = title if name == "proposed" else ""
            lines.append(
                f"{label:<22}{name:<12}"
                f"{getattr(rep.averages, a_attr):>8.3f}"
                f"{getattr(rep.averages, o_attr):>9.3f}"
            )
    if t_tests:
        df = len(products) - 1
        lines.append(f"paired t-tests (two-tailed, df={df})")
        for label, _ in _COMPARED_METRICS:
            result = t_tests[label]
            note = "  (degenerate)" if result.degenerate else ""
            lines.append(
                f"  {label:<20}t={result.t_statistic:+.4f}  "
                f"p={result.p_value:.4f}{note}"
            )
    else:
        lines.append("paired t-tests skipped: need at least two products")
    for message in mismatches:
        lines.append(f"f-measure mismatch: {message}")
    table = "\n".join(lines) + "\n"
    return ComparisonResult(table=table, t_tests=t_tests, f_mismatches=mismatches)


_REPORT_COLUMNS = ("aspect_p", "aspect_r", "aspect_f", "opinion_p", "opinion_r", "opinion_f")


def render_report(report: EvalReport, format: str = "text") -> str:
    """Render an EvalReport; machine format round-trips via load_report."""
    if format == "machine":
        lines = ["# product\t" + "\t".join(_REPORT_COLUMNS)]
        for row in list(report.per_product) + [report.averages]:
            values = "\t".join(f"{getattr(row, c):.6f}" for c in _REPORT_COLUMNS)
            lines.append(f"{row.product}\t{values}")
        return "\n".join(lines) + "\n"
    if format == "text":
        lines = [
            f"{'product':<16}{'asp p':>8}{'asp r':>8}{'asp f':>8}"
            f"{'opi p':>8}{'opi r':>8}{'opi f':>8}"
        ]
        for row in list(report.per_product) + [report.averages]:
            values = "".join(f"{getattr(row, c):>8.3f}" for c in _REPORT_COLUMNS)
            lines.append(f"{row.product:<16}{values}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}; expected text or machine")


def load_report(path: str | Path) -> EvalReport:
    """Read a machine-format report file back into an EvalReport."""
    path = Path(path)
    rows: list[ExtractionScores] = []
    averages: ExtractionScores | None = None
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 1 + len(_REPORT_COLUMNS):
            raise ParseError(
                f"expected {1 + len(_REPORT_COLUMNS)} tab-separated fields, "
                f"got {len(parts)}",
                path=path,
                line=lineno,
            )
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=path, line=lineno) from exc
        try:
            row = ExtractionScores(parts[0], *values)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno) from exc
        if row.product == "average":
            averages = row
        else:
            rows.append(row)
    if not rows:
        raise ParseError("report has no product rows", path=path)
    if averages is None:
        return make_report(rows)
    return EvalReport(per_product=tuple(rows), averages=averages)
