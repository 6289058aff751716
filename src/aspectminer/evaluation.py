"""Scoring of extraction output against gold annotations.

Matching is per sentence.  The headline aspect metric accepts a
token-subset match in either direction (gold "battery life" matches a
predicted "battery"); exact equality is computed alongside.  Both
sides' terms are compared in the dictionary's normal form, lowercase
words joined by single spaces, which is the form extraction writes.
Opinion metrics additionally require orientation agreement with the
sign of the gold strength.

The paired t-test is two-tailed.  Its Student t tail is the exact
finite series for integer degrees of freedom, with no iteration limit
or convergence threshold; it is within 1e-12 of a continued-fraction
incomplete beta for df up to 2,000.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import atan, cos, fsum, inf, pi, sin, sqrt
from pathlib import Path

from .corpus import Corpus
from .errors import ParseError, read_text, text_lines
from .lexicons import NEGATIVE, POSITIVE, _normalize_term
from .patterns import AspectOpinionPair


@dataclass(frozen=True, slots=True)
class ExtractionScores:
    """Per-product precision/recall/f for aspect and opinion extraction.

    Slotted: a report holds one row per product, and the rows hold no
    ``__dict__``.
    """

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


def _terms_match(a: frozenset[str], b: frozenset[str]) -> bool:
    """Subset match on the terms' word sets, in either direction."""
    return a <= b or b <= a


def _ratio(matched: int, total: int) -> float:
    return matched / total if total else 0.0


# One side's items grouped by sentence: per sentence, each distinct
# normalized aspect term with the set of its orientations, held as bit
# flags, so agreement is a bitwise and and a set's size its bit count.
_Terms = dict[str, int]


def evaluate_extraction_detailed(
    predicted: list[AspectOpinionPair], gold: Corpus
) -> ExtractionBreakdown:
    """Headline subset-match metrics plus their exact-match counterparts.

    Duplicate predictions and duplicate gold items collapse before
    counting; an empty side yields 0.0 for its ratios.  Each pair must
    come from a sentence object of ``gold`` itself (its ``sentence.source``):
    a pair from any other corpus, even a second load of the same file,
    raises ValueError naming the first such pair.  That check runs
    after the pass over the corpus, from the predictions no corpus
    sentence claimed.

    Predicted items are grouped per sentence first; then one pass over
    the corpus builds one sentence's gold table at a time and compares
    each predicted item only with the gold items of its own sentence.
    The cost is linear in the number of sentences, and the memory held
    is linear in the number of sentences with predictions.  Within a
    sentence each (predicted term, gold term) pair is compared once, and
    that one comparison feeds all eight counts.  Each distinct term
    string is normalized once per call.
    """
    flags = {POSITIVE: 1, NEGATIVE: 2}  # one bit per distinct orientation
    normal: dict[str, str] = {}  # each term as written to its normal form
    # by identity: a repeated line stays two sentences, another corpus matches none
    pred_terms: dict[int, _Terms] = {}
    for pair in predicted:
        terms = pred_terms.setdefault(id(pair.sentence.source), {})
        term = normal.get(pair.aspect_surface)
        if term is None:
            term = normal[pair.aspect_surface] = _normalize_term(pair.aspect_surface)
        sign = flags.setdefault(pair.orientation, 1 << len(flags))
        terms[term] = terms.get(term, 0) | sign

    # matched predicted and gold aspects and opinions, subset and exact
    ap = ag = op = og = exact_aspects = exact_opinions = 0
    n_pred_aspects = n_gold_aspects = n_pred_opinions = n_gold_opinions = 0
    words: dict[str, frozenset[str]] = {}
    seen: set[int] = set()  # gold-carrying sentence objects already counted
    for sentence in gold.sentences:
        predictions = pred_terms.pop(id(sentence), None)
        if predictions is not None:
            n_pred_aspects += len(predictions)
            for p_signs in predictions.values():
                n_pred_opinions += p_signs.bit_count()
        if not sentence.gold or id(sentence) in seen:
            continue
        seen.add(id(sentence))
        golds: _Terms = {}
        for ann in sentence.gold:
            term = normal.get(ann.aspect_term)
            if term is None:
                term = normal[ann.aspect_term] = _normalize_term(ann.aspect_term)
            sign = flags[POSITIVE if ann.strength > 0 else NEGATIVE]
            golds[term] = golds.get(term, 0) | sign
        n_gold_aspects += len(golds)
        for g_signs in golds.values():
            n_gold_opinions += g_signs.bit_count()
        if predictions is None:
            continue
        gold_hits: _Terms = {}
        for p_term, p_signs in predictions.items():
            hit = False
            signs = 0
            for g_term, g_signs in golds.items():
                if p_term == g_term:
                    shared = p_signs & g_signs
                    exact_aspects += 1
                    exact_opinions += shared.bit_count()
                else:
                    p_words = words.get(p_term)
                    if p_words is None:
                        p_words = words[p_term] = frozenset(p_term.split())
                    g_words = words.get(g_term)
                    if g_words is None:
                        g_words = words[g_term] = frozenset(g_term.split())
                    if not _terms_match(p_words, g_words):
                        continue
                    shared = p_signs & g_signs
                hit = True
                signs |= shared
                gold_hits[g_term] = gold_hits.get(g_term, 0) | shared
            if hit:
                ap += 1
                op += signs.bit_count()
        ag += len(gold_hits)
        for g_signs in gold_hits.values():
            og += g_signs.bit_count()

    if pred_terms:
        outside = next(p for p in predicted if id(p.sentence.source) in pred_terms)
        raise ValueError(
            f"predicted pair for aspect {outside.aspect_surface!r} references "
            f"a sentence outside the gold corpus"
        )

    # an exact match pairs one predicted item with one gold item
    return ExtractionBreakdown(
        aspect_p=_ratio(ap, n_pred_aspects),
        aspect_r=_ratio(ag, n_gold_aspects),
        opinion_p=_ratio(op, n_pred_opinions),
        opinion_r=_ratio(og, n_gold_opinions),
        aspect_p_exact=_ratio(exact_aspects, n_pred_aspects),
        aspect_r_exact=_ratio(exact_aspects, n_gold_aspects),
        opinion_p_exact=_ratio(exact_opinions, n_pred_opinions),
        opinion_r_exact=_ratio(exact_opinions, n_gold_opinions),
        n_predicted_aspects=n_pred_aspects,
        n_gold_aspects=n_gold_aspects,
        n_predicted_opinions=n_pred_opinions,
        n_gold_opinions=n_gold_opinions,
    )


def make_report(rows: list[ExtractionScores]) -> EvalReport:
    """Aggregate per-product rows.

    Precision and recall average as plain means; the averaged f columns
    are recomputed from those means so the summary row stays internally
    consistent (mean-of-f generally is not the f of the means).  Each
    product must be named once, by a name its machine row reads back as.
    """
    if not rows:
        raise ValueError("report needs at least one product row")
    for name in (row.product for row in rows):
        breaks_row = "\t" in name or "\n" in name
        if breaks_row or name == "average" or name != name.strip() or name.startswith(("#", ";")):
            raise ValueError(f"report cannot name a product {name!r}: its row would not read back")
    _by_product(rows, "report")
    n = len(rows)

    def mean(attr: str) -> float:
        return fsum(getattr(r, attr) for r in rows) / n

    averages = ExtractionScores.from_rates(
        "average", mean("aspect_p"), mean("aspect_r"), mean("opinion_p"), mean("opinion_r")
    )
    return EvalReport(per_product=tuple(rows), averages=averages)


_F_TOLERANCE = 0.005


def check_f_consistency(report: EvalReport) -> list[str]:
    """Flag rows whose stored f differs from 2pr/(p+r) by more than _F_TOLERANCE."""
    messages = []
    for row in list(report.per_product) + [report.averages]:
        for kind in ("aspect", "opinion"):
            stored = getattr(row, f"{kind}_f")
            computed = f_measure(getattr(row, f"{kind}_p"), getattr(row, f"{kind}_r"))
            if abs(stored - computed) > _F_TOLERANCE:
                messages.append(
                    f"{row.product}: {kind} f-measure {stored:.3f} differs from "
                    f"recomputed {computed:.3f}"
                )
    return messages


def student_t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with df degrees of freedom.

    Exact finite series in theta = atan(t / sqrt(df)) (Abramowitz &
    Stegun 26.7.3 for odd df, 26.7.4 for even), df // 2 terms.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    theta = atan(t / sqrt(df))
    c = cos(theta) ** 2
    odd = df % 2
    term, total = 1.0, 0.0
    for j in range(df // 2):
        total += term
        term *= c * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        a = 2.0 / pi * (theta + sin(theta) * cos(theta) * total)
    else:
        a = sin(theta) * total
    # at large t rounding can leave a just above 1
    return max(0.0, (1.0 - a) / 2.0)


def paired_t_test(sample_a: list[float], sample_b: list[float]) -> TTestResult:
    """Two-tailed paired Student t-test over equal-length samples.

    Zero-variance differences short-circuit to a degenerate result:
    p = 1 when the common difference is 0, p = 0 otherwise.
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
            return TTestResult(0.0, df, 1.0, degenerate=True)
        t = inf if mean > 0 else -inf
        return TTestResult(t, df, 0.0, degenerate=True)
    t = mean / sqrt(variance / n)
    return TTestResult(t, df, min(2.0 * student_t_sf(abs(t), df), 1.0))


@dataclass(frozen=True)
class ComparisonResult:
    table: str
    t_tests: dict[str, TTestResult]
    f_mismatches: tuple[str, ...]


_COMPARED_METRICS = (
    ("aspect precision", "aspect_p"),
    ("aspect recall", "aspect_r"),
    ("opinion precision", "opinion_p"),
    ("opinion recall", "opinion_r"),
)


def _by_product(
    rows: Iterable[ExtractionScores], side: str
) -> dict[str, ExtractionScores]:
    by_product: dict[str, ExtractionScores] = {}
    for row in rows:
        if row.product in by_product:
            raise ValueError(f"{side} names product {row.product!r} twice")
        by_product[row.product] = row
    return by_product


def compare_to_baseline(report: EvalReport, baseline: EvalReport) -> ComparisonResult:
    """Side-by-side averages plus paired t-tests over per-product vectors.

    Products must cover the same set, each named once per side; vectors
    align by product name.  T-tests need two or more products and are
    omitted otherwise.
    """
    mine = _by_product(report.per_product, "report")
    theirs = _by_product(baseline.per_product, "baseline")
    if mine.keys() != theirs.keys():
        only_a = sorted(mine.keys() - theirs.keys())
        only_b = sorted(theirs.keys() - mine.keys())
        raise ValueError(
            f"product sets differ (report only: {only_a}, baseline only: {only_b})"
        )
    products = sorted(mine)

    t_tests: dict[str, TTestResult] = {}
    if len(products) >= 2:
        for label, attr in _COMPARED_METRICS:
            a = [getattr(mine[p], attr) for p in products]
            b = [getattr(theirs[p], attr) for p in products]
            t_tests[label] = paired_t_test(a, b)

    mismatches = tuple(
        f"report {m}" for m in check_f_consistency(report)
    ) + tuple(f"baseline {m}" for m in check_f_consistency(baseline))

    lines = [f"{'':<22}{'system':<12}{'aspect':>8}{'opinion':>9}"]
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
        lines.append(f"paired t-tests (two-tailed, df={len(products) - 1})")
        for label, _ in _COMPARED_METRICS:
            result = t_tests[label]
            note = "  (degenerate)" if result.degenerate else ""
            lines.append(
                f"  {label:<20}t={result.t_statistic:+.4f}  "
                f"p={result.p_value:.4f}{note}"
            )
    else:
        lines.append("paired t-tests skipped: need at least two products")
    lines.extend(f"f-measure mismatch: {message}" for message in mismatches)
    table = "\n".join(lines) + "\n"
    return ComparisonResult(table, t_tests, mismatches)


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
    rows: dict[str, ExtractionScores] = {}
    for lineno, line in text_lines(read_text(path), comments=True):
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
        if row.product in rows:
            raise ParseError(f"repeated row {row.product!r}", path=path, line=lineno)
        rows[row.product] = row
    averages = rows.pop("average", None)
    if not rows:
        raise ParseError("report has no product rows", path=path)
    if averages is None:
        try:
            return make_report(list(rows.values()))
        except ValueError as exc:
            raise ParseError(str(exc), path=path) from exc
    return EvalReport(per_product=tuple(rows.values()), averages=averages)
