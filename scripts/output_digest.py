#!/usr/bin/env python3
"""Print one md5 per benchmark workload over every output of the pipeline.

For each workload the seeded benchmark catalog is generated into a
temporary directory (with ``bench/run.py``'s ``build_catalog``; nothing
under ``bench/`` is written).  Each product is then run twice, on its
pretagged file and through the baseline tagger.  Each run extracts its
pairs once and feeds the digest with them, its sentence scores, the
three summary renders and the ``pipeline.evaluate_corpus`` breakdown,
all computed from those pairs.  Each workload's digest then takes the
``compare_to_baseline`` table of the baseline-tagged runs: each
product's headline (subset-match) scores against its exact-match
scores, paired t-tests included.  Two trees whose lines agree produce
the same outputs on these catalogs.

Usage: python scripts/output_digest.py [--seed N] [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import astuple, fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from aspectminer import pipeline, summary  # noqa: E402
from aspectminer.corpus import Corpus, load_corpus  # noqa: E402
from aspectminer.evaluation import (  # noqa: E402
    ExtractionBreakdown,
    ExtractionScores,
    compare_to_baseline,
    make_report,
)
from aspectminer.tagger import TaggedSentence  # noqa: E402

RENDER_FORMATS = ("text", "machine", "histogram")


def run_lines(
    corpus: Corpus, tagged: list[TaggedSentence], res: pipeline.Resources
) -> tuple[list[str], ExtractionScores, ExtractionBreakdown]:
    """The outputs of one tagged product, one text line each, with its
    headline row and breakdown; its pairs are extracted once."""
    pairs = pipeline.extract_corpus(tagged, res)
    lines = [
        repr(
            tuple(
                p.sentence.position if f.name == "sentence" else getattr(p, f.name)
                for f in fields(p)
            )
        )
        for p in pairs
    ]
    result, _, scores = pipeline.summarize_corpus(
        tagged, res, product_name=corpus.product_name, pairs=pairs
    )
    for s in tagged:
        score = scores[s]
        lines.append(repr((s.position, score.adjective_adverb_points, score.verb_points)))
    lines.extend(summary.render(result, fmt) for fmt in RENDER_FORMATS)
    scores, breakdown = pipeline.evaluate_corpus(corpus, pairs)
    lines.append(repr(astuple(breakdown)))
    return lines, scores, breakdown


def product_digest(
    corpus_file: Path, pretagged_file: Path | None, res: pipeline.Resources, name: str
) -> tuple[str, ExtractionScores, ExtractionBreakdown]:
    """md5 of a product's outputs, pretagged (when given) then baseline-tagged,
    with the headline row and breakdown of the baseline-tagged run."""
    corpus = load_corpus(corpus_file, name)
    runs = [pipeline.tag_corpus(corpus, res.tagger())]
    if pretagged_file is not None:
        runs.insert(0, pipeline.load_pretagged_file(pretagged_file, corpus))
    digest = hashlib.md5()
    for tagged in runs:
        lines, scores, breakdown = run_lines(corpus, tagged, res)
        for line in lines:
            digest.update(line.encode("utf-8"))
            digest.update(b"\n")
    return digest.hexdigest(), scores, breakdown


def workload_digest(build_catalog, workload, seed: int) -> str:
    """md5 over the product digests of one generated catalog, in catalog
    order, then over the catalog's subset-against-exact comparison table."""
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        catalog = Path(tmp)
        build_catalog(workload, seed, catalog)
        overrides = {
            key: catalog / f"{key}.txt"
            for key in ("aspects", "synonyms")
            if (catalog / f"{key}.txt").exists()
        }
        res = pipeline.load_resources(**overrides)
        index = json.loads((catalog / "catalog.json").read_text(encoding="utf-8"))
        digest = hashlib.md5()
        rows, exact_rows = [], []
        for entry in index["products"]:
            name = entry["name"]
            base = catalog / name
            pos = base.with_suffix(".pos")
            product, scores, b = product_digest(
                base.with_suffix(".txt"), pos if pos.exists() else None, res, name
            )
            digest.update(product.encode("ascii"))
            rows.append(scores)
            exact_rows.append(
                ExtractionScores.from_rates(
                    name, b.aspect_p_exact, b.aspect_r_exact, b.opinion_p_exact, b.opinion_r_exact
                )
            )
        table = compare_to_baseline(make_report(rows), make_report(exact_rows)).table
        digest.update(table.encode("utf-8"))
        return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(REPO / "bench"))
    import run as bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", nargs="+", choices=sorted(bench.WORKLOADS), default=list(bench.WORKLOADS)
    )
    args = parser.parse_args(argv)
    for name in args.workload:
        digest = workload_digest(bench.build_catalog, bench.WORKLOADS[name], args.seed)
        print(f"{name} seed={args.seed} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
