"""Fresh process that sets the package up and runs one workload.

Started by run.py:

    worker.py setup KIND CATALOG_DIR
    worker.py run KIND CATALOG_DIR SECONDS SPANS_PATH|-

``setup`` times ``import aspectminer`` and ``load_resources`` with the
catalog's resource files and prints both.  ``run`` does the same
set-up, then runs a closed loop (one client, one op at a time) over the
catalog's products for SECONDS and at least MIN_OPS ops, ending with a
whole block of product sizes (see gen.product_sizes), checks every
output and prints one JSON object.  After each product it times the
reference loop of speed.py.  With a SPANS_PATH every product runs
twice, untraced and traced in alternating order: the traced runs give
the per-layer numbers, the pair gives the tracing overhead.

Only ``os``, ``sys``, ``time`` and speed.py are loaded before the
package, so set-up time covers every module the package imports.
"""

import os
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
MIN_OPS = 100  # so that ten samples lie beyond p90
MAX_LOOP_S = 120.0
FORMATS = ("text", "machine", "histogram")


def resource_files(catalog: str) -> dict:
    """Resource overrides the catalog ships (the open-vocabulary dictionary)."""
    files = {}
    for key in ("aspects", "synonyms"):
        path = os.path.join(catalog, key + ".txt")
        if os.path.exists(path):
            files[key] = path
    return files


def import_package(kind: str) -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import aspectminer.pipeline

    if kind == "cli":
        import aspectminer.cli
    elapsed = time.perf_counter() - t0
    package_dir = os.path.realpath(os.path.dirname(aspectminer.__file__))
    if package_dir != os.path.realpath(os.path.join(SRC, "aspectminer")):
        raise SystemExit(f"aspectminer imported from {package_dir}, not from {SRC}")
    return elapsed


def main(argv: list[str]) -> int:
    mode, kind, catalog = argv[:3]
    import_s = import_package(kind)
    from aspectminer import pipeline

    if mode == "setup":
        t0 = time.perf_counter()
        pipeline.load_resources(**resource_files(catalog))
        load_s = time.perf_counter() - t0
        ref = speed.reference_median(5)
        print('{"import_s": %r, "load_resources_s": %r, "ref": %r}' % (import_s, load_s, ref))
        return 0
    seconds, spans_path = float(argv[3]), argv[4]
    return run(kind, catalog, seconds, None if spans_path == "-" else spans_path, import_s)


def run(kind: str, catalog: str, seconds: float, spans_path: str | None, import_s: float) -> int:
    import gc
    import json
    from contextlib import nullcontext
    from pathlib import Path
    from types import SimpleNamespace

    import aspectminer.corpus
    import aspectminer.evaluation
    import aspectminer.pipeline
    import aspectminer.summary

    import check
    from spans import Tracer, summarize_spans

    am = SimpleNamespace(
        corpus=aspectminer.corpus,
        evaluation=aspectminer.evaluation,
        pipeline=aspectminer.pipeline,
        summary=aspectminer.summary,
        cli=sys.modules.get("aspectminer.cli"),
    )
    tracer = Tracer(trace_points(am)) if spans_path else None
    with tracer.recording("pipeline.load_resources") if tracer else nullcontext():
        res = am.pipeline.load_resources(**resource_files(catalog))

    catalog_dir = Path(catalog)
    workload = KINDS[kind](am, res, catalog_dir, check)
    index = json.loads((catalog_dir / "catalog.json").read_text(encoding="utf-8"))
    products, block = index["products"], index["block"]
    attempted = failed = 0
    failures: list[str] = []

    def judge(name: str, output, problems_of) -> None:
        nonlocal attempted, failed
        attempted += 1
        if isinstance(output, Exception):
            problems = [f"raised {type(output).__name__}: {output}"]
        else:
            try:
                problems = problems_of(output)
            except Exception as exc:  # a malformed output fails the op, not the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{name}: {'; '.join(problems)}")

    def judge_op(entry, output) -> None:
        def problems_of(out):
            expect = json.loads((catalog_dir / (entry["name"] + ".json")).read_text("utf-8"))
            return workload.check(expect, entry, out)

        judge(entry["name"], output, problems_of)

    def timed(call, scope):
        """Wall time of the calls into the package, and their output.

        A full collection first, untimed, so that the op pays for the
        collections its own allocations trigger and not for garbage an
        earlier op left behind.
        """
        gc.collect()
        t0 = time.perf_counter()
        try:
            with scope:
                output = call()
        except Exception as exc:  # an op that raises is a failed op
            output = exc
        return time.perf_counter() - t0, output

    largest = max(products, key=lambda e: e["sentences"])
    judge_op(largest, timed(lambda: workload.run(largest), nullcontext())[1])  # warm-up

    traced_s = untraced_s = 0.0
    durations: list[float] = []
    refs: list[float] = []  # reference loop time after each op slot
    sentences = 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and i >= MIN_OPS and i % block == 0
        if done or elapsed >= max(seconds, MAX_LOOP_S):
            break
        entry = products[i % len(products)]
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order if tracer else (False,):
            scope = tracer.recording("op", op=i) if traced else nullcontext()
            took, output = timed(lambda: workload.run(entry), scope)
            judge_op(entry, output)
            if traced:
                traced_s += took
            else:
                untraced_s += took
                durations.append(took)
        refs.append(speed.reference_time())
        sentences += entry["sentences"]
        i += 1

    report_s = 0.0
    if workload.finishes:
        scope = tracer.recording("evaluation.report") if tracer else nullcontext()
        report_s, output = timed(workload.finish, scope)
        judge("report", output, workload.check_finish)
        refs.append(speed.reference_time())

    result = {
        "import_s": import_s,
        "durations": durations,
        "refs": refs,
        "sentences": sentences,
        "report_s": report_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer:
        tracer.write(spans_path)
        result.update(
            spans=summarize_spans(tracer.spans),
            counts=dict(tracer.counts, **tracer.gauges),
            overhead_share=traced_s / untraced_s - 1.0,
            traced_ops=i,
        )
    print(json.dumps(result))
    return 0


def peak_rss_kb() -> int:
    """This process's peak resident set in kB (VmHWM).

    Not ``ru_maxrss``: on Linux, exec folds the peak of the process that
    started this one into it, so it reads run.py's peak whenever that is
    the larger.  VmHWM belongs to the address space exec made.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Summarize:
    """load_corpus + load_pretagged_file -> summarize_corpus -> render x3."""

    finishes = False

    def __init__(self, am, res, catalog, check):
        self.am, self.res, self.catalog, self.checks = am, res, catalog, check

    def run(self, entry):
        name = entry["name"]
        base = self.catalog / name
        corpus = self.am.corpus.load_corpus(base.with_suffix(".txt"), name)
        tagged = self.am.pipeline.load_pretagged_file(base.with_suffix(".pos"), corpus)
        summary, groups, _ = self.am.pipeline.summarize_corpus(tagged, self.res, product_name=name)
        renders = {fmt: self.am.summary.render(summary, fmt) for fmt in FORMATS}
        return summary, groups, renders

    def check(self, expect, entry, output):
        return self.checks.check_summary(expect, *output)


class Evaluate:
    """load_corpus -> tag_corpus -> extract_corpus -> evaluate_extraction_detailed
    per product; the report and compare_to_baseline over all products at the end.

    The baseline system for the t-tests is the exact-match scoring of
    the same extraction.
    """

    finishes = True

    def __init__(self, am, res, catalog, check):
        self.am, self.res, self.catalog, self.checks = am, res, catalog, check
        self.rows: list = []
        self.exact_rows: list = []

    def _scores(self, label, ap, ar, op, orc):
        ev = self.am.evaluation
        return ev.ExtractionScores(
            label, ap, ar, ev.f_measure(ap, ar), op, orc, ev.f_measure(op, orc)
        )

    def run(self, entry):
        name = entry["name"]
        corpus = self.am.corpus.load_corpus(self.catalog / (name + ".txt"), name)
        tagged = self.am.pipeline.tag_corpus(corpus, self.res.tagger())
        pairs = self.am.pipeline.extract_corpus(tagged, self.res)
        b = self.am.evaluation.evaluate_extraction_detailed(pairs, corpus)
        label = f"{name}#{len(self.rows)}"
        self.rows.append(self._scores(label, b.aspect_p, b.aspect_r, b.opinion_p, b.opinion_r))
        self.exact_rows.append(
            self._scores(
                label, b.aspect_p_exact, b.aspect_r_exact, b.opinion_p_exact, b.opinion_r_exact
            )
        )
        return pairs, b

    def check(self, expect, entry, output):
        return self.checks.check_evaluation(expect, *output)

    def check_finish(self, output):
        return self.checks.check_report(*output, len(self.rows))

    def finish(self):
        ev = self.am.evaluation
        report = ev.make_report(self.rows)
        ev.render_report(report, "text")
        comparison = ev.compare_to_baseline(report, ev.make_report(self.exact_rows))
        return report, comparison


class CliBatch:
    """One in-process ``cli.main`` per product, summarize or evaluate.

    Each call writes a new output file: rewriting one truncated file
    makes ext4 flush it to disk on close, which would time the disk.
    """

    finishes = False

    def __init__(self, am, res, catalog, check):
        self.am, self.catalog, self.checks = am, catalog, check
        self.config = str(catalog / "config.json")
        self.calls = 0

    def _out(self):
        return self.catalog / f"cli-out-{self.calls}.txt"

    def run(self, entry):
        self.calls += 1
        base = str(self.catalog / entry["name"])
        common = ["--config", self.config, "--out", str(self._out())]
        if entry["command"] == "summarize":
            argv = ["summarize", "--pretagged", base + ".pos", "--product", entry["name"]]
            argv += ["--format", entry["format"]]
        else:
            argv = ["evaluate", "--corpus", base + ".txt", "--format", "machine"]
        return self.am.cli.main(argv + common)

    def check(self, expect, entry, code):
        out = self._out()
        try:
            if code != 0:
                return [f"exit code {code}"]
            if entry["command"] == "summarize":
                text = out.read_text(encoding="utf-8")
                return self.checks.check_rendered(expect, entry["format"], text)
            return self.checks.check_cli_evaluate(expect, out)
        finally:
            out.unlink(missing_ok=True)


KINDS = {"summarize": Summarize, "evaluate": Evaluate, "cli": CliBatch}


# Counters run after the traced call returns: counter(tracer, args, result).


def _sentences(tracer, args, corpus):
    tracer.counts["corpus.sentences"] += len(corpus.sentences)


def _tokens(tracer, args, tagged):
    tracer.counts["tagger.tokens"] += sum(len(s.tokens) for s in tagged)


def _pairs(tracer, args, pairs):
    tracer.counts["patterns.pairs"] += len(pairs)
    tracer.counts["patterns.fallback"] += sum(p.pattern_name == "nearest-aspect" for p in pairs)


def _groups(tracer, args, groups):
    tracer.counts["grouping.surfaces"] += len({p.aspect_surface.lower() for p in args[0]})
    tracer.counts["grouping.groups"] += len(groups)


def _items(tracer, args, b):
    tracer.counts["evaluation.pred_items"] += b.n_predicted_aspects + b.n_predicted_opinions
    tracer.counts["evaluation.gold_items"] += b.n_gold_aspects + b.n_gold_opinions


def _entries(tracer, args, dictionary):
    tracer.gauges["lexicons.dictionary_entries"] = len(dictionary.entries)


def trace_points(am) -> list[tuple]:
    """Every call into the package the workloads make, directly or through
    ``summarize_corpus``, ``load_resources`` and ``cli.main``."""
    pl = am.pipeline
    points = [
        (am.corpus, "load_corpus", "corpus.parse", _sentences),
        (pl, "load_pretagged_file", "tagger.pretagged", _tokens),
        (pl, "tag_corpus", "tagger.tag", _tokens),
        (pl, "extract_corpus", "patterns.extract", _pairs),
        (pl, "group_aspects", "grouping.group", _groups),
        (pl, "score_sentences", "scoring.score", None),
        (pl, "generate_summary", "summary.generate", None),
        (pl, "summarize_corpus", "pipeline.summarize", None),
        (pl, "evaluate_extraction_detailed", "evaluation.match", _items),
        (pl, "load_opinion_lexicon", "lexicons.load", None),
        (pl, "load_aspect_dictionary", "lexicons.load", _entries),
        (pl, "load_verb_categories", "lexicons.load", None),
        (pl, "load_pattern_set", "patterns.load", None),
        (pl, "load_tag_lexicon", "tagger.lexicon_load", None),
        (am.summary, "render", "summary.render", None),
        (am.evaluation, "evaluate_extraction_detailed", "evaluation.match", _items),
    ]
    if am.cli is not None:
        cli = am.cli
        points += [
            (cli, "main", "cli.main", None),
            (cli, "load_resources", "pipeline.load_resources", None),
            (cli, "load_corpus", "corpus.parse", _sentences),
            (cli, "load_pretagged_file", "tagger.pretagged", _tokens),
            (cli, "tag_corpus", "tagger.tag", _tokens),
            (cli, "summarize_corpus", "pipeline.summarize", None),
            (cli, "evaluate_corpus", "pipeline.evaluate", None),
            (cli, "render", "summary.render", None),
            (cli, "make_report", "evaluation.report", None),
            (cli, "render_report", "evaluation.report", None),
        ]
    return points


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
