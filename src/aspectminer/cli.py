"""Command-line interface.

Commands mirror the pipeline stages: ``tag`` emits pretagged lines,
``mine`` reports frequent tag sequences, ``extract`` lists aspect/opinion
pairs, ``summarize`` renders the pros/cons report, and ``evaluate``
scores extraction against gold annotations.
One parser takes the command as a positional and every flag, before or
after it; ``_COMMANDS`` is the one table keyed by command name, and it
names the input each command needs.  ``main`` checks that input, loads
the resources and reads and tags every input file once, on one path for
every command, before the command computes and renders its output.

Exit codes: 0 success, 2 missing input or resource file (path named),
3 malformed content (bad bytes, lines or config values, path named),
1 any other error, such as a usage error (unknown flag or bad flag
value), an input file without sentences, a file that exists but cannot
be read or an output path that cannot be written.  A JSON config file
can seed any flag; explicit command-line flags win.

``main`` may be called many times in one process.  The parser depends
only on this module, so it is built once, on first use.  Every input,
config and resource file is read on each call; a resource file whose
text is unchanged since the last call reuses that call's parse, which
depends only on the text.

Unlike ``pipeline``, this module imports the evaluation stage eagerly,
because the bench tracer patches ``make_report`` and ``render_report``
here by name; that lasts until the bench traces through a collector
(ROADMAP item 6).  Extraction is called as ``pipeline.extract_corpus``,
through the module, because the tracer patches that name in
``pipeline`` only.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

from . import pipeline
from .corpus import Corpus, load_corpus
from .errors import AspectMinerError, ParseError, read_text
from .evaluation import (
    compare_to_baseline,
    load_report,
    make_report,
    render_report,
)
from .patterns import MAX_PATTERN_LEN, MIN_PATTERN_LEN, AspectOpinionPair, mine_frequent_tag_sets
from .pipeline import (
    DEFAULT_FILES,
    Resources,
    evaluate_corpus,
    load_pretagged_file,
    load_resources,
    summarize_corpus,
    tag_corpus,
)
from .summary import FORMATS, render
from .tagger import TaggedSentence, render_pretagged

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_FILE = 2
EXIT_PARSE_ERROR = 3

_PATH_FIELDS = (*DEFAULT_FILES, "baseline")


def _option(help: str, default=None, flag: str | None = None):
    """A ``RunConfig`` field with its default and its flag's help line;
    ``flag`` names the flag when it is not the field name with dashes."""
    metadata = {"help": help, "flag": flag}
    if isinstance(default, list):
        return field(default_factory=list, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Everything one command invocation needs.

    Each field is one flag and one config key, in ``--help`` order; its
    type sets how the flag parses and which JSON values the key takes.
    """

    corpus: list[str] = _option("review corpus file (repeatable)", [])
    pretagged: list[str] = _option("pretagged word/TAG file (repeatable)", [])
    patterns: str | None = _option("tag pattern file")
    pos_lex: str | None = _option("positive opinion word list")
    neg_lex: str | None = _option("negative opinion word list")
    aspects: str | None = _option("aspect dictionary file")
    synonyms: str | None = _option("aspect synonym file")
    verbs: str | None = _option("verb category file")
    tag_lexicon: str | None = _option("word/TAG lexicon")
    product: str | None = _option("product name in the summarize header")
    top_k: int = _option("sentences per pros/cons list", 3)
    min_support: int = _option("mining support", 2)
    max_len: int = _option("longest mined tag sequence", 6)
    format: str = _option("output format; the command must render it", "text")
    out: str = _option("output path, or 'stdout'", "stdout")
    baseline: str | None = _option("machine-format report to compare against")
    enable_fallback_search: bool = _option(
        "nearest-aspect fallback for unclaimed opinion words", True, "--fallback"
    )
    enable_conjunction_expand: bool = _option(
        "copy pairs across coordinating conjunctions", True, "--conjunction"
    )

    def validate(self) -> None:
        if self.top_k < 1:
            raise ValueError("top-k must be >= 1")
        if self.min_support < 1:
            raise ValueError("min-support must be >= 1")
        if not MIN_PATTERN_LEN <= self.max_len <= MAX_PATTERN_LEN:
            raise ValueError(
                f"max-len must be {MIN_PATTERN_LEN}..{MAX_PATTERN_LEN}, got {self.max_len}"
            )
        for path in list(self.corpus) + list(self.pretagged):
            if not os.path.isfile(path):
                raise FileNotFoundError(path)
        for name in _PATH_FIELDS:
            value = getattr(self, name)
            if value is not None and not os.path.isfile(value):
                raise FileNotFoundError(value)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _is_instance(value, hint) -> bool:
    """isinstance against a field's type; a bool is no int here."""
    if hint == list[str]:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def _load_config_file(path: str, formats: tuple[str, ...]) -> dict:
    """Config values checked against the ``RunConfig`` field types and
    ``format`` against the ``formats`` the command renders."""
    raw = read_text(path)
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, and so is an integer longer than
        # int()'s digit limit; nesting past the recursion limit is neither
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object", path=path)
    unknown = data.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise ParseError(
            f"unknown config key(s): {', '.join(sorted(unknown))}", path=path
        )
    for key in ("corpus", "pretagged"):
        if key in data and isinstance(data[key], str):
            data[key] = [data[key]]
    for key, value in data.items():
        hint = _FIELD_TYPES[key]
        if not _is_instance(value, hint):
            # Python 3.10 counts list[str] as an instance of type; only a class
            # has type as its type
            expected = hint.__name__ if type(hint) is type else str(hint)
            raise ParseError(
                f"config key {key!r} must be {expected}, got {json.dumps(value)}",
                path=path,
            )
    if data.get("format", formats[0]) not in formats:
        raise ParseError(
            f"config key 'format' must be one of {', '.join(formats)}, "
            f"got {json.dumps(data['format'])}",
            path=path,
        )
    return data


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values with explicit flags (flags win)."""
    values: dict = {}
    if args.config:
        values.update(_load_config_file(args.config, _COMMANDS[args.command].formats))
    for name in _FIELD_TYPES:
        flag_value = getattr(args, name)
        if flag_value is not None:
            values[name] = flag_value
    return RunConfig(**values)


def _resources(config: RunConfig) -> Resources:
    return load_resources(**{name: getattr(config, name) for name in DEFAULT_FILES})


def _require_sentences(sentences, path: str) -> None:
    if not sentences:
        raise ValueError(f"empty input: no sentences in {path}")


_Inputs = list[tuple[Corpus | None, list[TaggedSentence]]]


def _tagged_inputs(config: RunConfig, res: Resources) -> _Inputs:
    """Each input file's corpus (None for a pretagged file given alone)
    and tagged sentences.

    Pretagged files are used when given, each aligned line by line with
    its corpus file when both kinds are given; otherwise the baseline
    tagger tags each corpus.  Sentence positions run on across files.
    """
    corpora: list[Corpus | None] = []
    for path in config.corpus:
        corpus = load_corpus(path)
        _require_sentences(corpus.sentences, path)
        corpora.append(corpus)
    inputs = []
    start = 0
    if config.pretagged:
        if not corpora:
            corpora = [None] * len(config.pretagged)
        elif len(corpora) != len(config.pretagged):
            raise ValueError(
                f"{len(config.pretagged)} pretagged file(s) for "
                f"{len(corpora)} corpus file(s)"
            )
        for path, corpus in zip(config.pretagged, corpora):
            tagged = load_pretagged_file(path, corpus, start=start)
            _require_sentences(tagged, path)
            inputs.append((corpus, tagged))
            start += len(tagged)
    else:
        tagger = res.tagger()
        for corpus in corpora:
            inputs.append((corpus, tag_corpus(corpus, tagger, start=start)))
            start += len(corpus.sentences)
    return inputs


def _sentences(inputs: _Inputs) -> list[TaggedSentence]:
    return [sentence for _, tagged in inputs for sentence in tagged]


def _write_output(text: str, out: str) -> None:
    if out == "stdout":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise AspectMinerError(f"cannot write {out or repr(out)}: {exc.strerror}") from exc


def _cmd_tag(config: RunConfig, res: Resources, inputs: _Inputs) -> str:
    return "".join(render_pretagged(sentence) + "\n" for sentence in _sentences(inputs))


def _cmd_mine(config: RunConfig, res: Resources, inputs: _Inputs) -> str:
    mined = mine_frequent_tag_sets(_sentences(inputs), config.min_support, config.max_len)
    if config.format == "machine":
        lines = ["# tags\tsupport\tratio"]
        lines.extend(
            f"{' '.join(m.tags)}\t{m.support}\t{m.support_ratio:.6f}" for m in mined
        )
    else:
        lines = [
            f"{' '.join(m.tags)}  support={m.support} ({m.support_ratio:.1%})"
            for m in mined
        ] or ["no frequent tag sequences"]
    return "\n".join(lines) + "\n"


def _pairs(
    config: RunConfig, res: Resources, tagged: list[TaggedSentence]
) -> list[AspectOpinionPair]:
    """The pairs of ``tagged``, extracted with the run's options."""
    return pipeline.extract_corpus(
        tagged,
        res,
        fallback=config.enable_fallback_search,
        conjunction=config.enable_conjunction_expand,
    )


def _cmd_extract(config: RunConfig, res: Resources, inputs: _Inputs) -> str:
    pairs = _pairs(config, res, _sentences(inputs))
    if config.format == "machine":
        lines = ["# sentence_id\taspect\topinion\tpolarity\tpattern"]
        lines.extend(
            f"{p.sentence.position}\t{p.aspect_surface}\t{p.opinion_surface}"
            f"\t{p.orientation}\t{p.pattern_name}"
            for p in pairs
        )
        return "\n".join(lines) + "\n"
    if not pairs:
        return "no pairs extracted\n"
    lines = [
        f"[{p.sentence.position}] {p.aspect_surface}: {p.opinion_surface}"
        f" ({p.orientation}, {p.pattern_name})"
        for p in pairs
    ]
    return "\n".join(lines) + "\n"


def _cmd_summarize(config: RunConfig, res: Resources, inputs: _Inputs) -> str:
    tagged = _sentences(inputs)
    summary, _, _ = summarize_corpus(
        tagged,
        res,
        top_k=config.top_k,
        product_name=config.product or Path((config.corpus or config.pretagged)[0]).stem,
        pairs=_pairs(config, res, tagged),
    )
    return render(summary, config.format)


def _cmd_evaluate(config: RunConfig, res: Resources, inputs: _Inputs) -> str:
    rows = []
    breakdowns = []
    for corpus, tagged in inputs:
        scores, breakdown = evaluate_corpus(corpus, _pairs(config, res, tagged))
        rows.append(scores)
        breakdowns.append(breakdown)
    report = make_report(rows)
    text = render_report(report, config.format)
    if config.format == "text":
        exact_lines = [
            f"{row.product}: exact-match aspect p={b.aspect_p_exact:.3f} "
            f"r={b.aspect_r_exact:.3f}, opinion p={b.opinion_p_exact:.3f} "
            f"r={b.opinion_r_exact:.3f}"
            for row, b in zip(rows, breakdowns)
        ]
        text += "\n".join(exact_lines) + "\n"
    if config.baseline:
        baseline = load_report(config.baseline)
        comparison = compare_to_baseline(report, baseline)
        text += comparison.table
    return text


class _Command(NamedTuple):
    run: Callable[[RunConfig, Resources, _Inputs], str]
    formats: tuple[str, ...]  # the output formats it renders; the first is the default
    help: str
    # the error when --corpus is missing; empty when --pretagged alone will do
    needs_corpus: str = ""


_COMMANDS = {
    "tag": _Command(
        _cmd_tag, ("text",), "tokenize and tag a review corpus", "tag needs --corpus"
    ),
    "mine": _Command(_cmd_mine, ("text", "machine"), "mine frequent tag sequences"),
    "extract": _Command(_cmd_extract, ("text", "machine"), "extract aspect/opinion pairs"),
    "summarize": _Command(_cmd_summarize, FORMATS, "render the pros/cons summary"),
    "evaluate": _Command(
        _cmd_evaluate,
        ("text", "machine"),
        "score extraction against gold annotations",
        "evaluate needs --corpus with gold annotations",
    ),
}


# how a field of each type parses as a flag; every flag defaults to None,
# so build_config can tell a flag given from one left out
_FLAG_KINDS = {
    int: {"type": int},
    bool: {"action": argparse.BooleanOptionalAction},
    list[str]: {"action": "append", "metavar": "PATH"},
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file seeding any flag")
    for f in fields(RunConfig):
        flag = f.metadata["flag"] or "--" + f.name.replace("_", "-")
        kind = _FLAG_KINDS.get(f.type, {})
        if f.name == "format":
            kind = {"choices": FORMATS}
        parser.add_argument(flag, dest=f.name, help=f.metadata["help"], **kind)


class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own 2 means a missing file here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    width = max(map(len, _COMMANDS)) + 2
    parser = _ArgumentParser(
        prog="aspectminer",
        description="Aspect-based pros/cons mining of customer reviews",
        epilog="commands:\n" + "".join(
            f"  {name:<{width}}{command.help}\n" for name, command in _COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="the pipeline stage to run")
    _add_common_flags(parser)
    return parser


# parse_args leaves the parser as it was, so main can reuse one
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    if args.format not in (None, *command.formats):
        parser.error(
            f"argument --format: invalid choice: {args.format!r} "
            f"(choose from {', '.join(map(repr, command.formats))})"
        )
    try:
        config = build_config(args)
        config.validate()
        if not config.corpus and (command.needs_corpus or not config.pretagged):
            raise ValueError(command.needs_corpus or "no input: pass --corpus or --pretagged")
        res = _resources(config)
        output = command.run(config, res, _tagged_inputs(config, res))
        _write_output(output, config.out)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.args[0] or repr(exc.args[0])}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (AspectMinerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
