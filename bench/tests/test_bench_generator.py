"""Self-tests of the benchmark's input generator."""

import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import gen
from run import WORKLOADS, build_catalog
from aspectminer import load_resources
from aspectminer.corpus import parse_corpus_file, tokenize
from aspectminer.patterns import extract_with_options
from aspectminer.pipeline import extract_corpus, tag_corpus
from aspectminer.tagger import parse_pretagged

RAW_TWIN = {"reviews-pretagged.txt": "reviews.txt", "minieval-pretagged.txt": "minieval.txt"}


def small(name: str):
    """The named workload with few, small products, so a catalog takes milliseconds."""
    w = WORKLOADS[name]
    return replace(w, products=6, smallest=20, largest=60, open_terms=min(w.open_terms, 200))


def catalog_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        build_catalog(small(name), seed, directory)
    assert catalog_bytes(first) == catalog_bytes(second)
    inputs = lambda d: {k: v for k, v in catalog_bytes(d).items() if k.endswith((".txt", ".pos"))}
    assert inputs(first) != inputs(other)


def test_every_block_holds_the_same_skewed_sizes():
    sizes = gen.product_sizes(3 * gen.BLOCK, 20, 2000, 2.0)
    blocks = [sizes[i : i + gen.BLOCK] for i in range(0, len(sizes), gen.BLOCK)]
    assert blocks[0] == blocks[1] == blocks[2]
    assert len(set(blocks[0])) > gen.BLOCK // 2
    ordered = sorted(blocks[0])
    assert 20 <= ordered[0] and ordered[-1] <= 2000
    assert ordered[gen.BLOCK // 2] < 200  # many small products, a few large


@pytest.mark.parametrize("grounding", gen.GROUNDING, ids=lambda g: f"{g[0]}:{g[1]}")
def test_templates_agree_with_the_program_on_the_shipped_sample(grounding):
    filename, index, tagger_agrees, make = grounding
    res = load_resources()
    sentence = make(gen.bundled_vocabulary(raw_safe=False))
    line = (gen.SAMPLE / filename).read_text(encoding="utf-8").splitlines()[index]
    assert sentence.pretagged() == line
    pairs = extract_with_options(
        parse_pretagged(line), res.aspect_dictionary, res.opinion_lexicon, res.pattern_set
    )
    got = [(p.aspect_surface, p.opinion_surface, p.orientation, p.pattern_name) for p in pairs]
    assert sorted(got) == sorted(sentence.pairs)
    if tagger_agrees:
        raw = (gen.SAMPLE / RAW_TWIN[filename]).read_text(encoding="utf-8")
        text = parse_corpus_file(raw, "sample").sentences[index].raw_text
        tagged = res.tagger().tag(tokenize(text))
        assert [(t.surface, t.tag) for t in tagged.tokens] == list(sentence.tokens)


def test_tagger_reproduces_the_tags_of_raw_catalogs():
    vocabulary = gen.bundled_vocabulary(raw_safe=True)
    product = gen.make_product(vocabulary, random.Random(3), "p", 600)
    corpus = parse_corpus_file(product.corpus_text(), "p")
    tagged = tag_corpus(corpus, load_resources().tagger())
    lines = [" ".join(f"{t.surface}/{t.tag}" for t in s.tokens) for s in tagged]
    assert lines == product.pretagged_text().splitlines()


@pytest.mark.parametrize("raw_safe", [False, True])
def test_every_template_yields_the_recorded_pairs(raw_safe):
    from check import diff_pairs

    vocabulary = gen.bundled_vocabulary(raw_safe=raw_safe)
    product = gen.make_product(vocabulary, random.Random(5), "p", 1500)
    corpus = parse_corpus_file(product.corpus_text(), "p")
    tagged = [
        parse_pretagged(line, corpus.sentences[i], i)
        for i, line in enumerate(product.pretagged_text().splitlines())
    ]
    pairs = extract_corpus(tagged, load_resources())
    assert diff_pairs(product.expectation()["pairs"], pairs) == []
    hand_tagged_only = {"participle-noun"}
    expected = {
        "noun-is-adj", "noun-is-adv-adj", "plural-are-adj", "plural-are-adv", "adj-noun-pair",
        "adj-noun-of-noun", "adv-adj-infinitive", "adj-gerund", "nearest-aspect",
    }
    assert {p.pattern_name for p in pairs} == expected | (set() if raw_safe else hand_tagged_only)


def test_template_mix_and_rates_are_the_counts_of_the_shipped_sample():
    """Recount every rate gen.py takes from the sample (see its constants)."""
    res = load_resources()
    entries = gen.bundled_vocabulary(raw_safe=False).entries

    def entry(word: str):
        return entries.get(word) or entries.get(word.removesuffix("s"))

    census, signs, strengths, flags, written, adverbs, verbs, det = (Counter() for _ in range(8))
    titles = little = body = 0
    pair_surfaces: list[str] = []
    for filename, raw_name in RAW_TWIN.items():
        corpus = parse_corpus_file((gen.SAMPLE / raw_name).read_text(encoding="utf-8"), "s")
        lines = (gen.SAMPLE / filename).read_text(encoding="utf-8").splitlines()
        for line, sentence in zip(lines, corpus.sentences, strict=True):
            tagged = parse_pretagged(line)
            pairs = extract_with_options(
                tagged, res.aspect_dictionary, res.opinion_lexicon, res.pattern_set
            )
            pair_surfaces += [p.aspect_surface.lower() for p in pairs]
            if sentence.is_title:
                titles += 1
                little += "little" in sentence.raw_text.split()
                continue
            body += 1
            patterns = tuple(sorted(p.pattern_name for p in pairs))
            census[patterns, bool(sentence.gold)] += 1
            tokens = tagged.tokens
            adverbs.update(
                a.surface for a, b in zip(tokens, tokens[1:]) if (a.tag, b.tag) == ("RB", "JJ")
            )
            if patterns == ("noun-is-adj",):
                det[tokens[0].surface == "the"] += 1
                verbs[next(t.surface for t in tokens if t.tag == "VBZ")] += 1
            nouns = {t.surface for t in tagged.tokens if t.tag.startswith("NN")}
            nouns |= {n.removesuffix("s") for n in nouns}
            for g in sentence.gold:
                signs[g.strength > 0] += 1
                strengths[abs(g.strength)] += 1
                flags["".join(f"[{f}]" for f in sorted(g.flags))] += 1
                term = entry(g.aspect_term)
                synonyms = {k for k, c in entries.items() if c == term and k != term}
                if synonyms and term in nouns:
                    written["canonical"] += 1
                elif synonyms & nouns:
                    written["synonym"] += 1

    vocabulary = gen.bundled_vocabulary(raw_safe=False)
    templates: Counter = Counter()
    for name, weight, _ in gen.BODY_TEMPLATES:
        s = gen.body_sentence(vocabulary, random.Random(0), name)
        templates[tuple(sorted(p[3] for p in s.pairs)), bool(s.gold)] += weight
    assert census - templates == Counter({(("nearest-aspect",), False): 1})
    assert templates - census == Counter()

    assert body == titles * gen.BODY_LINES + 25  # minieval.txt: 25 lines, no title
    assert little / titles == gen.LITTLE_RATE
    assert adverbs == Counter(gen.ADVERBS)
    assert det[True] / sum(det.values()) == gen.NOUN_IS_ADJ_DET_RATE
    assert verbs == Counter(gen.NOUN_IS_ADJ_VERBS)
    assert signs[True] / sum(signs.values()) == gen.POSITIVE_SHARE
    assert strengths == Counter(gen.STRENGTHS)
    template_flags = Counter({"[cc]": 2, "[p]": 1})  # two_clauses, implicit
    assert flags == Counter(gen.FLAGS) + template_flags
    assert written["synonym"] / sum(written.values()) == gen.SYNONYM_RATE
    unknown = [a for a in pair_surfaces if entry(a) is None]
    assert len(unknown) / len(pair_surfaces) == gen.UNKNOWN_RATE
