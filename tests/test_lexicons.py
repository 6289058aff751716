"""Tests for opinion lexicons, the aspect dictionary and verb categories,
and for the memo every resource loader parses through.

References kept here, one per rule:

* ``scanned_match``: the longest-entry scan over every width, from
  before the first-word index (``AspectDictionary.widest``), compared
  with ``_longest_entry_at`` at every start on random dictionaries whose
  entries share first words; ``test_patterns``' staged extraction oracle
  imports it.
* ``candidate_loop``: the verb lookup through ``base_form_candidates``
  from before the per-surface memo, compared with
  ``orientation_of_surface`` on every ``-s``/``-ed``/``-ing`` form of
  every bundled verb and on random words; ``test_columnar``'s row scorer
  imports it.

The bundled verb map is checked against a scan of the file's
categories, and the bundled opinion lexicon against its seed lists: one
read-only mapping, the same object across loads of unchanged files.
"""

import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aspectminer.errors import ParseError
from aspectminer.lexicons import (
    NEGATIVE,
    POSITIVE,
    AspectDictionary,
    VerbCategoryLexicon,
    load_aspect_dictionary,
    load_opinion_lexicon,
    load_verb_categories,
)
from aspectminer.patterns import (
    PatternSet,
    _longest_entry_at,
    extract_sentences,
    load_pattern_set,
)
from aspectminer.pipeline import DEFAULT_FILES, data_dir, load_resources
from aspectminer.tagger import base_form_candidates, load_tag_lexicon, parse_pretagged


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def polarity(lex, word):
    """The orientation extraction gives ``word`` as an opinion, or None."""
    sentence = parse_pretagged(f"screen/NN is/VBZ {word}/JJ")
    pairs = extract_sentences((sentence,), AspectDictionary(), lex, PatternSet(patterns=()))
    return pairs[0].orientation if pairs else None


class TestOpinionOrientation:
    def test_polarity_classes(self):
        lex = {"good": POSITIVE, "bad": NEGATIVE}
        assert polarity(lex, "good") == POSITIVE
        assert polarity(lex, "bad") == NEGATIVE
        assert polarity(lex, "table") is None

    def test_polarity_case_insensitive(self):
        lex = {"good": POSITIVE}
        assert polarity(lex, "Good") == POSITIVE
        assert polarity(lex, "GOOD") == POSITIVE

    def test_unlisted_word_has_no_polarity(self):
        lex = {"fine": POSITIVE}
        assert polarity(lex, "fine") == POSITIVE
        assert polarity(lex, "poor") is None

    def test_load_from_files(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "; header comment\ngood\nGreat\n\nnice\n")
        neg = write(tmp_path / "neg.txt", "# header\nbad\npoor\n")
        lex = load_opinion_lexicon(pos, neg)
        assert dict(lex) == {
            "good": POSITIVE, "great": POSITIVE, "nice": POSITIVE,
            "bad": NEGATIVE, "poor": NEGATIVE,
        }

    def test_overlap_rejected(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "good\nshared\n")
        neg = write(tmp_path / "neg.txt", "bad\nshared\n")
        with pytest.raises(ParseError) as exc:
            load_opinion_lexicon(pos, neg)
        assert "shared" in str(exc.value)

    def test_overlap_listing_capped_at_twenty(self, tmp_path):
        words = [f"w{i:02d}" for i in range(30)]
        pos = write(tmp_path / "pos.txt", "\n".join(words))
        neg = write(tmp_path / "neg.txt", "\n".join(words))
        with pytest.raises(ParseError) as exc:
            load_opinion_lexicon(pos, neg)
        msg = str(exc.value)
        assert "30 word(s)" in msg
        listed = msg.rsplit(": ", 1)[-1].split(", ")
        assert len(listed) == 20

    def test_missing_file(self, tmp_path):
        pos = write(tmp_path / "pos.txt", "good\n")
        with pytest.raises(FileNotFoundError):
            load_opinion_lexicon(pos, tmp_path / "absent.txt")

    def test_bundled_lists_disjoint(self, resources):
        positive, negative = bundled_seed_words()
        assert positive and negative
        assert not (positive & negative)
        lex = resources.opinion_lexicon
        assert polarity(lex, "great") == POSITIVE
        assert polarity(lex, "poor") == NEGATIVE

    def test_bundled_lexicon_is_one_read_only_word_orientation_map(self):
        # every seed word maps to its own list's orientation and to nothing
        # else; the memo hands the same object to every load, so no caller
        # may change it
        positive, negative = bundled_seed_words()
        lex = load_resources().opinion_lexicon
        assert dict(lex) == {
            **dict.fromkeys(positive, POSITIVE), **dict.fromkeys(negative, NEGATIVE)
        }
        with pytest.raises(TypeError):
            lex["great"] = NEGATIVE
        with pytest.raises(TypeError):
            lex["brand-new"] = POSITIVE
        assert lex["great"] == POSITIVE and "brand-new" not in lex
        assert load_resources().opinion_lexicon is lex


def bundled_seed_words():
    """The words of the bundled positive and negative seed lists, read
    here without the loader: one lowercase word per non-comment line."""

    def words(resource):
        text = (data_dir() / DEFAULT_FILES[resource]).read_text(encoding="utf-8")
        return {
            line.strip().lower()
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith((";", "#"))
        }

    return words("pos_lex"), words("neg_lex")


def longest_entry_at(dictionary, words_lower, start):
    """``_longest_entry_at`` as the nearest-aspect search calls it: only
    at a word ``widest`` gives a width, with that width as the limit."""
    limit = dictionary.widest.get(words_lower[start])
    if not limit:
        return None
    return _longest_entry_at(words_lower, start, limit, dictionary.entries.get)


class TestAspectDictionary:
    def test_load_normalizes_terms(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "Battery  Life\n")
        s = write(tmp_path / "syn.txt", "battery   LIFE: Power  Cell,  juice\n")
        d = load_aspect_dictionary(f, s)
        assert d.entries == {
            "battery life": "battery life",
            "power cell": "battery life",
            "juice": "battery life",
        }

    def test_every_loaded_canonical_maps_to_itself(self, tmp_path, resources):
        f = write(tmp_path / "aspects.txt", "Battery\nsound  quality\nzoom\n")
        s = write(tmp_path / "syn.txt", "battery: cell, Power Cell\nSound Quality: audio\n")
        for d in (load_aspect_dictionary(f, s), resources.aspect_dictionary):
            assert d.entries
            assert all(d.entries[canonical] == canonical for canonical in d.entries.values())

    def test_widest(self):
        d = AspectDictionary(
            entries={"a": "a", "b c d": "b c d", "b": "b", "b c": "b", "c d": "c d"}
        )
        assert d.widest == {"a": 1, "b": 3, "c": 2}
        assert max(d.widest.values()) == 3
        assert AspectDictionary().widest == {}

    def test_longest_entry_at_prefers_longest(self):
        d = AspectDictionary(
            entries={"battery": "battery", "battery life": "battery life"}
        )
        words = ["the", "battery", "life", "rocks"]
        assert longest_entry_at(d, words, 1) == (2, "battery life")
        assert longest_entry_at(d, words, 0) is None

    def test_longest_entry_at_respects_sentence_end(self):
        d = AspectDictionary(entries={"battery life": "battery life"})
        assert longest_entry_at(d, ["battery"], 0) is None

    def test_load_canonical_terms(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\nsound quality\n")
        s = write(tmp_path / "syn.txt", "")
        d = load_aspect_dictionary(f, s)
        assert d.entries == {"battery": "battery", "sound quality": "sound quality"}

    def test_changed_term_file_is_parsed_again(self, tmp_path):
        f = tmp_path / "aspects.txt"
        s = write(tmp_path / "syn.txt", "battery: cell\n")
        first = load_aspect_dictionary(write(f, "battery\n"), s)
        changed = load_aspect_dictionary(write(f, "battery\nzoom\n"), s)
        assert "zoom" not in first.entries
        assert changed.entries["zoom"] == "zoom"
        assert changed.entries["cell"] == "battery"

    def test_load_synonyms(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: power cell, cell\n")
        d = load_aspect_dictionary(f, s)
        assert d.entries["power cell"] == "battery"
        assert d.entries["cell"] == "battery"

    def test_synonym_unknown_canonical(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "screen: display\n")
        with pytest.raises(ParseError) as exc:
            load_aspect_dictionary(f, s)
        assert "unknown canonical" in str(exc.value)

    def test_synonym_must_not_be_a_mere_synonym_target(self, tmp_path):
        # a synonym of X may not itself anchor a synonym line
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: cell\ncell: juice box\n")
        with pytest.raises(ParseError):
            load_aspect_dictionary(f, s)

    def test_conflicting_synonym(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\nscreen\n")
        s = write(tmp_path / "syn.txt", "battery: cell\nscreen: cell\n")
        with pytest.raises(ParseError) as exc:
            load_aspect_dictionary(f, s)
        assert "both" in str(exc.value)

    def test_synonym_line_without_colon(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery cell\n")
        with pytest.raises(ParseError):
            load_aspect_dictionary(f, s)

    def test_repeated_synonym_same_canonical_ok(self, tmp_path):
        f = write(tmp_path / "aspects.txt", "battery\n")
        s = write(tmp_path / "syn.txt", "battery: cell\nbattery: cell\n")
        d = load_aspect_dictionary(f, s)
        assert d.entries["cell"] == "battery"

    def test_bundled_dictionary(self, resources):
        d = resources.aspect_dictionary
        assert d.entries["battery"] == "battery"
        assert d.entries["battery life"] == "battery life"
        # synonyms fold into their canonical term
        assert d.entries["audio"] == "sound"
        assert d.entries["earbud"] == "earpiece"
        assert max(d.widest.values()) >= 2
        assert d.widest["battery"] >= 2


class TestVerbCategories:
    def test_orientation_of_surface(self):
        lex = VerbCategoryLexicon(orientations={"love": 1, "hate": -1})
        assert lex.orientation_of_surface("love") == 1
        assert lex.orientation_of_surface("hate") == -1
        assert lex.orientation_of_surface("walk") == 0

    def test_load(self, tmp_path):
        f = write(
            tmp_path / "verbs.txt",
            "praise\tpositive\tlove, adore\ncriticise\tnegative\thate\n",
        )
        lex = load_verb_categories(f)
        assert lex.orientation_of_surface("adore") == 1
        assert lex.orientation_of_surface("hate") == -1

    def test_load_rejects_bad_column_count(self, tmp_path):
        f = write(tmp_path / "verbs.txt", "praise\tpositive\n")
        with pytest.raises(ParseError):
            load_verb_categories(f)

    def test_load_rejects_unknown_orientation(self, tmp_path):
        f = write(tmp_path / "verbs.txt", "praise\tneutral\tlove\n")
        with pytest.raises(ParseError) as exc:
            load_verb_categories(f)
        assert "orientation" in str(exc.value)

    def test_load_rejects_verb_in_both_orientations(self, tmp_path):
        f = write(
            tmp_path / "verbs.txt",
            "praise\tpositive\tlove\ncriticise\tnegative\tlove\n",
        )
        with pytest.raises(ParseError) as exc:
            load_verb_categories(f)
        assert "both orientations" in str(exc.value)

    def test_bundled_categories(self, resources):
        lex = resources.verb_categories
        assert lex.orientation_of_surface("advise") == 1
        assert lex.orientation_of_surface("warn") == -1

    def test_bundled_map_matches_a_category_scan(self, resources):
        """The loaded map answers as a scan of the file's categories does."""
        categories = []  # (orientation, verbs) per category line, in file order
        for line in (data_dir() / DEFAULT_FILES["verbs"]).read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith((";", "#")):
                _, orientation, verbs = (p.strip() for p in line.split("\t"))
                categories.append((orientation, {v.strip().lower() for v in verbs.split(",")}))

        def scanned(verb):
            for orientation, verbs in categories:
                if verb in verbs:
                    return 1 if orientation == POSITIVE else -1
            return 0

        lex = resources.verb_categories
        every_verb = set().union(*(verbs for _, verbs in categories)) - {""}
        assert len(every_verb) == len(lex.orientations) > 0
        for verb in sorted(every_verb) + ["walk", "ADVISE"]:
            assert lex.orientation_of_surface(verb) == scanned(verb.lower()), verb


def scanned_match(entries, words_lower, start):
    """_longest_entry_at before the first-word index: every width up to
    the longest entry's, longest first."""
    max_words = max((term.count(" ") + 1 for term in entries), default=0)
    for n in range(min(max_words, len(words_lower) - start), 0, -1):
        canonical = entries.get(" ".join(words_lower[start : start + n]))
        if canonical is not None:
            return n, canonical
    return None


# Few distinct words, so that entries share first words and windows often
# spell an entry, its prefix or an entry of another width.
MATCH_WORDS = ["a", "b", "c", "d"]
entry_terms = st.lists(st.sampled_from(MATCH_WORDS), min_size=1, max_size=6).map(" ".join)


class TestLongestEntryAtAgainstScan:
    @given(
        st.dictionaries(entry_terms, entry_terms, max_size=12),
        st.lists(st.sampled_from(MATCH_WORDS + ["x"]), min_size=1, max_size=10),
    )
    @settings(max_examples=500, deadline=None)
    # The longest entry is not the first one with its first word.
    @example({"a": "a", "a b c d e": "a", "a b": "b"}, ["a", "b", "c", "d", "e"])
    def test_every_start_matches_as_the_scan_does(self, entries, words):
        d = AspectDictionary(entries=entries)
        for start in range(len(words)):
            assert longest_entry_at(d, words, start) == scanned_match(entries, words, start)

    def test_equality_and_repr_ignore_the_index(self):
        a = AspectDictionary(entries={"battery life": "battery life"})
        b = AspectDictionary(entries={"battery life": "battery life"})
        object.__setattr__(b, "widest", {})
        assert a == b
        assert "widest" not in repr(a)


def candidate_loop(lex, surface):
    """weight_sentence's verb lookup before the per-surface memo."""
    for base in base_form_candidates(surface):
        orientation = lex.orientations.get(base, 0)
        if orientation != 0:
            return orientation
    return 0


def verb_forms(verb):
    """The verb and its regular -s, -ed and -ing forms, both spellings of
    each where a final e, y or consonant changes."""
    forms = {verb, verb + "s", verb + "es", verb + "ed", verb + "d", verb + "ing"}
    if verb.endswith("e"):
        forms |= {verb[:-1] + "ing", verb[:-1] + "ed"}
    if verb.endswith("y"):
        forms |= {verb[:-1] + "ies", verb[:-1] + "ied"}
    forms |= {verb + verb[-1] + "ed", verb + verb[-1] + "ing"}
    return forms


class TestOrientationOfSurface:
    def test_every_form_of_every_bundled_verb(self, resources):
        lex = VerbCategoryLexicon(orientations=resources.verb_categories.orientations)
        forms = sorted(set().union(*(verb_forms(v) for v in lex.orientations)))
        forms += [f.capitalize() for f in forms]
        assert len(forms) > 100
        for _ in range(2):  # the second pass is answered from the memo
            for form in forms:
                assert lex.orientation_of_surface(form) == candidate_loop(lex, form), form

    @given(st.lists(st.text(alphabet="adeginorsvwyADE", min_size=1, max_size=9), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_random_words(self, resources, words):
        lex = resources.verb_categories
        for word in words + words:
            assert lex.orientation_of_surface(word) == candidate_loop(lex, word), word

    def test_memo_is_not_part_of_the_value(self):
        a = VerbCategoryLexicon(orientations={"love": 1})
        b = VerbCategoryLexicon(orientations={"love": 1})
        assert a.orientation_of_surface("loves") == 1
        assert a.by_surface == {"loves": 1}
        assert a == b
        assert "by_surface" not in repr(a)


# loader, its resources, and a line that makes the last file malformed
LOADERS = {
    "opinion lexicon": (load_opinion_lexicon, ("pos_lex", "neg_lex"), "good\n"),
    "dictionary with synonyms": (load_aspect_dictionary, ("aspects", "synonyms"), "sound\n"),
    "verb categories": (load_verb_categories, ("verbs",), "tell\n"),
    "pattern set": (load_pattern_set, ("patterns",), "NN:A VBZ\n"),
    "tag lexicon": (load_tag_lexicon, ("tag_lexicon",), "word\tXYZ\n"),
}


def copies(directory, resources):
    directory.mkdir()
    return [
        shutil.copyfile(data_dir() / DEFAULT_FILES[name], directory / DEFAULT_FILES[name])
        for name in resources
    ]


class TestParsedOncePerText:
    """Each loader reads its files on every call and reuses its last parse
    while their texts are unchanged, wherever the files are."""

    @pytest.mark.parametrize("loader, resources, bad", LOADERS.values(), ids=LOADERS)
    def test_same_text_at_another_path_is_the_same_object(self, tmp_path, loader, resources, bad):
        first = loader(*copies(tmp_path / "a", resources))
        assert loader(*copies(tmp_path / "b", resources)) is first

    @pytest.mark.parametrize("loader, resources, bad", LOADERS.values(), ids=LOADERS)
    def test_changed_text_is_parsed_again(self, tmp_path, loader, resources, bad):
        paths = copies(tmp_path / "a", resources)
        first = loader(*paths)
        lines = paths[-1].read_text(encoding="utf-8").splitlines(keepends=True)
        paths[-1].write_text("".join(lines[:-1]), encoding="utf-8")

        changed = loader(*paths)

        assert changed != first
        assert loader(*copies(tmp_path / "b", resources)) == first

    @pytest.mark.parametrize("loader, resources, bad", LOADERS.values(), ids=LOADERS)
    def test_failed_parse_names_its_own_path_and_keeps_the_last(
        self, tmp_path, loader, resources, bad
    ):
        good = loader(*copies(tmp_path / "good", resources))
        for name in ("a", "b"):
            paths = copies(tmp_path / name, resources)
            with open(paths[-1], "a", encoding="utf-8") as f:
                f.write(bad)
            with pytest.raises(ParseError) as exc:
                loader(*paths)
            assert exc.value.path == paths[-1]
        assert loader(*copies(tmp_path / "again", resources)) is good
