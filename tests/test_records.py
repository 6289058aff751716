"""The records against plain generated-dataclass twins.

``ReviewSentence``, ``GoldAnnotation``, ``TaggedSentence``,
``AspectOpinionPair``, ``SentenceScore``, ``AspectGroup`` and
``SummaryGroup`` are declared ``@record``
(:func:`aspectminer._records.record`): frozen slotted dataclasses whose
``__init__`` is compiled from the field list to store each argument
through its slot's setter.  Each twin below is the plain
``@dataclass(frozen=True, slots=True)`` declaration of the same fields
under the same name, so constructors, errors, signatures, equality,
hashing and reprs can be compared one to one.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, astuple, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectminer import corpus, grouping, patterns, scoring, summary, tagger


@dataclass(frozen=True, slots=True)
class GoldAnnotation:
    aspect_term: str
    strength: int
    flags: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class ReviewSentence:
    raw_text: str
    gold: tuple[GoldAnnotation, ...] = ()
    is_title: bool = False


@dataclass(frozen=True, slots=True)
class TaggedSentence:
    surfaces: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    source: ReviewSentence | None = None
    position: int = 0

    def __hash__(self) -> int:
        return hash((self.position, self.surfaces))


@dataclass(frozen=True, slots=True)
class AspectOpinionPair:
    aspect_surface: str
    opinion_surface: str
    orientation: str
    sentence: TaggedSentence
    aspect_index: int
    opinion_index: int
    pattern_name: str
    aspect_end: int


@dataclass(frozen=True, slots=True)
class SentenceScore:
    sentence: TaggedSentence
    adjective_adverb_points: int
    verb_points: int


@dataclass(frozen=True, slots=True)
class AspectGroup:
    """One group of co-referring aspect surfaces, held as the pairs that name them."""

    canonical_label: str
    pairs: tuple[AspectOpinionPair, ...]


@dataclass(frozen=True, slots=True)
class SummaryGroup:
    label: str
    positive_count: int
    negative_count: int
    pros: tuple[SentenceScore, ...]
    cons: tuple[SentenceScore, ...]


TWINS = {
    corpus.GoldAnnotation: GoldAnnotation,
    corpus.ReviewSentence: ReviewSentence,
    tagger.TaggedSentence: TaggedSentence,
    patterns.AspectOpinionPair: AspectOpinionPair,
    scoring.SentenceScore: SentenceScore,
    grouping.AspectGroup: AspectGroup,
    summary.SummaryGroup: SummaryGroup,
}
RECORDS = list(TWINS)

words = st.text(max_size=4)
small = st.integers(-3, 3)
gold = st.builds(
    corpus.GoldAnnotation, words, small, st.frozensets(words, max_size=2)
)
source = st.builds(
    corpus.ReviewSentence, words, st.lists(gold, max_size=2).map(tuple), st.booleans()
)
tagged = st.builds(
    tagger.TaggedSentence, st.lists(words, max_size=3).map(tuple),
    st.lists(words, max_size=3).map(tuple), st.none() | source, small,
)
pair = st.builds(
    patterns.AspectOpinionPair, words, words, words, tagged, small, small, words, small
)
score = st.builds(scoring.SentenceScore, tagged, small, small)
# One strategy per field type; the records share values, so equal draws
# are common enough to test equality both ways.
FIELD_VALUES = {
    "str": words,
    "int": small,
    "bool": st.booleans(),
    "frozenset[str]": st.frozensets(words, max_size=2),
    "tuple[str, ...]": st.lists(words, max_size=3).map(tuple),
    "tuple[GoldAnnotation, ...]": st.lists(gold, max_size=2).map(tuple),
    "ReviewSentence | None": st.none() | source,
    "TaggedSentence": tagged,
    "tuple[AspectOpinionPair, ...]": st.lists(pair, max_size=2).map(tuple),
    "tuple[SentenceScore, ...]": st.lists(score, max_size=2).map(tuple),
}


def field_values(record):
    return st.tuples(*(FIELD_VALUES[f.type] for f in fields(record)))


def construct(cls, values, style):
    """Build ``cls`` positionally, by keyword, or leaving out trailing defaults."""
    names = [f.name for f in fields(cls)]
    if style == "positional":
        return cls(*values)
    if style == "keyword":
        return cls(**dict(zip(names, values)))
    required = sum(f.default is MISSING for f in fields(cls))
    return cls(*values[:required])


def outcome(call):
    try:
        return ("ok", call())
    except TypeError as exc:
        return ("TypeError", str(exc))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
class TestRecordMatchesTwin:
    def test_declaration(self, record):
        twin = TWINS[record]
        assert record.__qualname__ == twin.__qualname__
        assert [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
                for f in fields(record)] == [
            (f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
            for f in fields(twin)
        ]
        assert inspect.signature(record) == inspect.signature(twin)
        assert str(inspect.signature(record)) == str(inspect.signature(twin))
        assert record.__slots__ == twin.__slots__
        assert record.__match_args__ == twin.__match_args__
        assert record.__dataclass_params__.frozen and record.__dataclass_params__.eq

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_construction_eq_hash_repr(self, record, data):
        twin = TWINS[record]
        a, b = data.draw(field_values(record)), data.draw(field_values(record))
        for style in ("positional", "keyword", "defaults"):
            ra, ta = construct(record, a, style), construct(twin, a, style)
            rb, tb = construct(record, b, style), construct(twin, b, style)
            assert astuple(ra) == astuple(ta)
            assert repr(ra) == repr(ta)
            assert hash(ra) == hash(ta)
            assert (ra == rb) == (ta == tb)
            assert (ra != rb) == (ta != tb)
            assert ra == construct(record, a, style)
            assert ra != ta

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_replace_copy_pickle(self, record, data):
        values = data.draw(field_values(record))
        rec = record(*values)
        names = [f.name for f in fields(record)]
        for name, value in zip(names, data.draw(field_values(record))):
            changed = replace(rec, **{name: value})
            assert type(changed) is record
            assert getattr(changed, name) == value
            assert [getattr(changed, n) for n in names if n != name] == [
                getattr(rec, n) for n in names if n != name
            ]
        assert copy.copy(rec) == rec
        assert copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec

    def test_bad_calls_raise_the_same_type_error(self, record):
        twin = TWINS[record]
        names = [f.name for f in fields(record)]
        values = [object()] * len(names)
        calls = [
            lambda cls: cls(),
            lambda cls: cls(*values[:1]),
            lambda cls: cls(*values, object()),
            lambda cls: cls(*values, **{names[0]: 1}),
            lambda cls: cls(*values, unknown=1),
            lambda cls: cls(**dict(zip(names[1:], values))),
            lambda cls: cls(*values[:-1], **{names[0]: 1}),
        ]
        for call in calls:
            got, want = outcome(lambda: call(record)), outcome(lambda: call(twin))
            if want[0] == "ok":
                assert got[0] == "ok"
            else:
                assert got == want

    def test_frozen_without_dict(self, record):
        rec = record(*([0] * len(fields(record))))
        assert not hasattr(rec, "__dict__")
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, f.name, 1)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, f.name)
            assert getattr(rec, f.name) == 0
        # a name that is not a field is refused the same way
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'extra'"):
            rec.extra = 1
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'extra'"):
            del rec.extra


@pytest.mark.parametrize("record_cls", RECORDS, ids=lambda r: r.__name__)
def test_init_stores_each_field_through_its_slot_setter(record_cls):
    # The generated dataclass __init__ looks up object.__setattr__ and
    # the field names; the slot-setter one names only its setters.
    code = record_cls.__init__.__code__
    assert code.co_names == tuple(f"_set_{f.name}" for f in fields(record_cls))


@pytest.mark.parametrize(
    "record_cls",
    [corpus.ReviewSentence, scoring.SentenceScore, summary.SummaryGroup],
    ids=lambda r: r.__name__,
)
def test_record_without_docstring_is_documented_by_its_signature(record_cls):
    # @record hands dataclass a placeholder doc, so dataclass builds none,
    # and writes the doc from the signature of the __init__ it installs
    assert record_cls.__doc__ == TWINS[record_cls].__doc__
