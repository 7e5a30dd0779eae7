"""Property-based QTI round-trip tests over generated items."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cognition import CognitionLevel
from repro.items.choice import MultipleChoiceItem
from repro.items.completion import BLANK_MARKER, CompletionItem
from repro.items.matching import MatchItem
from repro.items.qti import item_from_qti_xml, item_to_qti_xml
from repro.items.truefalse import TrueFalseItem

# XML-safe text: printable, no control characters; strip() non-empty
_safe_text = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=0x2FFF, blacklist_characters="\x7f"
    ),
    min_size=1,
    max_size=60,
).filter(lambda s: s.strip() == s and s)

_identifier = st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,15}", fullmatch=True)


@st.composite
def choice_items(draw):
    option_count = draw(st.integers(min_value=2, max_value=6))
    texts = draw(
        st.lists(_safe_text, min_size=option_count, max_size=option_count,
                 unique=True)
    )
    return MultipleChoiceItem.build(
        draw(_identifier),
        draw(_safe_text),
        texts,
        correct_index=draw(st.integers(min_value=0, max_value=option_count - 1)),
        hint=draw(st.one_of(st.just(""), _safe_text)),
        subject=draw(st.one_of(st.just(""), _safe_text)),
        cognition_level=draw(
            st.one_of(st.none(), st.sampled_from(list(CognitionLevel)))
        ),
    )


@st.composite
def match_items(draw):
    premises = draw(st.lists(_safe_text, min_size=2, max_size=5, unique=True))
    options = draw(
        st.lists(_safe_text, min_size=len(premises), max_size=6, unique=True)
    )
    key = {
        premise: draw(st.sampled_from(options)) for premise in premises
    }
    item = MatchItem(
        item_id=draw(_identifier),
        question=draw(_safe_text),
        premises=premises,
        options=options,
        key=key,
    )
    item.validate()
    return item


@st.composite
def completion_items(draw):
    stem_parts = draw(st.lists(_safe_text, min_size=2, max_size=5))
    question = BLANK_MARKER.join(stem_parts)
    # a part that starts or ends with "_" (or holds the marker) adds
    # blanks, so draw one answer list per blank of the joined stem
    accepted = [
        draw(st.lists(_safe_text, min_size=1, max_size=3, unique=True))
        for _ in range(question.count(BLANK_MARKER))
    ]
    item = CompletionItem(
        item_id=draw(_identifier),
        question=question,
        accepted_answers=accepted,
        case_sensitive=draw(st.booleans()),
    )
    item.validate()
    return item


class TestQtiRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(item=choice_items())
    def test_choice_round_trip(self, item):
        restored = item_from_qti_xml(item_to_qti_xml(item))
        assert restored.item_id == item.item_id
        assert restored.question == item.question
        assert restored.hint == item.hint
        assert restored.subject == item.subject
        assert restored.cognition_level is item.cognition_level
        assert restored.content_fields() == item.content_fields()

    @settings(max_examples=40, deadline=None)
    @given(item=match_items())
    def test_match_round_trip(self, item):
        restored = item_from_qti_xml(item_to_qti_xml(item))
        assert restored.content_fields() == item.content_fields()

    @settings(max_examples=40, deadline=None)
    @given(item=completion_items())
    def test_completion_round_trip(self, item):
        restored = item_from_qti_xml(item_to_qti_xml(item))
        assert restored.content_fields() == item.content_fields()

    @pytest.mark.parametrize(
        "question, blanks",
        [("a______b", 2), ("a_____b", 1), ("_______", 2), ("x___y___", 2)],
    )
    def test_completion_round_trip_with_runs_of_underscores(
        self, question, blanks
    ):
        item = CompletionItem(
            item_id="runs",
            question=question,
            accepted_answers=[[f"answer {n}"] for n in range(blanks)],
        )
        item.validate()
        assert item.blank_count == blanks
        restored = item_from_qti_xml(item_to_qti_xml(item))
        assert restored.content_fields() == item.content_fields()

    @settings(max_examples=40, deadline=None)
    @given(
        question=_safe_text,
        value=st.booleans(),
        identifier=_identifier,
    )
    def test_truefalse_round_trip(self, question, value, identifier):
        item = TrueFalseItem(
            item_id=identifier, question=question, correct_value=value
        )
        restored = item_from_qti_xml(item_to_qti_xml(item))
        assert restored.correct_value is value
        assert restored.question == question

    @settings(max_examples=30, deadline=None)
    @given(item=choice_items())
    def test_scoring_behaviour_preserved(self, item):
        """The restored item grades responses identically."""
        restored = item_from_qti_xml(item_to_qti_xml(item))
        for label in item.labels:
            assert (
                restored.score(label).correct == item.score(label).correct
            )
