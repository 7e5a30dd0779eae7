"""The event table: ``event`` binds values to its fields, ``apply_event``
replays every type it names and refuses any other."""

import json

import pytest

from store_helpers import enroll_cohort, journaled_lms

from repro.core.errors import StoreError
from repro.store.events import EVENT_FIELDS, apply_event, event
from repro.store.recovery import state_fingerprint


def test_event_binds_the_values_to_the_table_fields_in_order():
    for type_, fields in EVENT_FIELDS.items():
        values = [f"v{index}" for index in range(len(fields))]
        payload = event(type_, *values)
        assert list(payload) == list(fields)
        assert list(payload.values()) == values


@pytest.mark.parametrize("values", [("amy", "ex1"), ("amy", "ex1", 1.5, 2)])
def test_a_wrong_count_of_values_raises_naming_the_type(values):
    with pytest.raises(StoreError, match="'start' event has 3 fields"):
        event("start", *values)


def test_an_unknown_type_is_refused_at_replay_and_changes_nothing():
    lms, _ = journaled_lms(None)
    enroll_cohort(lms, ["amy", "ben"])
    lms.start_exam("amy", "ex1")
    lms.answer("amy", "ex1", "q1", "A")
    before = json.dumps(state_fingerprint(lms), sort_keys=True)
    with pytest.raises(StoreError, match="needs a newer reader"):
        apply_event(
            lms, "grade", {"learner_id": "amy", "exam_id": "ex1", "ts": 9.0}
        )
    assert json.dumps(state_fingerprint(lms), sort_keys=True) == before
