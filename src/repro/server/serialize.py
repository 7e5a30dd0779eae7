"""Typed request parsing and response serialization for the service.

Request side: :func:`parse_json_body` plus the :class:`BodySpec` field
validator — handlers declare the fields they accept with expected types
and get one 400 ``bad_request`` shape for every malformed payload
(invalid JSON, non-object bodies, missing/mistyped/unknown fields).

Response side: plain functions turning the library's dataclasses
(:class:`~repro.delivery.scoring.GradedSitting`, …) into JSON-compatible
dicts.  :func:`scored_to_dict` and :func:`learner_to_dict` are
re-exported from the modules of their dataclasses, since checkpoints
store the same records; :func:`analysis_to_dict` is re-exported from
:mod:`repro.core.export`, which renders the §4 report's questions with
it — the loadgen differential test compares the server's rendering of
``live_analysis`` against a local ``analyze_cohort`` run through this
same function, so any drift between the two fails CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Type

from repro.core.export import analysis_to_dict
from repro.delivery.scoring import GradedSitting
from repro.items.responses import scored_to_dict
from repro.lms.learners import learner_to_dict
from repro.server.errors import ApiError

__all__ = [
    "parse_json_body",
    "BodySpec",
    "analysis_to_dict",
    "graded_to_dict",
    "scored_to_dict",
    "learner_to_dict",
]


def parse_json_body(raw: bytes) -> Dict[str, object]:
    """Decode a request body as a JSON object; ApiError 400 otherwise."""
    if not raw:
        return {}
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ApiError(
            400, "bad_request", f"request body is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ApiError(
            400,
            "bad_request",
            f"request body must be a JSON object, "
            f"got {type(payload).__name__}",
        )
    return payload


@dataclass(frozen=True)
class BodySpec:
    """Declares a handler's accepted JSON fields with expected types.

    ``required``/``optional`` map field name -> expected python type
    (``object`` accepts anything, e.g. free-form item responses).
    Unknown fields are rejected unless ``allow_extra`` — typos like
    ``"learner"`` for ``"learner_id"`` fail loudly instead of silently
    doing nothing.

    ``elements`` maps a list-typed field name to the :class:`BodySpec`
    each of its elements must satisfy.  Violations inside an element —
    including a non-object element, which used to escape as an opaque
    500 when the handler indexed into it — surface as the same 400
    ``bad_request`` shape with a JSON pointer locating the offender
    (e.g. ``/answers/3/item_id``).
    """

    required: Dict[str, Type] = field(default_factory=dict)
    optional: Dict[str, Type] = field(default_factory=dict)
    allow_extra: bool = False
    elements: Dict[str, "BodySpec"] = field(default_factory=dict)

    def validate(
        self, body: Dict[str, object], pointer: str = ""
    ) -> Dict[str, object]:
        """The validated body; raises ApiError 400 on any violation.

        ``pointer`` is the JSON pointer of ``body`` within the request
        ("" at the top level); it prefixes the paths in error messages
        when validating nested elements.
        """
        at = f" at {pointer}" if pointer else ""
        for name, expected in self.required.items():
            if name not in body:
                raise ApiError(
                    400,
                    "bad_request",
                    f"missing required field {name!r}{at}",
                )
        if not self.allow_extra:
            known = set(self.required) | set(self.optional)
            extra = sorted(set(body) - known)
            if extra:
                raise ApiError(
                    400,
                    "bad_request",
                    f"unknown field(s){at}: {', '.join(extra)}",
                )
        for name, expected in {**self.required, **self.optional}.items():
            if name not in body or expected is object:
                continue
            value = body[name]
            if expected is float and isinstance(value, int):
                continue  # JSON has one number type
            if not isinstance(value, expected) or (
                expected is not bool and isinstance(value, bool)
            ):
                raise ApiError(
                    400,
                    "bad_request",
                    f"field {name!r}{at} must be {expected.__name__}, "
                    f"got {type(value).__name__}",
                )
        for name, spec in self.elements.items():
            value = body.get(name)
            if not isinstance(value, list):
                continue  # absence/type already reported above
            for index, element in enumerate(value):
                child = f"{pointer}/{name}/{index}"
                if not isinstance(element, dict):
                    raise ApiError(
                        400,
                        "bad_request",
                        f"element at {child} must be an object, "
                        f"got {type(element).__name__}",
                    )
                spec.validate(element, pointer=child)
        return body


# -- response serialization --------------------------------------------------


def graded_to_dict(graded: GradedSitting) -> Dict[str, object]:
    """A :class:`GradedSitting` as a JSON-compatible dict."""
    return {
        "exam_id": graded.exam_id,
        "learner_id": graded.learner_id,
        "total_points": graded.total_points,
        "max_points": graded.max_points,
        "percent": graded.percent,
        "duration_seconds": graded.duration_seconds,
        "answer_times": list(graded.answer_times),
        "pending_items": graded.pending_items(),
        "scores": {
            item_id: scored_to_dict(score)
            for item_id, score in graded.scores.items()
        },
    }
