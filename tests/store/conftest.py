"""Shared fixtures for the durable-store suite (its builders are in
``store_helpers.py``)."""

import pytest

from v1log import FORMATS


@pytest.fixture(params=FORMATS, ids=lambda f: f"format{f}")
def fmt(request):
    """A segment format the reader decodes: 1 (v1 JSON lines), 2 (binary)."""
    return request.param
