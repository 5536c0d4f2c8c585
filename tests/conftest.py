"""Shared fixtures.

``no_head_start`` pins the head start :data:`repro.core.search.HEAD_START`
to 0, so that a search at ``workers > 1`` hands its stream to the worker
pool at its first candidate instead of finishing small inputs in-process.
The suites whose subject is the pool (differential, metamorphic,
supervision, the bundle corpus, and the parallel cases of the obs,
backend, ledger and CLI tests) use it.
"""

import pytest

from repro.core import search


@pytest.fixture
def no_head_start(monkeypatch):
    monkeypatch.setattr(search, "HEAD_START", 0)
