from __future__ import annotations

import gc
import tracemalloc

import pytest


def _traced(fn, args):
    """(bytes held before ``fn(*args)``, after it, at its peak, the result),
    as traced by ``tracemalloc`` from just before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return before, after, peak, result


@pytest.fixture
def retained_bytes():
    """``measure(fn, *args)`` -> (bytes that ``fn(*args)`` allocated and its
    result still holds, the result), as traced by ``tracemalloc``.
    Temporaries freed before ``fn`` returns do not count."""

    def measure(fn, *args):
        before, after, _, result = _traced(fn, args)
        return after - before, result

    return measure


@pytest.fixture
def peak_bytes():
    """``measure(fn, *args)`` -> (the most bytes that ``fn(*args)`` held at
    once, temporaries included, the result), as traced by ``tracemalloc``."""

    def measure(fn, *args):
        before, _, peak, result = _traced(fn, args)
        return peak - before, result

    return measure
