import tracemalloc

import pytest

from dynastyprice import ou


def peak_bytes(fn, *args, **kw) -> int:
    """Peak traced memory, in bytes, of one call fn(*args, **kw); the
    arguments are built before tracing starts."""
    tracemalloc.start()
    try:
        fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _ZeroDraws:
    """Stands in for a substream whose every normal is 0."""

    def standard_normal(self, out):
        out.fill(0.0)
        return out


@pytest.fixture()
def zero_draws(monkeypatch):
    """Paths built by ``SimPath.row`` are X == 0 exactly: a zero start
    draw and zero shocks."""
    monkeypatch.setattr(ou, "substream", lambda *key: _ZeroDraws())
