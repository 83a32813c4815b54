import pytest

from dynastyprice import ou


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
