"""Fixtures shared by the test modules."""

import pytest

from synkit.smt import SmtSession


@pytest.fixture
def sessions(monkeypatch):
    """Solver sessions opened and closed while a test runs."""
    opened, closed = [], set()
    init, close = SmtSession.__init__, SmtSession.close

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    def counting_close(self):
        closed.add(id(self))
        close(self)

    monkeypatch.setattr(SmtSession, "__init__", counting_init)
    monkeypatch.setattr(SmtSession, "close", counting_close)
    return opened, closed
