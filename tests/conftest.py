import pytest

from collatz_lab import sweeps


@pytest.fixture
def force_fork(monkeypatch):
    """Let ``run_sweep`` fork however little work its first span projects,
    so that a test of a forked sweep forks on a fast host too."""
    monkeypatch.setattr(sweeps, "_FORK_PAYS_S", 0)
