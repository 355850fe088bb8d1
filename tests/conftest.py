import pytest

from collatz_lab import cycles, sweeps


@pytest.fixture
def force_fork(monkeypatch):
    """Let ``run_sweep`` fork however little work its first span projects,
    so that a test of a forked sweep forks on a fast host too."""
    monkeypatch.setattr(sweeps, "_FORK_PAYS_S", 0)


@pytest.fixture
def split_any_box(monkeypatch):
    """Let search_cycles give a worker fewer than _MIN_SHARE candidates, so
    that small boxes run on the fork engine too."""
    monkeypatch.setattr(cycles, "_MIN_SHARE", 1)
