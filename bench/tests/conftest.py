import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture
def alarm():
    """The per-operation cap's SIGALRM handler, as a session installs it."""
    import session

    previous = signal.signal(signal.SIGALRM, session._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
