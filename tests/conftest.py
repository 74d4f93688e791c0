import signal

import pytest
from hypothesis import settings

# Examples at crypto sizes take longer than hypothesis' 200 ms deadline.
settings.register_profile("pellrsa", deadline=None)
settings.load_profile("pellrsa")


@pytest.fixture
def alarm():
    """Fail the test after ten seconds, so a loop that never ends cannot hang the suite."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its ten-second alarm")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
