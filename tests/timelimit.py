"""A time limit on one call, for the tests that pin former stalls."""

import signal


def _on_alarm(signum, frame):
    raise TimeoutError("ran past its time limit")


def within(seconds, fn, *args):
    """fn(*args), or TimeoutError once it has run for the given seconds."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
