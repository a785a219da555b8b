"""A time limit on one call, for the tests that pin former stalls."""

import os
import signal


class _Alarm(TimeoutError):
    pass


def _on_alarm(signum, frame):
    code = frame.f_code
    raise _Alarm(
        f"ran past its time limit, stopped in {code.co_name} "
        f"({os.path.basename(code.co_filename)}:{frame.f_lineno or '?'})"
    )


def within(seconds, fn, *args):
    """fn(*args), or TimeoutError once it has run for the given seconds.

    The alarm's error is raised afresh here, naming the function and line
    it stopped, but without the interrupted frames: Python 3.11 gives some
    loop back-edges no line number, and pytest stops with an INTERNALERROR
    on a traceback whose frame was interrupted on one."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except _Alarm as alarm:
        raise TimeoutError(str(alarm)) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
