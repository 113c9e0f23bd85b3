"""Suite-wide guard: no test may leave the Monte Carlo kernel's helper thread running."""

import threading

import pytest


def _helpers() -> set[threading.Thread]:
    return {thread for thread in threading.enumerate() if thread.name == "dpbudget-draws"}


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_the_test():
    before = _helpers()
    yield
    left = _helpers() - before
    if left:
        pytest.fail(f"{len(left)} dpbudget-draws thread(s) still running after the test")
