"""Module-level pool payloads for ``test_pool.py``: a spawned worker imports
them by name, so they cannot live in a test function."""

import os
import signal
import time


def killed_on_one(index: int) -> int:
    """Payload 1 SIGKILLs its own worker, as the OOM killer would."""
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)
    return index


def raises_on_two(index: int) -> int:
    if index == 2:
        raise ValueError("payload two is bad")
    return index
