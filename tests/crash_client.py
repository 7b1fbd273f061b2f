"""Crash one client of a cluster at a simulated time.

The engines crash servers only (the paper's failure model); the client-crash
tests arm a writer's or reader's crash through the cluster's failure
injector with this.  Importable as ``crash_client`` through
``tests/conftest.py``.
"""


def crash_client(cluster, pid: str, at_time: float) -> None:
    """Crash client ``pid`` of ``cluster`` at ``at_time``."""
    if pid not in cluster.writers and pid not in cluster.readers:
        raise ValueError(f"unknown client {pid!r}")
    cluster.failures.crash_at(pid, at_time)
