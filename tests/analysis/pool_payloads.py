"""Module-level pool payloads for ``test_pool.py``: a spawned worker imports
them by name, so they cannot live in a test function.

Run as a script, this file is ``python -m repro.cli`` with the engine's
group runner running out of memory in epoch 1; spawned pool workers re-run
the file as ``__mp_main__``, so the fault reaches them too
(``tests/test_cli.py::TestLostCellsExit3``).
"""

import os
import resource
import signal
import sys
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


def exhaust_address_space() -> None:
    """Cap this process's address space 64 MiB above what it maps now, then
    allocate 1 GiB past the cap."""
    with open("/proc/self/status") as status:
        mapped_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmSize:")
        )
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, ((mapped_kb << 10) + (64 << 20), hard))
    bytearray(1 << 30)


def out_of_memory_on_one(index: int) -> int:
    """Payload 1 runs out of address space in its own worker."""
    if index == 1:
        exhaust_address_space()
    time.sleep(0.2)
    return index


if __name__ in ("__main__", "__mp_main__"):
    from repro.analysis import engine

    _run_group = engine._run_group

    def _out_of_memory_in_epoch_one(cell, gids):
        if cell["epoch"] == 1:
            exhaust_address_space()
        return _run_group(cell, gids)

    engine._run_group = _out_of_memory_in_epoch_one

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
