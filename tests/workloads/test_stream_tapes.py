"""The streamed history generator emits exactly the committed event tapes.

``tests/golden/stream_tapes_seed0.json`` holds, per ``StreamSpec`` row of
``STREAM_TAPE_SPECS``, the event count, the ``StreamStats`` fields and the
SHA-256 of every ``invoke`` / ``respond`` / ``mark_failed`` call the
generator made, with its arguments and value bytes.  Any change to rng draw
order, heap tie-breaking, op ids, times or values changes a digest.
"""

import json
import time

from tests.golden.capture_goldens import GOLDEN_DIR, STREAM_TAPE_SPECS, stream_tape

GOLDEN = json.loads((GOLDEN_DIR / "stream_tapes_seed0.json").read_text())


def test_the_golden_covers_every_scenario():
    assert GOLDEN["specs"] == STREAM_TAPE_SPECS


def test_every_tape_reproduces_in_under_two_seconds():
    started = time.process_time()
    produced = {name: stream_tape(name) for name in STREAM_TAPE_SPECS}
    elapsed = time.process_time() - started
    for name, tape in produced.items():
        assert tape == GOLDEN["tapes"][name], f"stream tape {name!r} diverged"
    assert elapsed < 2.0
