"""The driver's stats reproduce the committed golden, field for field.

``tests/golden/driver_stats_seed0.json`` holds every field of the stats of
six runs (``DRIVER_STATS_RUNS``), captured on the last commit that had a
separate closed-loop and open-loop driver with a stats class each: a closed
loop whose clients crash (failed operations, budget hand-off, busy
retries), open loops under each admission policy with a queue timeout, and
a Zipf-keyed namespace run of each loop, whose allocation, summed counters
and merged histograms are captured beside the per-object stats.  Any change
to rng draw order, event order or the stats fold changes a field, and a
field the stats gain or lose is one the golden does not have.
"""

import json

import pytest

from repro.runtime.driver import RunStats
from tests.golden.capture_goldens import (
    DRIVER_STATS_RUNS,
    GOLDEN_DIR,
    _jsonable,
    run_driver_scenario,
)

GOLDEN = json.loads((GOLDEN_DIR / "driver_stats_seed0.json").read_text())


def _assert_reproduces(produced, captured, where: str) -> None:
    if isinstance(captured, dict) and isinstance(produced, dict):
        assert produced.keys() == captured.keys(), (
            f"{where}: fields {sorted(produced.keys() ^ captured.keys())} "
            f"are in one of the stats and the golden only"
        )
        for key, value in captured.items():
            _assert_reproduces(produced[key], value, f"{where}.{key}")
    elif isinstance(captured, list) and isinstance(produced, list):
        assert len(produced) == len(captured), where
        for i, (mine, theirs) in enumerate(zip(produced, captured)):
            _assert_reproduces(mine, theirs, f"{where}[{i}]")
    else:
        # Through JSON text, so that 1 and 1.0 differ.
        assert json.dumps(produced) == json.dumps(captured), where


def test_the_golden_covers_every_run():
    assert GOLDEN["runs"] == json.loads(json.dumps(DRIVER_STATS_RUNS))


@pytest.mark.parametrize("name", sorted(DRIVER_STATS_RUNS))
def test_run_stats_reproduce_every_captured_field(name):
    stats = run_driver_scenario(name)
    per_object = getattr(stats, "per_object", [stats])
    assert per_object and all(type(own) is RunStats for own in per_object)
    produced = _jsonable(stats)
    if "objects" in DRIVER_STATS_RUNS[name]["cluster"]:
        for read in GOLDEN["stats"][name].keys() - produced.keys():
            produced[read] = _jsonable(getattr(stats, read))
    _assert_reproduces(produced, GOLDEN["stats"][name], name)
