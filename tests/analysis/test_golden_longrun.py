"""Golden artefact bytes, one scenario (or more) per artefact kind: small
sharded runs recorded on a known-good engine (see tests/golden/README.md)
must reproduce byte-identically — across the event-loop/network rewrite,
the pipelined `imap_unordered` merge and the engine unification.
"""

import pytest

from repro.analysis.engine import KINDS
from tests.golden.capture_goldens import (
    ARTEFACT_SCENARIOS,
    GOLDEN_DIR,
    write_scenario,
)


def test_every_artefact_kind_has_a_golden():
    assert {kind for kind, _, _ in ARTEFACT_SCENARIOS.values()} == set(KINDS)


@pytest.mark.parametrize("name", sorted(ARTEFACT_SCENARIOS))
def test_artefacts_match_golden(tmp_path, name):
    report, json_path, csv_path = write_scenario(name, tmp_path)
    assert report.ok
    for produced in (json_path, csv_path):
        assert produced.stem == name
        golden = GOLDEN_DIR / produced.name
        assert produced.read_bytes() == golden.read_bytes(), (
            f"{produced.name} diverged from the golden artefact — the "
            f"engine's deterministic output changed"
        )
