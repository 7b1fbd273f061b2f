"""The regeneration oracle (``tests/analysis/regenerate_results.py``) can
rebuild every committed engine artefact: each ``results/*.json`` names an
engine kind and records only params that map back to ``run_experiment``
keywords, except the one hand-made table.  The rebuild itself is nightly
(it takes minutes); here one small artefact is rebuilt and compared."""

import json

from regenerate_results import HAND_MADE, RESULTS, regenerate, run_keywords

from repro.analysis.engine import KINDS


def test_every_engine_artefact_maps_back_to_run_experiment():
    stems = set()
    for path in sorted(RESULTS.glob("*.json")):
        stems.add(path.stem)
        if path.stem in HAND_MADE:
            continue
        record = json.loads(path.read_text())
        assert record["kind"] in KINDS, path.name
        keywords, unmapped = run_keywords(record)
        assert unmapped == [], path.name
        assert path.with_suffix(".csv").exists(), path.name
    assert set(HAND_MADE) <= stems


def test_an_unmappable_param_is_named(tmp_path):
    record = json.loads((RESULTS / "longrun_abd_20000.json").read_text())
    record["params"]["warp_factor"] = 9
    forged = tmp_path / "longrun_abd_20000.json"
    forged.write_text(json.dumps(record))
    assert regenerate(forged, 1, tmp_path) == [
        "longrun_abd_20000.json: cannot map params back: warp_factor"
    ]


def test_a_small_artefact_regenerates_byte_equal(tmp_path):
    assert regenerate(RESULTS / "multiobj_cas_8x8000.json", 1, tmp_path) == []
