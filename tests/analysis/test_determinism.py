"""Determinism as one property: artefact bytes are invariant over every
scheduling axis and over the GF(2^8) backend, for every artefact kind of
the engine.

The scheduling axes — ``jobs`` (epochs in flight) and, for the fleet
kinds, ``fleet`` (how many cells an epoch's namespace is partitioned
into) — decide only *where* work executes.  This harness iterates the
engine's kind table, runs every golden scenario of each kind once as a
baseline and once per scheduling variant, and asserts the JSON and CSV
bytes never move.  It replaces the per-engine ``TestJobsDeterminism`` / ``TestDeterminism`` /
``TestFleetDeterminism`` classes; the CI ``determinism-smoke`` matrix job
checks the same property through the CLI at larger sizes.

The baseline runs on the backend a user gets (``native`` where the compiled
kernels load); ``tests/analysis/test_golden_longrun.py`` pins those bytes to
the committed goldens, and the backend axis here re-runs every scenario as
a host without a C toolchain would: the ``numpy`` kernels and the Python
run loop, workers included.
"""

import pytest

from repro.analysis.engine import KINDS
from repro.erasure.gf import default_backend
from repro.native import CACHE_ENV_VAR, NATIVE
from tests.golden.capture_goldens import ARTEFACT_SCENARIOS, write_scenario


def _variants(kind):
    """The scheduling variants worth running for ``kind`` (the scenarios
    themselves run at jobs=1 and, fleet kinds, fleet=2)."""
    variants = [{"jobs": 2}]
    if kind.private:
        variants += [{"fleet": 1}, {"fleet": 3}, {"fleet": 3, "jobs": 2}]
    return variants


def _case_id(name, variant):
    return f"{name}-" + "-".join(f"{axis}{value}" for axis, value in variant.items())


CASES = [
    pytest.param(name, variant, id=_case_id(name, variant))
    for name, (kind, _, _) in sorted(ARTEFACT_SCENARIOS.items())
    for variant in _variants(KINDS[kind])
]


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Each scenario's baseline artefact bytes, computed once."""
    cache = {}

    def baseline(name):
        if name not in cache:
            _, *paths = write_scenario(name, tmp_path_factory.mktemp(name))
            cache[name] = [path.read_bytes() for path in paths]
        return cache[name]

    return baseline


def test_every_kind_is_covered():
    assert {kind for kind, _, _ in ARTEFACT_SCENARIOS.values()} == set(KINDS)
    assert all(_variants(kind) for kind in KINDS.values())


@pytest.mark.parametrize("name, variant", CASES)
def test_artefact_bytes_invariant_under_scheduling(
    tmp_path, baselines, name, variant
):
    report, *paths = write_scenario(name, tmp_path, **variant)
    assert report.ok
    assert [path.read_bytes() for path in paths] == baselines(name), (
        f"{name}: artefact bytes moved under {variant}"
    )
    for axis, value in variant.items():
        assert getattr(report, axis) == value


@pytest.fixture(scope="module")
def empty_build_cache(tmp_path_factory):
    """A build cache no worker has written to yet: under ``CC=/bin/false``
    the first worker records each compiled module's failed build there and
    every later one reads the marker."""
    return tmp_path_factory.mktemp("no-toolchain-cache")


def _hide_toolchain(monkeypatch, cache):
    def unavailable():
        raise RuntimeError("no C toolchain")

    # In this process: the seam a failed build leaves behind.
    for module in NATIVE:
        monkeypatch.setattr(module, "load", unavailable)
    # In the spawned workers: a host whose compiler fails, with nothing cached.
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache))


@pytest.mark.parametrize("name", sorted(ARTEFACT_SCENARIOS))
def test_artefact_bytes_invariant_under_gf_backend(
    tmp_path, baselines, monkeypatch, empty_build_cache, name
):
    expected = baselines(name)  # on the default-resolved backend
    _hide_toolchain(monkeypatch, empty_build_cache)
    assert default_backend() == "numpy"
    report, *paths = write_scenario(name, tmp_path, jobs=2)
    assert report.ok
    assert [path.read_bytes() for path in paths] == expected, (
        f"{name}: artefact bytes differ between the default backend and numpy"
    )
    # The workers fell back: each module's build failed and none was built.
    assert sorted(path.name for path in empty_build_cache.iterdir()) == sorted(
        f"{module._source_digest()}.unavailable" for module in NATIVE
    )
