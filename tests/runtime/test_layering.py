"""Layering: no package below ``analysis/`` reaches back up into it (the
epoch engine's cell runner used to live in ``runtime/fleet.py``, and the
checker mux's worker mode in ``consistency/multiplex.py``; both imported
``repro.analysis`` lazily to break the cycle)."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parent
BELOW_ANALYSIS = (
    "sim",
    "erasure",
    "core",
    "baselines",
    "metrics",
    "consistency",
    "workloads",
    "runtime",
)


def _sources():
    return sorted(
        path for package in BELOW_ANALYSIS for path in (ROOT / package).rglob("*.py")
    )


def test_importing_the_lower_packages_does_not_import_analysis():
    modules = sorted(
        ".".join(("repro", *path.relative_to(ROOT).with_suffix("").parts))
        for path in _sources()
        if path.stem != "__init__"
    )
    assert "repro.runtime.namespace" in modules
    assert "repro.consistency.multiplex" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}: importlib.import_module(name)\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
        "assert not bad, bad\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
    )
    assert done.returncode == 0, done.stderr


def test_no_lower_module_names_the_analysis_package_in_an_import():
    sources = _sources()
    assert len({path.parent for path in sources}) >= len(BELOW_ANALYSIS)
    for path in sources:
        source = path.read_text()
        assert "import repro.analysis" not in source, path
        assert "from repro.analysis" not in source, path
