"""Layering: the runtime layer never reaches back up into the analysis
layer (the epoch engine's cell runner used to live in ``runtime/fleet.py``
and import ``repro.analysis`` lazily to break the cycle)."""

import os
import subprocess
import sys
from pathlib import Path

import repro

RUNTIME = Path(repro.__file__).resolve().parent / "runtime"


def test_importing_runtime_does_not_import_analysis():
    modules = sorted(
        f"repro.runtime.{path.stem}"
        for path in RUNTIME.glob("*.py")
        if path.stem != "__init__"
    )
    assert "repro.runtime.namespace" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}: importlib.import_module(name)\n"
        "assert 'repro.runtime' in sys.modules\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
        "assert not bad, bad\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(RUNTIME.parent.parent)},
    )
    assert done.returncode == 0, done.stderr


def test_no_runtime_module_names_the_analysis_package():
    for path in RUNTIME.glob("*.py"):
        source = path.read_text()
        assert "import repro.analysis" not in source, path.name
        assert "from repro.analysis" not in source, path.name
