"""Puts ``tests/`` on ``sys.path`` so test modules can ``import mutants.<module>``.

``tests/mutants/`` holds the deliberately broken variants and their registry
(``mutants.MUTANTS``): small subclasses the suite must kill, importable from
tests only, run by ``tests/test_kill_matrix.py``.

``twin``: a test that uses it runs twice, once per side of the compiled
modules of ``repro.native.NATIVE`` whose labels its test module's ``TWINS``
lists (all of them when it lists none): ``native`` (skipped where one does
not load) and ``python``, where each one's ``load`` raises as a failed build
leaves it, so its fallback runs (the numpy kernels, the Python loop, the
Python checker).
"""

import sys
from pathlib import Path

import pytest

from repro.native import NATIVE

sys.path.append(str(Path(__file__).parent))


def _unavailable():
    raise RuntimeError("no C toolchain")


@pytest.fixture(params=["native", "python"])
def twin(request, monkeypatch):
    labels = getattr(request.module, "TWINS", None)
    for module in NATIVE:
        if labels is not None and module.label not in labels:
            continue
        if request.param == "python":
            monkeypatch.setattr(module, "load", _unavailable)
            continue
        error = module.availability_error()
        if error is not None:
            pytest.skip(f"compiled {module.label} unavailable: {error}")
    return request.param
