"""``executor``: a test that uses it runs twice, once with the incremental
checker's compiled core bound at each checker's first event (skipped where
the core does not load) and once with the core unavailable, the seam a
failed build leaves (``CORE.load`` raises, as tests reach the numpy kernels
by patching ``KERNELS.load``)."""

import pytest

from repro.consistency import checker_core


def _unavailable():
    raise RuntimeError("no C toolchain")


@pytest.fixture(params=["native", "python"])
def executor(request, monkeypatch):
    if request.param == "native":
        error = checker_core.CORE.availability_error()
        if error is not None:
            pytest.skip(f"compiled checker core unavailable: {error}")
    else:
        monkeypatch.setattr(checker_core.CORE, "load", _unavailable)
    return request.param
