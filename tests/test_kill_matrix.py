"""Every registered mutant dies: one row per (mutant, kill) of
``tests/mutants/__init__.py::MUTANTS``.

A survivor fails with the mutant's name and the check it survived; a
mutant that dies of the wrong exception or message errors instead of
counting as killed.
"""

import importlib
import inspect
import os
import platform
import re
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS
from repro.native import CACHE_ENV_VAR, NATIVE, CompiledModule

TESTS = Path(__file__).resolve().parent

#: Nightly-fuzz knob (see .github/workflows/nightly-fuzz.yml): above 1, the
#: C-source mutants marked ``nightly`` are built and run too.
FUZZ_FACTOR = int(os.environ.get("FUZZ_FACTOR", "1"))


def resolve_check(ref: str):
    """``"<dir>/<test module>.py::<function>"`` -> the function, imported the
    way pytest imports that test module (its directory on ``sys.path``), so
    both name the same module object."""
    path, name = ref.split("::")
    directory = str(TESTS / Path(path).parent)
    if directory not in sys.path:
        sys.path.insert(0, directory)
    return getattr(importlib.import_module(Path(path).stem), name)


def mutant_class(mutant):
    return getattr(importlib.import_module(f"mutants.{mutant.module}"), mutant.name)


ROWS = [
    pytest.param(mutant, kill, id=f"{mutant.name}-{kill.check.split('::')[1]}")
    for mutant in MUTANTS
    for kill in mutant.kills
]


def install_native(cls, label, monkeypatch, cache):
    """Build the registered module of ``label`` with ``cls``'s substitution
    into ``cache`` and have its ``load`` return the mutant."""
    if getattr(cls, "nightly", False) and FUZZ_FACTOR <= 1:
        pytest.skip(f"{cls.__name__} runs nightly (FUZZ_FACTOR > 1)")
    if platform.machine() not in getattr(cls, "machines", (platform.machine(),)):
        pytest.skip(f"{cls.__name__} changes code not compiled on this host")
    (module,) = [module for module in NATIVE if module.label == label]
    assert module.source.count(cls.old) == 1, f"{cls.__name__}: no single {cls.old!r}"
    mutated = CompiledModule(
        module.name, module.source.replace(cls.old, cls.new), label, module.fallback
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV_VAR, str(cache))
        error = mutated.availability_error()
    if error is not None:
        pytest.skip(f"{cls.__name__} cannot be built: {error}")
    monkeypatch.setattr(module, "load", mutated.load)


@pytest.mark.parametrize("mutant, kill", ROWS)
def test_the_mutant_is_killed(mutant, kill, monkeypatch, tmp_path):
    cls = mutant_class(mutant)
    check = resolve_check(kill.check)
    if mutant.install == "instance":
        args = (cls(),)
    elif mutant.install.startswith("native:"):
        install_native(cls, mutant.install.split(":", 1)[1], monkeypatch, tmp_path)
        args = ()
    else:
        owner, attr = mutant.install.rsplit(".", 1)
        monkeypatch.setattr(importlib.import_module(owner), attr, cls)
        args = ()
    try:
        check(*args)
    except kill.raises as exc:
        assert re.search(kill.match, str(exc)), (
            f"mutant {mutant.name} died of something else in {kill.check}: {exc}"
        )
    else:
        pytest.fail(f"mutant {mutant.name} survived {kill.check}")


def test_every_mutant_has_a_row():
    """No mutant class in ``tests/mutants`` goes unregistered."""
    modules = [
        importlib.import_module(f"mutants.{path.stem}")
        for path in (TESTS / "mutants").glob("*.py")
        if path.stem != "__init__"
    ]
    defined = {
        name
        for module in modules
        for name, obj in inspect.getmembers(module, inspect.isclass)
        if obj.__module__ == module.__name__
    }
    assert len(modules) == 8
    assert defined == {mutant.name for mutant in MUTANTS}
