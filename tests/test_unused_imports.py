"""No module under ``src/`` imports a name it does not use (``ruff`` is not
in the build image, and every deletion PR leaves a few behind).

A name bound by ``import`` / ``from ... import`` must appear as an
``ast.Name`` — which the base of every ``a.b.c`` attribute chain is — or as
a quoted identifier (an ``__all__`` entry, a forward reference in an
annotation).  ``__init__.py`` files import in order to re-export and are
exempt, as is ``from __future__``.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "import warnings\n"
        "from typing import Dict, List, Optional as Opt\n"
        "from repro.sim import network\n"
        "__all__ = ['network']\n"
        "def f(x: Dict) -> 'List':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "warnings"), (4, "Opt")]


def test_no_unused_import_under_src():
    sources = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(sources) > 40
    findings = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sources
        for line, name in unused_imports(path.read_text())
    ]
    assert not findings, "\n".join(findings)
