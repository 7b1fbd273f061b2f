"""Every definition under ``src/`` has a reader in code that runs.

A *definition* is a module-level function, class or assigned name, or a
function or class in a class body.  An *attribute* is a name stored as
``self.<name> = ...`` (or ``+=``) inside a method; dataclass fields are out
of scope, because artefact shapes read them.  Either one is *used* when a
module of a live root -- ``src/``, ``bench/``, ``benchmarks/``,
``examples/`` -- refers to its name by an ``ast.Name``, by an
``ast.Attribute`` it loads (a store, ``self.n += 1`` included, is not a
read), by an import alias, or by a string constant that is a whole
identifier.  Docstrings and the entries of ``__all__`` / ``__slots__``
declare names rather than read them, so they do not count.  Names are
matched, not resolved: a read of ``x.close`` keeps every ``close`` alive.
Dunders are called by Python.

A definition or attribute with no reader is deleted, moved into ``tests/``
beside its only users, or listed in ``ALLOWLIST`` with the reason it stays
(an invariant self-check or a test tap).  A new one fails this test, and
so does a stale allowlist entry: one that now has a reader or no longer
exists.

``PYTHONPATH=src python tests/test_src_holds_what_runs.py`` prints what
was scanned and every allowlist entry with its reason.
"""

import ast
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent
LIVE_ROOTS = [SRC, REPO / "bench", REPO / "benchmarks", REPO / "examples"]

# "<module path under src/>::<Qualname>" for a definition, "attr <name>" for
# an attribute, each with the one-line reason it stays without a reader.
ALLOWLIST = {
    "repro/consistency/incremental.py::IncrementalAtomicityChecker._audit": (
        "invariant self-check: asserts the checker's internal tables agree, "
        "which the checker and fuzz tests call after every step"
    ),
    "repro/consistency/stream.py::StreamingRecorder.resident_count": (
        "test tap: records a recorder holds now, which the eviction tests bound"
    ),
    "repro/core/message_disperse.py::MDServerEngine.pending_copies": (
        "test tap: message-disperse copies still counted down, empty after "
        "any fault-free quiescent run (the countdown mutants die by it)"
    ),
    "repro/core/soda/server.py::SodaServer.registered_readers": (
        "test tap: the readers a server relays to, for the registration tests"
    ),
    "repro/core/soda/server.py::SodaServer.per_read_entries": (
        "test tap: per-read state a server holds, 0 after a quiescent run"
    ),
    "repro/core/soda/server.py::SodaServer.history_entries": (
        "test tap: the paper's flat H set, which the server tests compare with"
    ),
    "repro/runtime/namespace.py::MultiRegisterCluster.max_resident_records": (
        "test tap: the largest recorder across a namespace's objects"
    ),
    "attr gc_evictions": "test tap: versions CASGC garbage-collected, counted by its tests",
    "attr reads_seen": "test tap: local reads the disk-error model saw, counted by its tests",
    "attr failed_count": (
        "test tap: operations a sink recorded as failed, counted by the "
        "client-crash tests"
    ),
    "attr reopened_clusters": (
        "test tap: checker clusters reopened after a frontier eviction, "
        "compared with the reference checker by the fuzz tests"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DECLARING = {"__all__", "__slots__"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _declared_strings(tree: ast.AST) -> set:
    """Ids of the docstring and ``__all__`` / ``__slots__`` constants."""
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            if isinstance(body[0].value, ast.Constant):
                skipped.add(id(body[0].value))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) in _DECLARING for t in targets):
                skipped.update(id(c) for c in ast.walk(node.value))
    return skipped


def references(tree: ast.AST) -> set:
    """Every name ``tree`` reads."""
    skipped = _declared_strings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _IDENTIFIER.match(node.value)
        ):
            found.add(node.value)
    return found


def definitions(tree: ast.AST) -> list:
    """``(qualname, name, lines)`` of every module- and class-level definition."""
    found = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                lines = node.end_lineno - node.lineno + 1 + len(node.decorator_list)
                found.append((prefix + node.name, node.name, lines))
                if isinstance(node, ast.ClassDef):
                    scan(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not prefix:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        lines = node.end_lineno - node.lineno + 1
                        found.append((target.id, target.id, lines))

    scan(tree.body, "")
    return [d for d in found if not _is_dunder(d[1])]


def attribute_stores(tree: ast.AST) -> set:
    """Names stored as ``self.<name>`` in a method of a non-dataclass class."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or _is_dataclass(cls):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and not _is_dunder(node.attr)
                ):
                    found.add(node.attr)
    return found


def scan(src_sources: dict, other_sources: dict) -> tuple:
    """Unread definitions and attributes of ``src_sources``.

    Both arguments map a path to its source text; ``src_sources`` is scanned
    for definitions and read for references, ``other_sources`` only read.
    Returns ``(unread definitions as {"path::qualname": lines}, unread
    attribute names, number of definitions, number of attributes)``.
    """
    trees = {path: ast.parse(text) for path, text in src_sources.items()}
    read = set()
    for tree in [*trees.values(), *(ast.parse(t) for t in other_sources.values())]:
        read |= references(tree)

    unread, n_definitions, attributes = {}, 0, set()
    for path, tree in trees.items():
        for qualname, name, lines in definitions(tree):
            n_definitions += 1
            if name not in read:
                unread[f"{path}::{qualname}"] = lines
        attributes |= attribute_stores(tree)
    unread_attributes = sorted(a for a in attributes if a not in read)
    return unread, unread_attributes, n_definitions, len(attributes)


def _read_roots():
    src, other = {}, {}
    for root in LIVE_ROOTS:
        for path in sorted(root.rglob("*.py")):
            if root is SRC:
                src[str(path.relative_to(SRC.parent))] = path.read_text()
            else:
                other[str(path.relative_to(REPO))] = path.read_text()
    return src, other


def _findings(unread, unread_attributes, allowlist=ALLOWLIST):
    """``(unread and not allowlisted, allowlisted but read or gone)``."""
    found = set(unread) | {f"attr {name}" for name in unread_attributes}
    return sorted(found - set(allowlist)), sorted(set(allowlist) - found)


def test_the_scan_finds_a_planted_dead_function_method_and_attribute():
    planted = (
        "import json as _json\n"
        "LIMIT = 3\n"
        "UNUSED_LIMIT = 4\n"
        "__all__ = ['dead_function']\n"
        "def dead_function():\n"
        "    return 0\n"
        "def live_function(x):\n"
        "    '''Calls dead_method and reads dead_attribute in prose only.'''\n"
        "    return _json.dumps(x) + LIMIT\n"
        "class Box:\n"
        "    __slots__ = ('dead_attribute', 'live_attribute')\n"
        "    def __init__(self):\n"
        "        self.dead_attribute = 0\n"
        "        self.live_attribute = 0\n"
        "    def dead_method(self):\n"
        "        self.dead_attribute += 1\n"
        "    def live_method(self):\n"
        "        return self.live_attribute\n"
        "    def looked_up(self):\n"
        "        return getattr(self, 'live_method')()\n"
    )
    caller = "from repro.planted import Box, live_function\nBox().looked_up()\nlive_function(1)\n"
    unread, attributes, n_definitions, n_attributes = scan(
        {"repro/planted.py": planted}, {"bench/caller.py": caller}
    )
    assert sorted(unread) == [
        "repro/planted.py::Box.dead_method",
        "repro/planted.py::UNUSED_LIMIT",
        "repro/planted.py::dead_function",
    ]
    assert attributes == ["dead_attribute"]
    assert (n_definitions, n_attributes) == (8, 2)


def test_a_stale_allowlist_entry_fails():
    allowlist = {
        "repro/a.py::kept": "a tap",
        "repro/a.py::now_read": "a tap something reads now",
        "attr gone": "a tap that was deleted",
    }
    unread = {"repro/a.py::kept": 2, "repro/a.py::new": 3}
    assert _findings(unread, [], allowlist) == (
        ["repro/a.py::new"],
        ["attr gone", "repro/a.py::now_read"],
    )


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_src_holds_what_runs():
    src, other = _read_roots()
    assert len(src) > 40 and other
    unread, unread_attributes, _, _ = scan(src, other)
    new, stale = _findings(unread, unread_attributes)
    assert not new, "no reader in src/, bench/, benchmarks/ or examples/:\n" + "\n".join(new)
    assert not stale, "allowlisted but read, or gone:\n" + "\n".join(stale)


if __name__ == "__main__":
    src, other = _read_roots()
    unread, unread_attributes, n_definitions, n_attributes = scan(src, other)
    new, stale = _findings(unread, unread_attributes)
    print(
        f"scanned {n_definitions} definitions and {n_attributes} attributes "
        f"in {len(src)} modules under src/; {len(new)} unread and not "
        f"allowlisted, {len(stale)} stale allowlist entries"
    )
    for entry in new:
        print(f"  unread: {entry}")
    for entry in stale:
        print(f"  stale: {entry}")
    print(f"allowlist ({len(ALLOWLIST)} entries, {sum(unread.get(e, 0) for e in ALLOWLIST)} lines):")
    for entry, reason in sorted(ALLOWLIST.items()):
        print(f"  {entry}: {reason}")
