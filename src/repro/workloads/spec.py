"""The one grammar of the ``name[:field...]`` spec strings.

A family table maps each name to its constructor, whose signature is the
grammar: field order, names, defaults, and ``int`` versus float.  A value
names its family by its ``kind``.
"""

from __future__ import annotations

import inspect
from typing import Callable, List, Mapping

Table = Mapping[str, Callable[..., object]]


def _fields(make: Callable[..., object]) -> List[inspect.Parameter]:
    return list(inspect.signature(make).parameters.values())


def parse(table: Table, text: str, what: str) -> object:
    """Read ``name[:field...]``, trailing fields optional; ``what`` names the
    table in errors (``"fault leg"``)."""
    name, *words = text.strip().lower().split(":")
    if name not in table:
        raise ValueError(f"unknown {what} {text.strip()!r}; expected {forms(table)}")
    fields = _fields(table[name])
    if len(words) > len(fields):
        takes = ":".join(p.name for p in fields) or "no fields"
        raise ValueError(f"{name} {what.split()[-1]} takes {takes}: {text!r}")
    args = []
    for field, word in zip(fields, words):
        try:
            value = float(word)
        except ValueError:
            raise ValueError(
                f"invalid numeric field {name} {field.name}={word!r} in {text!r}"
            ) from None
        if field.annotation in ("int", int):
            if not value.is_integer():
                raise ValueError(f"{name} {field.name} must be an integer: {text!r}")
            value = int(value)
        args.append(value)
    return table[name](*args)


def render(table: Table, obj: object) -> str:
    """The canonical spec of ``obj``: its family and every field, ``:g``."""
    values = [getattr(obj, p.name) for p in _fields(table[obj.kind])]
    return ":".join([obj.kind, *(f"{v:g}" for v in values)])


def forms(table: Table) -> str:
    """Every family's form, ``'name[:field[:field]]'``, comma-joined."""
    return ", ".join(_form(name, _fields(make)) for name, make in table.items())


def _form(name: str, fields: List[inspect.Parameter]) -> str:
    return f"'{name}" + "".join(f"[:{p.name}" for p in fields) + "]" * len(fields) + "'"
