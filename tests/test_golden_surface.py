"""The public surface of every `revisit` module, as a checked-in ledger.

`golden_surface.txt` holds one line per public function, class, dataclass,
method and property defined in a `revisit` module, in module order and,
within a module, in definition order: its kind, its dotted name and its
parameters or init fields, with `name=` marking a defaulted one and a
bare `*` before keyword-only ones.  The last line counts the defaulted
parameters and fields, the options a caller may set.  A change that adds,
removes or renames an entry point, a parameter or a default shows here
in review.  It regenerates the file with

    PYTHONPATH=src python tests/test_golden_surface.py > tests/golden_surface.txt

and says in its change notes which lines moved and why.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import revisit

GOLDEN = Path(__file__).with_name("golden_surface.txt")


class _Default:
    """Stands in for a default value, so a defaulted parameter prints as `name=`."""

    def __repr__(self) -> str:
        return ""


def _signature(obj, drop_first: bool = False) -> tuple[str, int]:
    """``obj``'s parameters, without annotations or default values, and
    how many are defaulted.  An exception takes BaseException's `*args`."""
    try:
        params = list(inspect.signature(obj).parameters.values())
    except ValueError:
        return "(*args)", 0
    params = [
        p.replace(annotation=p.empty, default=p.empty if p.default is p.empty else _Default())
        for p in params[int(drop_first):]
    ]
    defaulted = sum(p.default is not p.empty for p in params)
    return str(inspect.Signature(params)), defaulted


def _entries(cls, prefix: str):
    """(kind, name, signature, defaulted) of each public method and property of ``cls``."""
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, property):
            yield "property", f"{prefix}.{name}", "", 0
        elif isinstance(attr, (classmethod, staticmethod)):
            yield (type(attr).__name__, f"{prefix}.{name}",
                   *_signature(attr.__func__, isinstance(attr, classmethod)))
        elif inspect.isfunction(attr):
            yield "method", f"{prefix}.{name}", *_signature(attr, drop_first=True)


def golden_surface() -> str:
    """One line per public definition of every `revisit` module, and the
    count of defaulted parameters and fields."""
    lines, total = [], 0
    for info in pkgutil.iter_modules(revisit.__path__):
        module = importlib.import_module(f"revisit.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            dotted = f"{info.name}.{name}"
            if inspect.isclass(obj):
                kind = "dataclass" if dataclasses.is_dataclass(obj) else "class"
                rows = [(kind, dotted, *_signature(obj)), *_entries(obj, dotted)]
            else:
                rows = [("def", dotted, *_signature(obj))]
            for kind, full, sig, defaulted in rows:
                lines.append(f"{kind} {full}{sig}\n")
                total += defaulted
    lines.append(f"defaulted parameters and fields: {total}\n")
    return "".join(lines)


def test_public_surface_matches_the_golden_ledger():
    assert golden_surface() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(golden_surface())
