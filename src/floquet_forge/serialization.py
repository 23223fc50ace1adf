"""Deterministic machine-readable output.

Identical inputs must produce bit-identical files, so floats are always
rendered through one fixed 17-significant-digit format and JSON field order
is the insertion order of the dicts built by the callers (never sorted at
serialization time). Complex values become {"re": .., "im": ..} objects.
Artifacts are rendered in memory; ``write_all`` writes a command's set of them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from enum import Enum

import numpy as np

from .errors import ValidationError

__all__ = ["fmt_float", "json_text", "write_text", "write_json", "write_csv", "bond_id", "offset_id"]


def fmt_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} cannot be serialized")
    return "%.17g" % x


def _cell(value) -> str:
    """A string as it is; any other value as ``_render`` writes it in JSON."""
    return value if isinstance(value, str) else _render(value, "")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, a temporary file of ``write_all``."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_all(outdir, artifacts) -> list:
    """Write each ``(name, writer, *arguments)`` to a temporary file in ``outdir``,
    then move them all into place, or none: on any error the files made here go,
    and an OSError becomes ``cannot write <path>: <reason>``. Returns the paths."""
    made, paths = [], []
    try:
        for name, writer, *arguments in artifacts:
            paths.append(path := os.path.join(outdir, name))
            made.append(f"{path}.{os.getpid()}.tmp")
            writer(made[-1], *arguments)
        for i, path in enumerate(paths):
            os.replace(made[i], path)
            made[i] = path
        made = []
        return paths
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for leftover in made:
            with contextlib.suppress(OSError):
                os.remove(leftover)


def write_csv(path, header, rows) -> None:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(list(header))
    writer.writerows([_cell(v) for v in row] for row in rows)
    write_text(path, fh.getvalue())


def _render(obj, pad: str) -> str:
    nxt = pad + "  "
    if isinstance(obj, Enum):
        return _render(obj.value, pad)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return "{" + f'"re": {fmt_float(c.real)}, "im": {fmt_float(c.imag)}' + "}"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), pad)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{nxt}{_render(str(k), nxt)}: {_render(v, nxt)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [_render(v, nxt) for v in obj]
        if all(len(r) < 24 and "\n" not in r for r in rendered) and len(rendered) <= 16:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(nxt + r for r in rendered) + "\n" + pad + "]"
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def json_text(obj) -> str:
    """Render to JSON: fixed float formatting, insertion field order, indent 2."""
    return _render(obj, "") + "\n"


def write_json(path, obj) -> None:
    write_text(path, json_text(obj))


def offset_id(offset) -> str:
    """Comma-free offset tag for CSV cells, e.g. (1, -1) -> '1_-1'."""
    return "_".join(str(int(x)) for x in offset)


def bond_id(bond) -> str:
    """Comma-free bond tag: target<-source@offset."""
    return f"{bond.target_basis}<-{bond.source_basis}@{offset_id(bond.cell_offset)}"
