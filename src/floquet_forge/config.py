"""Config file parsing for the CLI.

Each line of a config file is one TOML statement: a ``[lattice]`` or
``[drive]`` header, a ``key = value`` pair, a comment, or nothing. The
``bond`` and ``harmonic`` keys repeat (one line per entry), which TOML
forbids within one document, so every line is parsed on its own with
:mod:`tomllib`:

    [lattice]
    preset = "kagome"            # or the explicit keys below
    dimension = 1
    bravais = [[1.0]]
    basis = [[0.0]]
    bond = {to = 0, from = 0, offset = [1], amplitude_re = -1.0}

    [drive]
    omega = 20.0
    harmonic = {m = 1, a = [30.0, 0.0], b = [0.0, 30.0]}

``preset`` excludes every other lattice key. The ``a``/``b`` harmonic
vectors are the cosine/sine force amplitudes; a missing one defaults to
zeros. Values are read as the library reads them: a boolean or a string is
not a number. Each diagnostic is a single line naming the line or the field.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass

import numpy as np

from .drive import DriveSpec, Harmonic, _check_drive_dim
from .errors import ValidationError
from .lattice import Bond, LatticeSpec, _integer, _numbers, _real
from .presets import preset as make_preset

__all__ = ["RunConfig", "parse_config_text", "load_config", "lattice_from_items", "drive_from_items"]


def parse_config_text(text: str) -> dict:
    """Parse the sectioned text into {section: [(key, value), ...]} keeping
    repeated keys in order."""
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        header = line.lstrip().startswith("[")
        key = line.partition("=")[0].strip() if "=" in line and not header else ""
        where = f"line {lineno} ({key})" if key else f"line {lineno}"
        try:
            parsed = tomllib.loads(line)
        except tomllib.TOMLDecodeError as exc:
            # One line per parse: tomllib's "line 1" tells nothing, its column does.
            msg = str(exc).replace("at line 1, ", "").replace("end of document", "end of line")
            raise ValidationError(f"{where}: {msg}") from None
        if not parsed:
            continue
        if header:
            if parsed not in ({"lattice": {}}, {"drive": {}}):
                raise ValidationError(f"{where}: unknown section {line.partition('#')[0].strip()}")
            current = sections.setdefault(next(iter(parsed)), [])
        elif current is None:
            raise ValidationError(f"{where}: key outside of any [section]")
        else:
            current.extend(parsed.items())
    return sections


def _built(where: str, make, *args):
    """make(*args), with a ValidationError it raises prefixed by ``where``."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where} {exc}") from None


def _bond_from_table(table, index: int) -> Bond:
    field = f"[lattice] bond #{index}"
    if not isinstance(table, dict):
        raise ValidationError(f"{field} must be an inline table {{...}}")
    allowed = {"to", "from", "offset", "amplitude_re", "amplitude_im"}
    unknown = set(table) - allowed
    if unknown:
        raise ValidationError(f"{field}: unknown key '{sorted(unknown)[0]}'")
    for req in ("to", "from", "offset", "amplitude_re"):
        if req not in table:
            raise ValidationError(f"{field}: missing key '{req}'")
    to = _integer(table["to"], f"{field}: 'to'")
    source = _integer(table["from"], f"{field}: 'from'")
    if not isinstance(table["offset"], list):
        raise ValidationError(f"{field}: 'offset' must be a list")
    offset = tuple(_integer(x, f"{field}: 'offset' entry") for x in table["offset"])
    real, imag = (
        _real(table.get(k, 0.0), f"{field}: '{k}'") for k in ("amplitude_re", "amplitude_im")
    )
    return _built(f"{field}:", Bond, to, source, offset, complex(real, imag))


def lattice_from_items(items) -> tuple:
    """Build (LatticeSpec, preset name or None) from the [lattice] section."""
    keys = [k for k, _ in items]
    table = dict(items)
    if "preset" in keys:
        extra = [k for k in keys if k != "preset"]
        if extra:
            raise ValidationError(
                f"[lattice] preset excludes other keys, found '{extra[0]}'"
            )
        name = table["preset"]
        if not isinstance(name, str):
            raise ValidationError("[lattice] preset must be a quoted string")
        return _built("[lattice] preset:", make_preset, name), name
    for req in ("dimension", "bravais", "basis"):
        if req not in keys:
            raise ValidationError(f"[lattice] missing key '{req}'")
    for k in keys:
        if k not in ("dimension", "bravais", "basis", "bond"):
            raise ValidationError(f"[lattice] unknown key '{k}'")
        if k != "bond" and keys.count(k) > 1:
            raise ValidationError(f"[lattice] key '{k}' given more than once")
    dimension = _integer(table["dimension"], "[lattice] dimension")
    bonds = [
        _bond_from_table(v, i + 1)
        for i, (k, v) in enumerate(kv for kv in items if kv[0] == "bond")
    ]
    if not bonds:
        raise ValidationError("[lattice] needs at least one bond")
    bravais = _numbers(table["bravais"], "[lattice] bravais", float)
    basis = _numbers(table["basis"], "[lattice] basis", float)
    return _built("[lattice]", LatticeSpec, dimension, bravais, basis, tuple(bonds)), None


def _harmonic_from_table(table, index: int) -> Harmonic:
    field = f"[drive] harmonic #{index}"
    if not isinstance(table, dict):
        raise ValidationError(f"{field} must be an inline table {{...}}")
    unknown = set(table) - {"m", "a", "b"}
    if unknown:
        raise ValidationError(f"{field}: unknown key '{sorted(unknown)[0]}'")
    if "m" not in table:
        raise ValidationError(f"{field}: missing key 'm'")
    m = _integer(table["m"], f"{field}: 'm'")
    if "a" not in table and "b" not in table:
        raise ValidationError(f"{field}: at least one of 'a', 'b' is required")
    given = {key: _numbers(table[key], f"{field}: '{key}'", float) for key in "ab" if key in table}
    for key, v in given.items():
        if v.ndim != 1:
            raise ValidationError(
                f"{field}: '{key}' must be a list of real numbers, got {table[key]!r}"
            )
    zeros = np.zeros_like(next(iter(given.values())))
    return _built(f"{field}:", Harmonic, m, given.get("a", zeros), given.get("b", zeros))


def drive_from_items(items) -> DriveSpec:
    keys = [k for k, _ in items]
    for k in keys:
        if k not in ("omega", "harmonic"):
            raise ValidationError(f"[drive] unknown key '{k}'")
    if keys.count("omega") != 1:
        raise ValidationError("[drive] key 'omega' is required exactly once")
    omega = _real(dict(items)["omega"], "[drive] omega")
    harmonics = [
        _harmonic_from_table(v, i + 1)
        for i, (k, v) in enumerate(kv for kv in items if kv[0] == "harmonic")
    ]
    return _built("[drive]", DriveSpec, omega, tuple(harmonics))


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed config: a lattice, an optional drive, and the preset
    name when the lattice came from one."""

    lattice: LatticeSpec
    drive: DriveSpec | None
    preset: str | None


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    sections = parse_config_text(text)
    if "lattice" not in sections:
        raise ValidationError("config has no [lattice] section")
    lattice, preset_name = lattice_from_items(sections["lattice"])
    drive = drive_from_items(sections["drive"]) if "drive" in sections else None
    if drive is not None:
        _check_drive_dim(lattice, drive)
    return RunConfig(lattice, drive, preset_name)
