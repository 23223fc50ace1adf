"""Config file parsing for the CLI.

The format is sectioned key/value text in the TOML style, except that the
``bond`` and ``harmonic`` keys repeat (one line per entry), which rules out a
strict TOML parser. Grammar actually supported:

    [lattice]
    preset = "kagome"            # or the explicit keys below
    dimension = 1
    bravais = [[1.0]]
    basis = [[0.0]]
    bond = {to = 0, from = 0, offset = [1], amplitude_re = -1.0}

    [drive]
    omega = 20.0
    harmonic = {m = 1, a = [30.0, 0.0], b = [0.0, 30.0]}

Values are numbers, booleans, double-quoted strings, lists, or inline tables;
``#`` starts a comment. ``preset`` excludes every other lattice key. The
``a``/``b`` harmonic vectors are the cosine/sine force amplitudes; a missing
one defaults to zeros. Every diagnostic is a single line naming the field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .drive import DriveSpec, Harmonic, _check_drive_dim
from .errors import ValidationError
from .lattice import Bond, LatticeSpec, close_hermitian
from .presets import preset as make_preset

__all__ = ["RunConfig", "parse_config_text", "load_config", "lattice_from_items", "drive_from_items"]

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>[{}\[\],=])
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<atom>[^\s{}\[\],=#"]+)
    )""",
    re.VERBOSE,
)


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def _tokenize(text: str, where: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValidationError(f"{where}: cannot read {text[pos:].strip()!r}")
            return
        pos = m.end()
        if m.lastgroup == "punct":
            yield m.group("punct")
        elif m.lastgroup == "string":
            yield ("str", m.group("string")[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        else:
            yield ("atom", m.group("atom"))


class _Tokens:
    def __init__(self, text: str, where: str):
        self._items = list(_tokenize(text, where))
        self._pos = 0
        self.where = where

    def peek(self):
        return self._items[self._pos] if self._pos < len(self._items) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValidationError(f"{self.where}: unexpected end of value")
        self._pos += 1
        return tok

    def expect(self, punct: str):
        tok = self.next()
        if tok != punct:
            raise ValidationError(f"{self.where}: expected '{punct}', got {tok!r}")

    def done(self) -> bool:
        return self._pos >= len(self._items)


def _atom_value(text: str, where: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{where}: {text!r} is not a number, boolean, or quoted string"
        ) from None


def _parse_value(toks: _Tokens):
    tok = toks.next()
    if tok == "[":
        items = []
        if toks.peek() == "]":
            toks.next()
            return items
        while True:
            items.append(_parse_value(toks))
            tok = toks.next()
            if tok == "]":
                return items
            if tok != ",":
                raise ValidationError(f"{toks.where}: expected ',' or ']' in list")
    if tok == "{":
        table = {}
        if toks.peek() == "}":
            toks.next()
            return table
        while True:
            key = toks.next()
            if not (isinstance(key, tuple) and key[0] in ("atom", "str")):
                raise ValidationError(f"{toks.where}: expected a key inside {{...}}")
            toks.expect("=")
            table[key[1]] = _parse_value(toks)
            tok = toks.next()
            if tok == "}":
                return table
            if tok != ",":
                raise ValidationError(f"{toks.where}: expected ',' or '}}' in table")
    if isinstance(tok, tuple):
        return tok[1] if tok[0] == "str" else _atom_value(tok[1], toks.where)
    raise ValidationError(f"{toks.where}: unexpected {tok!r}")


def parse_config_text(text: str) -> dict:
    """Parse the sectioned text into {section: [(key, value), ...]} keeping
    repeated keys in order."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("["):
            if not line.endswith("]"):
                raise ValidationError(f"{where}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in ("lattice", "drive"):
                raise ValidationError(f"{where}: unknown section [{name}]")
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ValidationError(f"{where}: key outside of any [section]")
        if "=" not in line:
            raise ValidationError(f"{where}: expected 'key = value', got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if not key:
            raise ValidationError(f"{where}: empty key")
        toks = _Tokens(rest.strip(), f"{where} ({key})")
        value = _parse_value(toks)
        if not toks.done():
            raise ValidationError(f"{where} ({key}): trailing text after value")
        current.append((key, value))
    return sections


def _number_list(value, field: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, (int, float)) for x in value):
        raise ValidationError(f"{field} must be a list of numbers")
    return [float(x) for x in value]


def _matrix(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{field} must be a non-empty list of rows")
    return [_number_list(row, f"{field} row") for row in value]


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
    if not isinstance(table["to"], int) or not isinstance(table["from"], int):
        raise ValidationError(f"{field}: 'to' and 'from' must be integers")
    offset = table["offset"]
    if not isinstance(offset, list) or not all(isinstance(x, int) for x in offset):
        raise ValidationError(f"{field}: 'offset' must be a list of integers")
    amp = complex(float(table["amplitude_re"]), float(table.get("amplitude_im", 0.0)))
    return Bond(table["to"], table["from"], tuple(offset), amp)


def lattice_from_items(items) -> tuple:
    """Build (LatticeSpec, preset name or None) from the [lattice] section.

    The returned spec is always Hermitian-closed.
    """
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
        return make_preset(name), name
    for req in ("dimension", "bravais", "basis"):
        if req not in keys:
            raise ValidationError(f"[lattice] missing key '{req}'")
    for k in keys:
        if k not in ("dimension", "bravais", "basis", "bond"):
            raise ValidationError(f"[lattice] unknown key '{k}'")
        if k != "bond" and keys.count(k) > 1:
            raise ValidationError(f"[lattice] key '{k}' given more than once")
    if not isinstance(table["dimension"], int):
        raise ValidationError("[lattice] dimension must be an integer")
    bonds = [
        _bond_from_table(v, i + 1)
        for i, (k, v) in enumerate(kv for kv in items if kv[0] == "bond")
    ]
    if not bonds:
        raise ValidationError("[lattice] needs at least one bond")
    spec = LatticeSpec(
        table["dimension"],
        _matrix(table["bravais"], "[lattice] bravais"),
        _matrix(table["basis"], "[lattice] basis"),
        tuple(bonds),
    )
    return close_hermitian(spec), None


def _harmonic_from_table(table, index: int) -> Harmonic:
    field = f"[drive] harmonic #{index}"
    if not isinstance(table, dict):
        raise ValidationError(f"{field} must be an inline table {{...}}")
    unknown = set(table) - {"m", "a", "b"}
    if unknown:
        raise ValidationError(f"{field}: unknown key '{sorted(unknown)[0]}'")
    if "m" not in table or not isinstance(table["m"], int):
        raise ValidationError(f"{field}: integer key 'm' is required")
    if "a" not in table and "b" not in table:
        raise ValidationError(f"{field}: at least one of 'a', 'b' is required")
    a = _number_list(table["a"], f"{field} a") if "a" in table else None
    b = _number_list(table["b"], f"{field} b") if "b" in table else None
    if a is None:
        a = [0.0] * len(b)
    if b is None:
        b = [0.0] * len(a)
    return Harmonic(table["m"], a, b)


def drive_from_items(items) -> DriveSpec:
    keys = [k for k, _ in items]
    for k in keys:
        if k not in ("omega", "harmonic"):
            raise ValidationError(f"[drive] unknown key '{k}'")
    if keys.count("omega") != 1:
        raise ValidationError("[drive] key 'omega' is required exactly once")
    omega = dict(items)["omega"]
    if not isinstance(omega, (int, float)) or isinstance(omega, bool):
        raise ValidationError("[drive] omega must be a number")
    harmonics = [
        _harmonic_from_table(v, i + 1)
        for i, (k, v) in enumerate(kv for kv in items if kv[0] == "harmonic")
    ]
    return DriveSpec(float(omega), tuple(harmonics))


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Parsed config: a closed lattice, an optional drive, and the preset
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
