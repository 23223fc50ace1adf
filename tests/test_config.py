import importlib.util
import textwrap
from pathlib import Path

import numpy as np
import pytest

import floquet_forge
from floquet_forge import ValidationError, config
from floquet_forge.config import (
    drive_from_items,
    lattice_from_items,
    load_config,
    parse_config_text,
)


def test_parse_sections_and_values():
    text = """
# leading comment
[lattice]
preset = "kagome"   # trailing comment

[drive]
omega = 20.0
harmonic = {m = 1, a = [30.0, 0.0], b = [0.0, 30.0]}
harmonic = {m = 2, b = [1.0, -2.5]}
"""
    sections = parse_config_text(text)
    assert set(sections) == {"lattice", "drive"}
    assert sections["lattice"] == [("preset", "kagome")]
    keys = [k for k, _ in sections["drive"]]
    assert keys == ["omega", "harmonic", "harmonic"]
    m2 = sections["drive"][2][1]
    assert m2 == {"m": 2, "b": [1.0, -2.5]}


def test_parse_scalar_types():
    got = dict(parse_config_text("[drive]\nomega = 7\n")["drive"])
    assert got["omega"] == 7 and isinstance(got["omega"], int)
    items = parse_config_text('[lattice]\npreset = "a # b"\n')["lattice"]
    assert items == [("preset", "a # b")]
    flags = parse_config_text("[drive]\nomega = true\n")["drive"]
    assert flags == [("omega", True)]


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(ValidationError, match="line 2"):
        parse_config_text("[lattice]\npreset 'kagome'\n")
    with pytest.raises(ValidationError, match="unknown section"):
        parse_config_text("[sweep]\n")
    with pytest.raises(ValidationError, match="outside"):
        parse_config_text("omega = 3\n")
    with pytest.raises(ValidationError, match="line 2"):
        parse_config_text("[drive]\nomega = 3 4\n")
    with pytest.raises(ValidationError, match="line 3"):
        parse_config_text("[drive]\nomega = 1\nharmonic = {m = }\n")


ROOT = Path(__file__).resolve().parents[1]
ZIGZAG_LATTICE = [
    ("dimension", 1),
    ("bravais", [[1.0, 0.0]]),
    ("basis", [[0.0, 0.0], [0.5, 0.5]]),
    ("bond", {"to": 1, "from": 0, "offset": [0], "amplitude_re": -1.0}),
    ("bond", {"to": 0, "from": 1, "offset": [1], "amplitude_re": -1.0}),
]


def _two_harmonics(a1, a2x, a2y):
    return [
        ("omega", 12.5),
        ("harmonic", {"m": 1, "a": [a1, 0.0], "b": [0.0, a1]}),
        ("harmonic", {"m": 2, "a": [a2x, a2y]}),
    ]


def _documented_forms(tmp_path):
    readme = (ROOT / "README.md").read_text().split("### Config files")[1]
    yield "README", readme.split("```toml\n")[1].split("```")[0]
    doc = config.__doc__
    example = doc[doc.index("    [lattice]"):doc.index("\n\n", doc.index("    [drive]"))]
    yield "docstring", textwrap.dedent(example)
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (0, 1):
        cli_workload = workloads.Cli(floquet_forge, seed, str(tmp_path / f"seed{seed}"))
        yield f"bench seed {seed}", Path(cli_workload.argvs[2][-1]).read_text()


def test_documented_forms_parse_as_before(tmp_path):
    # items recorded with the hand-written parser this one replaced; repr
    # comparison also pins int against float and the order of table keys
    want = {
        "README": {
            "lattice": [("preset", "zigzag")],
            "drive": _two_harmonics(6.0, 1.0, 0.5),
        },
        "docstring": {
            "lattice": [
                ("preset", "kagome"),
                ("dimension", 1),
                ("bravais", [[1.0]]),
                ("basis", [[0.0]]),
                ("bond", {"to": 0, "from": 0, "offset": [1], "amplitude_re": -1.0}),
            ],
            "drive": [("omega", 20.0), ("harmonic", {"m": 1, "a": [30.0, 0.0], "b": [0.0, 30.0]})],
        },
        "bench seed 0": {"lattice": ZIGZAG_LATTICE, "drive": _two_harmonics(6.0, 1.0, 0.5)},
        "bench seed 1": {
            "lattice": ZIGZAG_LATTICE,
            "drive": _two_harmonics(5.920718296033277, 0.9867863826722127, 0.4933931913361064),
        },
    }
    got = dict(_documented_forms(tmp_path))
    assert list(got) == list(want)
    for name, text in got.items():
        assert repr(parse_config_text(text)) == repr(want[name]), name


@pytest.mark.parametrize(
    "line",
    [
        "omega = .5",
        "omega = 5.",
        "omega = 01",
        "omega = Infinity",
        "my key = 1",
        "harmonic = {m = 1, m = 2}",
        'preset = "\\d"',
    ],
)
def test_forms_outside_toml_are_refused(line):
    with pytest.raises(ValidationError, match=r"^line 2\b") as info:
        parse_config_text("[drive]\n" + line + "\n")
    assert "\n" not in str(info.value) and "at line" not in str(info.value)


def test_toml_forms_parse_as_toml():
    cases = {
        "preset = 'single-quoted'": "single-quoted",
        "a = [1, 2,]": [1, 2],
        "omega = 0x10": 16,
        'preset = "a\\nb"': "a\nb",
    }
    for line, value in cases.items():
        ((_, got),) = parse_config_text("[drive]\n" + line + "\n")["drive"]
        assert got == value, line


def test_parse_diagnostic_names_line_key_and_column():
    # tomllib's wording may change between Python versions; the frame may not
    with pytest.raises(ValidationError, match=r"^line 2 \(omega\): \w.* \(column 9\)$"):
        parse_config_text("[drive]\nomega = .5\n")


def test_lattice_from_preset_excludes_other_keys():
    lat, name = lattice_from_items([("preset", "chain")])
    assert name == "chain" and lat.basis_count == 1
    with pytest.raises(ValidationError, match="excludes"):
        lattice_from_items([("preset", "chain"), ("dimension", 1)])
    with pytest.raises(ValidationError, match="quoted"):
        lattice_from_items([("preset", 3)])


def test_lattice_from_explicit_keys():
    items = [
        ("dimension", 1),
        ("bravais", [[1.0]]),
        ("basis", [[0.0], [0.5]]),
        ("bond", {"to": 1, "from": 0, "offset": [0], "amplitude_re": -1.0}),
        ("bond", {"to": 0, "from": 1, "offset": [1], "amplitude_re": -0.5, "amplitude_im": 0.25}),
    ]
    lat, name = lattice_from_items(items)
    assert name is None
    assert {b.conjugate() for b in lat.bonds} == set(lat.bonds)
    assert lat.basis_count == 2 and len(lat.bonds) == 4
    amp = {(b.target_basis, b.source_basis, b.cell_offset): b.amplitude for b in lat.bonds}
    assert amp[(0, 1, (1,))] == -0.5 + 0.25j


def test_lattice_requires_bond_and_integer_offsets():
    base = [("dimension", 1), ("bravais", [[1.0]]), ("basis", [[0.0]])]
    with pytest.raises(ValidationError, match="at least one bond"):
        lattice_from_items(base)
    with pytest.raises(ValidationError, match="bond #1: 'offset' entry must be an integer"):
        lattice_from_items(
            base + [("bond", {"to": 0, "from": 0, "offset": [1.5], "amplitude_re": 1.0})]
        )
    with pytest.raises(ValidationError, match="missing key"):
        lattice_from_items(base + [("bond", {"to": 0, "from": 0, "offset": [1]})])
    with pytest.raises(ValidationError, match="unknown key"):
        lattice_from_items(
            base + [("bond", {"to": 0, "from": 0, "offset": [1], "amplitude_re": 1.0, "j": 2})]
        )


_HARMONIC = {"m": 1, "a": [1.0, 0.0]}

# structural refusals of the two sections: (a call, the start of its message)
STRUCTURE_REFUSALS = {
    "bond not a table": (
        lambda: lattice_from_items(ZIGZAG_LATTICE + [("bond", 5)]),
        r"\[lattice\] bond #3 must be an inline table",
    ),
    "offset not a list": (
        lambda: lattice_from_items(_zigzag(offset=0)),
        r"\[lattice\] bond #1: 'offset' must be a list",
    ),
    "missing lattice key": (
        lambda: lattice_from_items(ZIGZAG_LATTICE[:2] + ZIGZAG_LATTICE[3:]),
        r"\[lattice\] missing key 'basis'",
    ),
    "unknown lattice key": (
        lambda: lattice_from_items(ZIGZAG_LATTICE + [("colour", 1)]),
        r"\[lattice\] unknown key 'colour'",
    ),
    "repeated lattice key": (
        lambda: lattice_from_items(ZIGZAG_LATTICE + [("dimension", 1)]),
        r"\[lattice\] key 'dimension' given more than once",
    ),
    "harmonic not a table": (
        lambda: drive_from_items([("omega", 5), ("harmonic", 5)]),
        r"\[drive\] harmonic #1 must be an inline table",
    ),
    "unknown harmonic key": (
        lambda: drive_from_items([("omega", 5), ("harmonic", {**_HARMONIC, "c": 2})]),
        r"\[drive\] harmonic #1: unknown key 'c'",
    ),
    "harmonic without m": (
        lambda: drive_from_items([("omega", 5), ("harmonic", {"a": [1.0, 0.0]})]),
        r"\[drive\] harmonic #1: missing key 'm'",
    ),
    "unknown drive key": (
        lambda: drive_from_items([("omega", 5), ("phase", 0.5)]),
        r"\[drive\] unknown key 'phase'",
    ),
}


@pytest.mark.parametrize("case", STRUCTURE_REFUSALS)
def test_structure_refusals_name_the_section_and_key(case):
    call, message = STRUCTURE_REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^{message}"):
        call()


def _drive(omega, *harmonics):
    return drive_from_items([("omega", omega), *(("harmonic", h) for h in harmonics or (_HARMONIC,))])


# refusals of the library constructors, prefixed with where in the file they come from
CONSTRUCTOR_REFUSALS = {
    "omega not positive": (
        lambda: _drive(-5.0),
        "[drive] omega must be finite and positive, got -5.0",
    ),
    "harmonic index zero": (
        lambda: _drive(5.0, {"m": 0, "a": [1.0, 0.0]}),
        "[drive] harmonic #1: harmonic index must be >= 1, got 0",
    ),
    "amplitude not finite": (
        lambda: _drive(5.0, {"m": 1, "a": [float("inf"), 0.0]}),
        "[drive] harmonic #1: harmonic m=1: cos_amplitude must be finite, got [inf  0.]",
    ),
    "repeated harmonic index": (
        lambda: _drive(5.0, _HARMONIC, _HARMONIC),
        "[drive] duplicate harmonic index m=1",
    ),
    "cos and sin lengths differ": (
        lambda: _drive(5.0, {"m": 1, "a": [1.0, 0.0], "b": [1.0]}),
        "[drive] harmonic #1: harmonic m=1: cos and sin amplitudes differ in length",
    ),
    "bravais not finite": (
        lambda: lattice_from_items(
            [("dimension", 1), ("bravais", [[float("nan"), 0.0]]), *ZIGZAG_LATTICE[2:]]
        ),
        "[lattice] bravais_vectors must be finite, got [[nan, 0.0]]",
    ),
    "zero amplitude": (
        lambda: lattice_from_items(_zigzag(amplitude_re=0.0)),
        "[lattice] bond #1: bond (1<-0, offset=(0,)): amplitude must be nonzero",
    ),
    "basis index out of range": (
        lambda: lattice_from_items(_zigzag(**{"from": 2})),
        "[lattice] bond (1<-2, offset=(0,)): basis index out of range",
    ),
    "unknown preset": (
        lambda: lattice_from_items([("preset", "cubic")]),
        "[lattice] preset: unknown preset 'cubic'",
    ),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_REFUSALS)
def test_constructor_refusals_name_the_section_or_item(case):
    call, message = CONSTRUCTOR_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value).startswith(message)


def test_drive_from_items():
    d = drive_from_items([("omega", 5), ("harmonic", {"m": 1, "a": [1.0, 0.0]})])
    assert d.omega == 5.0
    assert np.allclose(d.harmonics[0].sin_amplitude, [0.0, 0.0])
    with pytest.raises(ValidationError, match="exactly once"):
        drive_from_items([("harmonic", {"m": 1, "a": [1.0]})])
    with pytest.raises(ValidationError, match="exactly once"):
        drive_from_items([("omega", 1), ("omega", 2)])
    with pytest.raises(ValidationError, match=r"\[drive\] omega must be a real number"):
        drive_from_items([("omega", True)])
    with pytest.raises(ValidationError, match="at least one of"):
        drive_from_items([("omega", 5), ("harmonic", {"m": 1})])


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[lattice]\n"
        'preset = "zigzag"\n'
        "[drive]\n"
        "omega = 12.5\n"
        "harmonic = {m = 1, a = [3.0, 0.0], b = [0.0, 3.0]}\n"
    )
    cfg = load_config(p)
    assert cfg.preset == "zigzag"
    assert cfg.lattice.basis_count == 2
    assert cfg.drive.omega == 12.5


def test_load_config_reports_missing_file_and_dim_mismatch(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")
    p = tmp_path / "bad.cfg"
    p.write_text(
        "[lattice]\n"
        'preset = "chain"\n'
        "[drive]\n"
        "omega = 5.0\n"
        "harmonic = {m = 1, a = [1.0, 2.0]}\n"
    )
    with pytest.raises(ValidationError, match="Cartesian"):
        load_config(p)
    q = tmp_path / "nodrive.cfg"
    q.write_text('[lattice]\npreset = "lieb"\n')
    cfg = load_config(q)
    assert cfg.drive is None
    r = tmp_path / "nolattice.cfg"
    r.write_text("[drive]\nomega = 5.0\n")
    with pytest.raises(ValidationError, match=r"^config has no \[lattice\] section"):
        load_config(r)


def _zigzag(dimension=1, **bond):
    """ZIGZAG_LATTICE with ``dimension`` and keys of its first bond replaced."""
    first = ("bond", {**ZIGZAG_LATTICE[3][1], **bond})
    return [("dimension", dimension), *ZIGZAG_LATTICE[1:3], first, ZIGZAG_LATTICE[4]]


def test_integer_fields_refuse_booleans_and_non_integers():
    cases = [
        (lambda v: lattice_from_items(_zigzag(dimension=v)), "dimension"),
        (lambda v: lattice_from_items(_zigzag(to=v)), "bond #1: 'to'"),
        (lambda v: lattice_from_items(_zigzag(**{"from": v})), "bond #1: 'from'"),
        (lambda v: drive_from_items([("omega", 5), ("harmonic", {"m": v, "a": [1.0]})]), "'m'"),
    ]
    for build, field in cases:
        for value in (True, 1.0, "1"):
            with pytest.raises(ValidationError, match=field):
                build(value)


def test_integer_lists_refuse_booleans():
    for offset in ([True], [1.0], [0, "1"]):
        with pytest.raises(ValidationError, match="bond #1: 'offset' entry must be an integer"):
            lattice_from_items(_zigzag(offset=offset))


def test_number_fields_refuse_booleans_and_non_numbers():
    for key in ("amplitude_re", "amplitude_im"):
        for value in (True, "x", [1]):
            with pytest.raises(ValidationError, match=f"bond #1: '{key}' must be a real number"):
                lattice_from_items(_zigzag(**{key: value}))


def test_number_lists_refuse_booleans():
    with pytest.raises(ValidationError, match="harmonic #1: 'a' must be real numbers"):
        drive_from_items([("omega", 5), ("harmonic", {"m": 1, "a": [6.0, True]})])
    with pytest.raises(ValidationError, match="harmonic #1: 'b' must be real numbers"):
        drive_from_items([("omega", 5), ("harmonic", {"m": 1, "b": [False, 1.0]})])
    # a scalar vector names the config field, not Harmonic's cos_amplitude
    with pytest.raises(ValidationError, match=r"^\[drive\] harmonic #1: 'a' must be a list of"):
        drive_from_items([("omega", 5), ("harmonic", {"m": 1, "a": 1.0})])
    for key in ("bravais", "basis"):
        items = [(k, [[True, 0.0]] if k == key else v) for k, v in _zigzag()]
        with pytest.raises(ValidationError, match=f"{key} must be real numbers"):
            lattice_from_items(items)
