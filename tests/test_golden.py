"""Golden CLI outputs: replay recorded runs and compare them file by file.

Each case under ``tests/golden/<case>/`` holds the artifacts one CLI call
wrote, plus its stdout with the output directory replaced by ``<out>``. They
are the regression oracle for changes that must keep results: rerun the
recorder only when a change of output is intended,

    PYTHONPATH=src python tests/test_golden.py

Strings, booleans, nulls, and numbers written as integers on both sides must
match exactly. Other floats in ``effective.json`` and ``selection.json`` must
agree to 1e-12 relative (plus 1e-15 absolute, for rounding noise at zero);
every other float (effective energies, quasienergies, errors, fitted slopes)
to 1e-10 absolute.
"""

import csv
import json
import shutil
from pathlib import Path

import pytest

from floquet_forge.cli import main

GOLDEN = Path(__file__).parent / "golden"

CHAIN = ["--preset", "chain", "--omega", "10", "--linear", "13"]
KAGOME = ["--preset", "kagome", "--omega", "25", "--circular", "30"]
CASES = {
    "chain-effective": ["effective", *CHAIN],
    "chain-selection": ["selection-rules", *CHAIN],
    "chain-bands": ["bands", *CHAIN, "--kpoints", "4"],
    "kagome-effective": ["effective", *KAGOME],
    "kagome-selection": ["selection-rules", *KAGOME, "--gauge", "floquet"],
    "kagome-bands": ["bands", *KAGOME, "--kpath", "GMKG", "--kpoints", "3"],
    "zigzag-verify": [
        "verify", "--preset", "zigzag", "--omega", "10", "--circular", "21.2",
        "--order", "1", "--kpoints", "2",
    ],
    "kagome-verify": [
        "verify", "--preset", "kagome", "--omega", "10", "--circular", "30",
        "--order", "1", "--kpoints", "2",
    ],
}
# (relative, absolute) tolerance per file; CSV files and verify.json take the default
TOLERANCE = {"effective.json": (1e-12, 1e-15), "selection.json": (1e-12, 1e-15)}
DEFAULT_TOLERANCE = (0.0, 1e-10)
STDOUT = "stdout.txt"


def _run(argv, outdir: Path, capsys) -> str:
    code = main([*argv, "--output", str(outdir)])
    assert code == 0, f"{argv[0]} exited {code}"
    return capsys.readouterr().out.replace(str(outdir), "<out>")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _compare(want, got, tol: tuple, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), f"{where}: keys differ"
        for key in want:
            _compare(want[key], got[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, tol, f"{where}[{i}]")
    elif _is_int(want) and _is_int(got):
        assert got == want, f"{where}: {got} != {want}"
    elif isinstance(want, float) or isinstance(got, float):
        assert not isinstance(got, bool) and isinstance(got, (int, float)), f"{where}: {got!r}"
        rel, atol = tol
        assert abs(got - want) <= rel * abs(want) + atol, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _compare_file(want: Path, got: Path) -> None:
    name = want.name
    tol = TOLERANCE.get(name, DEFAULT_TOLERANCE)
    if name.endswith(".json"):
        _compare(json.loads(want.read_text()), json.loads(got.read_text()), tol, name)
    elif name.endswith(".csv"):
        with open(want) as fw, open(got) as fg:
            w, g = list(csv.reader(fw)), list(csv.reader(fg))
        assert g[0] == w[0], f"{name}: header differs"
        cells = [[_cell(c) for c in row] for row in w[1:]]
        _compare(cells, [[_cell(c) for c in row] for row in g[1:]], tol, name)
    else:
        assert got.read_text() == want.read_text(), f"{name} differs"


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    out = _run(CASES[case], tmp_path, capsys)
    want_dir = GOLDEN / case
    assert out == (want_dir / STDOUT).read_text()
    written = sorted(p.name for p in tmp_path.iterdir())
    recorded = sorted(p.name for p in want_dir.iterdir() if p.name != STDOUT)
    assert written == recorded
    for name in recorded:
        _compare_file(want_dir / name, tmp_path / name)


def _record() -> None:
    import contextlib
    import io

    for case, argv in CASES.items():
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--output", str(target)])
        assert code == 0, f"{case}: exit {code}"
        (target / STDOUT).write_text(buf.getvalue().replace(str(target), "<out>"))
        print(f"recorded {case}")


if __name__ == "__main__":
    _record()
