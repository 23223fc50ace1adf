import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import jv

import floquet_forge
from floquet_forge import (
    ValidationError,
    beta_general,
    build_effective_model,
    circular_drive,
    lattice_harmonics,
    offset_matrices_at_time,
    preset,
    propagate_period,
)
from floquet_forge.cli import _build_parser, main
from floquet_forge.config import load_config


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_no_arguments_is_a_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error" in err.lower()


def test_check_geometry_reports_both_classes(capsys):
    code, out, _ = run(capsys, "check-geometry", "--preset", "chain")
    assert code == 0 and "Bravais" in out and "vanishes" in out
    code, out, _ = run(capsys, "check-geometry", "--preset", "kagome")
    assert code == 0 and "Non-Bravais" in out and "3-site" in out


def test_fourier_writes_bessel_weights(tmp_path, capsys):
    z, omega = 1.3, 8.0
    code, _, _ = run(
        capsys, "fourier", "--preset", "chain", "--omega", str(omega),
        "--linear", str(z * omega), "--output", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "fourier.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"bond", "n", "re", "im", "abs"}
    got = {
        (r["bond"], int(r["n"])): float(r["abs"]) for r in rows
    }
    for n in range(-4, 5):
        assert abs(got[("0<-0@1", n)] - abs(jv(n, z))) < 1e-12


def test_effective_json_is_deterministic(tmp_path, capsys):
    args = (
        "effective", "--preset", "zigzag", "--omega", "20",
        "--circular", "15", "--gauge", "floquet",
    )
    code, _, _ = run(capsys, *args, "--output", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run(capsys, *args, "--output", str(tmp_path / "b"))
    assert code == 0
    a = (tmp_path / "a" / "effective.json").read_bytes()
    b = (tmp_path / "b" / "effective.json").read_bytes()
    assert a == b
    doc = json.loads(a)
    assert doc["gauge"] == "floquet"
    assert doc["lattice"]["preset"] == "zigzag"
    # circular symmetry kills the zero-offset block, so only +-1 survive
    offsets = {tuple(om["offset"]) for om in doc["order1"]}
    assert offsets == {(-1,), (1,)}
    entry = doc["order1"][0]["matrix"][0][0]
    assert set(entry) == {"re", "im"}


def test_selection_rules_plain_lattice(tmp_path, capsys):
    code, out, _ = run(
        capsys, "selection-rules", "--preset", "lieb", "--output", str(tmp_path)
    )
    assert code == 0
    assert "potentially-finite" in out and "forced-zero" in out
    doc = json.loads((tmp_path / "selection.json").read_text())
    finite = [c for c in doc["couplings"] if c["verdict"] == "potentially-finite"]
    assert len(finite) == 8
    assert (tmp_path / "selection.txt").exists()


def test_selection_rules_with_drive_cross_validates(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[lattice]\n"
        'preset = "kagome"\n'
        "[drive]\n"
        "omega = 18.0\n"
        "harmonic = {m = 1, a = [12.0, 0.0], b = [0.0, 12.0]}\n"
    )
    code, out, _ = run(
        capsys, "selection-rules", "--config", str(cfg), "--output", str(tmp_path)
    )
    assert code == 0
    doc = json.loads((tmp_path / "selection.json").read_text())
    assert doc["cross_validation"]["consistent"] is True


def test_bands_chain_quasienergy_tracks_effective(tmp_path, capsys):
    code, _, _ = run(
        capsys, "bands", "--preset", "chain", "--omega", "8",
        "--linear", "6.0", "--kpoints", "4", "--output", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "bands.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9  # GXG with 4 points per leg
    for r in rows:
        assert abs(float(r["effective_energy"]) - float(r["quasienergy"])) < 1e-8


def test_verify_passes_on_zigzag(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "--preset", "zigzag", "--omega", "10",
        "--circular", "21.2", "--kpoints", "2", "--output", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is True
    assert doc["expected_slope"] == -2
    assert doc["slope"] < -1.7
    with open(tmp_path / "verify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {float(r["omega"]) for r in rows} == {10.0, 20.0, 40.0, 80.0}


def test_prune_must_be_finite_and_non_negative(tmp_path, capsys):
    lieb = ["--preset", "lieb", "--omega", "20", "--circular", "24", "--output", str(tmp_path)]
    for command in ("selection-rules", "effective"):
        for value in ("inf", "-1", "nan"):
            code, out, err = run(capsys, command, *lieb, f"--prune={value}")
            assert code == 1, (command, value)
            assert "--prune" in err and "numerically zero" not in out
    assert list(tmp_path.iterdir()) == []


def test_only_model_commands_take_prune(tmp_path, capsys):
    # verify never reads a pruning threshold, so it refuses one
    code, out, err = run(
        capsys, "verify", "--preset", "zigzag", "--omega", "10", "--circular", "21.2",
        "--order", "1", "--kpoints", "2", "--prune", "1e9", "--output", str(tmp_path),
    )
    assert code == 1
    assert "--prune" in err and not out
    assert list(tmp_path.iterdir()) == []
    parser = _build_parser()
    for command in ("effective", "selection-rules", "bands"):
        assert parser.parse_args([command, "--prune", "0.5"]).prune == 0.5


def test_every_route_refuses_a_drive_of_the_wrong_dimension(tmp_path, capsys):
    # one rule, one message: config file, command line, and every function
    # that takes a lattice and a drive
    want = "drive force has 2 components, lattice lives in 1 Cartesian dimensions"
    chain, drive = preset("chain"), circular_drive(10.0, 2.0)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        '[lattice]\npreset = "chain"\n[drive]\nomega = 10.0\n'
        "harmonic = {m = 1, a = [2.0, 0.0], b = [0.0, 2.0]}\n"
    )
    messages = []
    for call in (
        lambda: load_config(cfg),
        lambda: propagate_period(chain, drive, np.array([0.3])),
        lambda: offset_matrices_at_time(chain, drive, 0.0),
        lambda: lattice_harmonics(chain, drive),
        lambda: build_effective_model(chain, drive),
        lambda: beta_general(chain, drive, "static-free", *chain.bonds[:2]),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        messages.append(str(info.value))
    out = str(tmp_path / "out")
    for flags in (
        ["--config", str(cfg)],
        ["--preset", "chain", "--omega", "10", "--circular", "2"],
        ["--preset", "chain", "--omega", "10", "--linear", "2,0"],
    ):
        code, _, err = run(capsys, "effective", *flags, "--output", out)
        assert code == 1
        messages.append(err.strip().removeprefix("error: "))
    assert messages == [want] * 9
    assert not (tmp_path / "out").exists()


def test_zero_prune_cross_validates(tmp_path, capsys):
    # forced-zero couplings hold only rounding noise (|B| ~ 1e-35 here)
    lieb = ["--preset", "lieb", "--omega", "20", "--circular", "24", "--output", str(tmp_path)]
    code, out, err = run(capsys, "selection-rules", *lieb, "--prune=0")
    assert code == 0, err
    assert "numerically zero" in out


def test_runs_as_a_module(tmp_path):
    src = str(Path(floquet_forge.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "floquet_forge", "check-geometry", "--preset", "kagome"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Non-Bravais" in done.stdout


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    bad = [
        ["check-geometry"],
        ["check-geometry", "--preset", "cubic"],
        ["check-geometry", "--preset", "chain", "--config", "x.cfg"],
        ["fourier", "--preset", "chain"],
        ["fourier", "--preset", "chain", "--omega", "5", "--circular", "1"],
        ["fourier", "--config", str(tmp_path / "missing.cfg")],
        ["verify", "--preset", "zigzag", "--omega", "10", "--circular", "2", "--omegas", "10,20"],
        ["verify", "--preset", "zigzag", "--omega", "10", "--circular", "2", "--omegas", "a,b,c,d"],
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert "error" in err.lower(), argv


def test_cli_surface_is_pinned():
    # every flag of every subcommand; an added or removed flag shows up here
    common = ["--circular", "--config", "--linear", "--omega", "--output", "--preset"]
    model = common + ["--cutoff", "--gauge"]
    sweep = model + ["--kpath", "--kpoints", "--order"]
    want = {
        None: ["--version"],
        "check-geometry": common,
        "fourier": common + ["--cutoff"],
        "effective": model + ["--prune"],
        "selection-rules": model + ["--prune"],
        "bands": sweep + ["--prune"],
        "verify": sweep + ["--omegas"],
    }
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {None: parser, **sub.choices}
    assert list(got) == list(want)
    for name, p in got.items():
        flags = sorted(s for a in p._actions for s in a.option_strings)
        assert flags == sorted(want[name] + ["--help", "-h"]), name


def test_steps_flag_is_gone(tmp_path, capsys):
    # the integrator's starting resolution is fixed; a large value used to
    # compute a whole propagator and then exit 2 with a false "did not settle"
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13", "--kpoints", "2"]
    for command in ("bands", "verify"):
        code, out, err = run(capsys, command, *chain, "--steps", "5000", "--output", str(tmp_path))
        assert code == 1, command
        assert "--steps" in err and not out
    assert list(tmp_path.iterdir()) == []


def test_output_that_is_not_a_directory_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13"]
    for target in (taken, taken / "below"):
        code, out, err = run(capsys, "fourier", *chain, "--output", str(target))
        assert code == 1
        assert err.startswith("error:") and "--output" in err and not out
    assert taken.read_text() == "keep"


def test_fourier_refuses_a_cutoff_above_the_cap(tmp_path, capsys):
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13", "--output", str(tmp_path)]
    code, out, err = run(capsys, "fourier", *chain, "--cutoff", "257")
    assert code == 1
    assert "cutoff" in err and not out
    assert list(tmp_path.iterdir()) == []
