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
    Gauge,
    ValidationError,
    build_effective_model,
    circular_drive,
    lattice_harmonics,
    preset,
    propagate_period,
)
from floquet_forge import serialization
from floquet_forge.cli import _build_parser, main
from floquet_forge.config import load_config
from floquet_forge.floquet import offset_matrices_at_time
from floquet_forge.selection import ConsistencyVerdict
from helpers import count_bloch_matrices, count_propagations


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
        for value in ("inf", "-1", "nan", "abc"):
            code, out, err = run(capsys, command, *lieb, f"--prune={value}")
            assert code == 1, (command, value)
            assert "--prune" in err and "numerically zero" not in out
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_gauge_is_refused_before_any_output_is_created(tmp_path, capsys):
    # the gauge used to be read after --output was created, and the message
    # named "gauge", not the flag
    out = tmp_path / "out"
    kagome = ["--preset", "kagome", "--omega", "20", "--circular", "30", "--output", str(out)]
    for command in ("effective", "selection-rules", "bands", "verify"):
        code, got, err = run(capsys, command, *kagome, "--gauge", "magnus")
        assert (code, got) == (1, ""), command
        assert err.startswith("error: argument --gauge: ") and "'magnus'" in err, command
        assert not out.exists(), command
    parser = _build_parser()
    assert parser.parse_args(["verify", "--gauge", " Floquet "]).gauge is Gauge.FLOQUET
    assert parser.parse_args(["bands"]).gauge is Gauge.STATIC_FREE


def test_a_bad_omegas_list_is_refused_before_any_output_is_created(tmp_path, capsys):
    # the sweep rule used to run inside error_matrix, after --output was created
    out = tmp_path / "out"
    zigzag = ["--preset", "zigzag", "--omega", "10", "--circular", "21.2", "--output", str(out)]
    refused = {
        "nan,20,40,80": "omegas entry must be finite and positive, got nan",
        "10,20,40": "sweep needs at least 4 frequencies, got 3",
        "10,10,40,80": "sweep frequencies must be distinct",
        "0,20,40,80": "omegas entry must be finite and positive, got 0.0",
    }
    for omegas, message in refused.items():
        code, got, err = run(capsys, "verify", *zigzag, f"--omegas={omegas}")
        assert (code, got, err) == (1, "", f"error: {message}\n"), omegas
        assert not out.exists(), omegas


def test_kpoints_must_be_a_positive_integer(tmp_path, capsys):
    # 0 and -2 used to reach named_kpath: "error: per_segment must be >= 1, got 0"
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13", "--output", str(tmp_path)]
    for command, value in [("bands", "0"), ("verify", "-2")]:
        code, out, err = run(capsys, command, *chain, "--kpoints", value)
        assert (code, out) == (1, ""), command
        assert err == f"error: argument --kpoints: must be an integer >= 1, got {value}\n"
    for value in ("abc", "1.5"):
        code, out, err = run(capsys, "bands", *chain, "--kpoints", value)
        assert (code, out, err) == (1, "", f"error: argument --kpoints: invalid int value: {value!r}\n")
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
    assert messages == [want] * 8
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


def test_runtime_imports_no_scipy(tmp_path):
    # A fresh interpreter: numpy is the one run-time dependency. scipy stays
    # a test dependency and must not come back through the package.
    code = (
        "import sys, floquet_forge\n"
        "from floquet_forge.cli import main\n"
        "assert main(['verify', '--preset', 'zigzag', '--omega', '10', '--circular', '21.2',"
        " '--kpoints', '2', '--output', 'verify']) == 0\n"
        "assert main(['bands', '--preset', 'kagome', '--omega', '10', '--circular', '15',"
        " '--kpoints', '2', '--output', 'bands']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(floquet_forge.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]", done.stdout
    assert (tmp_path / "verify" / "verify.csv").exists()
    assert (tmp_path / "bands" / "bands.csv").exists()


def test_cli_validation_failures_exit_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('[lattice]\npreset = "kagome"\n[drive]\nomega = 18.0\nharmonic = {m = 1, a = [12.0, 0.0]}\n')
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
    # the refusals of the lattice and drive flags, each by its message
    named = [
        (["--preset", "chain", "--config", str(cfg)], "give either --preset or --config, not both"),
        (["--config", str(cfg), "--omega", "5", "--circular", "1"],
         "drive given both in config [drive] and on the command line"),
        (["--preset", "chain", "--circular", "1"], "--circular/--linear require --omega"),
        (["--preset", "kagome", "--omega", "5", "--circular", "1", "--linear", "1,2"],
         "give either --circular or --linear, not both"),
        (["--preset", "chain", "--omega", "5"], "--omega requires --circular or --linear"),
        (["--preset", "chain", "--omega", "5", "--linear", "1,x"],
         "--linear must be comma-separated numbers, got '1,x'"),
    ]
    for argv, message in named:
        code, out, err = run(capsys, "fourier", *argv, "--output", str(tmp_path / "out"))
        assert (code, out, err) == (1, "", f"error: {message}\n"), argv
    # --omegas is read by the same list reader as --linear
    code, out, err = run(
        capsys, "verify", "--preset", "zigzag", "--omega", "10", "--circular", "2",
        "--omegas", "10,,40", "--output", str(tmp_path / "out"),
    )
    assert (code, out, err) == (1, "", "error: --omegas must be comma-separated numbers, got '10,,40'\n")
    assert not (tmp_path / "out").exists()


def test_an_overflowing_drive_phase_exits_1_with_one_line(tmp_path, capsys):
    # F.a/omega = 1e310: numpy warnings and a false "Parseval tail mass nan" before
    code, out, err = run(
        capsys, "bands", "--preset", "chain", "--omega", "1e-300", "--linear", "1e10",
        "--output", str(tmp_path),
    )
    assert code == 1 and not out
    assert err == (
        "error: harmonic m=1: bond phase is not finite "
        "(F.a/(m omega) or m omega t overflows at omega=1e-300)\n"
    )
    assert list(tmp_path.iterdir()) == []
    # verify rescales the drive to omega = 10 first: its amplitude overflows
    code, out, err = run(
        capsys, "verify", "--preset", "chain", "--omega", "1e-300", "--linear", "1e10",
        "--output", str(tmp_path),
    )
    assert code == 1 and not out
    assert err == "error: harmonic m=1: cos_amplitude must be finite, got [inf]\n"


def test_verification_failures_exit_2(tmp_path, capsys):
    # a slope the order cannot promise: both artifacts are written, then exit 2
    code, _, err = run(
        capsys, "verify", "--preset", "zigzag", "--omega", "4", "--circular", "24",
        "--order", "1", "--omegas", "1,2,4,8", "--kpoints", "1", "--output", str(tmp_path / "slope"),
    )
    assert code == 2
    assert err.startswith("inconsistency: fitted error slope ")
    assert err.endswith(" is shallower than -2 + 0.3 margin\n")
    assert json.loads((tmp_path / "slope" / "verify.json").read_text())["passed"] is False
    # order 0 is exact on a one-point basis: every error is at the floor, no fit
    code, out, err = run(
        capsys, "verify", "--preset", "chain", "--omega", "10", "--linear", "13",
        "--order", "0", "--kpoints", "1", "--output", str(tmp_path / "floor"),
    )
    assert code == 2 and not out
    assert err == (
        "inconsistency: fewer than two sweep points above the error floor at distinct "
        "frequencies; no slope can be fit; at the floor: omega=10 (error 2.22e-16), "
        "omega=20 (error 2.22e-16), omega=40 (error 4.44e-16), omega=80 (error 0.00e+00)\n"
    )
    assert list((tmp_path / "floor").iterdir()) == []


def test_verify_notes_the_points_its_fit_leaves_out(tmp_path, capsys):
    # a weak kagome drive: the omega=80 error sits below the floor, the fit passes
    code, out, err = run(
        capsys, "verify", "--preset", "kagome", "--omega", "10", "--circular", "0.0015",
        "--order", "1", "--kpoints", "1", "--output", str(tmp_path),
    )
    assert code == 0
    assert out.endswith(": slope -2.028 (expected about -2)\n")
    assert err == (
        "note: the fit leaves out sweep points at the numerical error floor: "
        "omega=80 (error 5.28e-12)\n"
    )
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["passed"] is True and doc["excluded_omegas"] == [80.0]


def test_selection_rules_violation_exits_2(tmp_path, capsys, monkeypatch):
    # the cross-check's own failure path: its artifacts are written, then exit 2
    message = (
        "coupling 0->1 at offset (0, 0) is forced zero but has |B| = 1.000e+00 "
        "(threshold 1.000e-10)"
    )
    verdict = ConsistencyVerdict(False, (message,))
    monkeypatch.setattr("floquet_forge.cli.cross_validate", lambda *a, **k: verdict)
    code, out, err = run(
        capsys, "selection-rules", "--preset", "lieb", "--omega", "20", "--circular", "24",
        "--output", str(tmp_path),
    )
    assert code == 2 and "cross-validation" not in out
    assert err == f"inconsistency: {message}\n"
    doc = json.loads((tmp_path / "selection.json").read_text())
    assert doc["cross_validation"] == {"checked": True, "consistent": False, "violations": [message]}


def test_cli_surface_is_pinned():
    # every flag of every subcommand; an added or removed flag shows up here
    common = ["--circular", "--config", "--linear", "--omega", "--output", "--preset"]
    model = common + ["--cutoff", "--gauge"]
    sweep = model + ["--kpath", "--kpoints", "--order"]
    want = {
        None: ["--version"],
        "check-geometry": ["--config", "--preset"],
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


def test_an_artifact_that_cannot_be_written_exits_1_with_one_line(tmp_path, capsys):
    # a directory where a file goes: one line naming the path, not a
    # traceback, and none of the command's artifacts or temporaries left
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13"]
    zigzag = ["--preset", "zigzag", "--omega", "10", "--circular", "21.2"]
    for argv, name in (
        (["fourier", *chain], "fourier.csv"),
        (["effective", *chain], "effective.json"),
        (["selection-rules", "--preset", "lieb"], "selection.json"),
        (["selection-rules", "--preset", "lieb"], "selection.txt"),
        (["bands", *chain, "--kpoints", "4"], "bands.csv"),
        (["verify", *zigzag, "--kpoints", "2"], "verify.csv"),
        (["verify", *zigzag, "--kpoints", "2"], "verify.json"),
    ):
        blocked = tmp_path / name / name
        blocked.mkdir(parents=True)
        code, _, err = run(capsys, *argv, "--output", str(blocked.parent))
        assert code == 1, argv
        assert err == f"error: cannot write {blocked}: Is a directory\n"
        assert list(blocked.parent.iterdir()) == [blocked], name
        assert not any(blocked.iterdir())


def test_a_failed_write_keeps_no_artifact_and_propagates_other_errors(tmp_path):
    # an error that is not an OSError, such as a refused non-finite value,
    # removes the temporaries already written and is raised unchanged
    def refuse(path, obj):
        serialization.fmt_float(float("nan"))

    with pytest.raises(ValidationError, match="^non-finite value nan cannot be serialized$"):
        serialization.write_all(str(tmp_path), [
            ("a.txt", serialization.write_text, "x\n"), ("b.json", refuse, {}),
        ])
    assert list(tmp_path.iterdir()) == []
    paths = serialization.write_all(str(tmp_path), [("a.txt", serialization.write_text, "x\n")])
    assert paths == [str(tmp_path / "a.txt")] and list(tmp_path.iterdir()) == [tmp_path / "a.txt"]


def test_commands_that_need_a_drive_refuse_to_run_without_one(tmp_path, capsys):
    # one declaration per command, one refusal, before --output is created
    target = tmp_path / "out"
    want = (
        "error: this command needs a drive: add a [drive] section or --omega "
        "with --circular/--linear\n"
    )
    for command in ("fourier", "effective", "bands", "verify"):
        code, out, err = run(capsys, command, "--preset", "lieb", "--output", str(target))
        assert (code, out, err) == (1, "", want), command
        assert not target.exists()
    assert run(capsys, "check-geometry", "--preset", "lieb")[::2] == (0, "")
    code, _, err = run(capsys, "selection-rules", "--preset", "lieb", "--output", str(target))
    assert (code, err) == (0, "")


def test_check_geometry_takes_only_a_lattice(tmp_path, capsys):
    # it writes nothing and reads no drive, so --output and the drive flags
    # used to be accepted and ignored
    target = tmp_path / "c"
    for flags in (
        ["--omega", "10", "--circular", "3", "--output", str(target)],
        ["--output", str(target)],
        ["--omega", "10"],
        ["--circular", "3"],
        ["--linear", "1,0"],
    ):
        code, out, err = run(capsys, "check-geometry", "--preset", "kagome", *flags)
        assert (code, out) == (1, ""), flags
        assert err.startswith("error: unrecognized arguments: ") and flags[0] in err, flags
    assert not target.exists()
    # a config's [drive] section is optional for it, and still read by no one
    cfg = tmp_path / "run.cfg"
    cfg.write_text('[lattice]\npreset = "kagome"\n[drive]\nomega = 18.0\nharmonic = {m = 1, a = [12.0, 0.0]}\n')
    code, out, err = run(capsys, "check-geometry", "--config", str(cfg))
    assert (code, err) == (0, "") and out.startswith("Non-Bravais")


def test_selection_rules_refuses_model_flags_without_a_drive(tmp_path, capsys):
    # without a drive there is no model for --gauge, --cutoff or --prune to
    # act on; they used to be accepted and to leave the artifacts unchanged
    target = tmp_path / "out"
    tail = " needs a drive: add a [drive] section or --omega with --circular/--linear\n"
    for flags, flag in (
        (["--gauge", "floquet"], "--gauge"),
        (["--gauge", "static-free"], "--gauge"),
        (["--gau", "floquet"], "--gauge"),
        (["--cutoff", "8"], "--cutoff"),
        (["--prune", "0.5"], "--prune"),
        (["--prune=1e-10"], "--prune"),
        (["--prune", "0.5", "--gauge", "floquet", "--cutoff", "8"], "--prune"),
    ):
        code, out, err = run(capsys, "selection-rules", "--preset", "lieb", *flags, "--output", str(target))
        assert (code, out, err) == (1, "", f"error: {flag}{tail}"), flags
    assert not target.exists()
    # with a drive, from the flags or a config, each of them acts
    cfg = tmp_path / "run.cfg"
    cfg.write_text('[lattice]\npreset = "lieb"\n[drive]\nomega = 20.0\nharmonic = {m = 1, a = [24.0, 0.0], b = [0.0, 24.0]}\n')
    for inputs in (["--preset", "lieb", "--omega", "20", "--circular", "24"], ["--config", str(cfg)]):
        flags = ["--prune", "0.5", "--gauge", "floquet", "--cutoff", "8"]
        code, out, err = run(capsys, "selection-rules", *inputs, *flags, "--output", str(target))
        assert (code, err) == (0, ""), inputs
        assert "numerically zero" in out


def test_a_config_lattice_without_bonds_is_refused_with_the_library_text(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[lattice]\ndimension = 1\nbravais = [[1.0]]\nbasis = [[0.0], [0.5]]\n")
    code, out, err = run(capsys, "check-geometry", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: [lattice] bonds must hold at least one bond, got none\n"


def test_fourier_refuses_a_cutoff_above_the_cap(tmp_path, capsys):
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13", "--output", str(tmp_path)]
    code, out, err = run(capsys, "fourier", *chain, "--cutoff", "257")
    assert code == 1
    assert "cutoff" in err and not out
    assert list(tmp_path.iterdir()) == []


def test_cutoff_out_of_range_is_refused_while_the_flags_are_parsed(tmp_path, capsys):
    # named by its flag, before --output is created
    chain = ["--preset", "chain", "--omega", "10", "--linear", "13"]
    target = tmp_path / "D"
    for command in ("fourier", "effective", "selection-rules", "bands", "verify"):
        for value in ("0", "-3", "257", "999"):
            code, out, err = run(capsys, command, *chain, "--cutoff", value, "--output", str(target))
            assert (code, out) == (1, ""), (command, value)
            assert err == f"error: argument --cutoff: must be an integer in [1, 256], got {value}\n"
    assert not target.exists()


def test_cutoff_overflow_exits_1(tmp_path, capsys):
    # CutoffTooSmallError is a ValidationError: the input asks for more than the cap
    for argv in (
        ["effective", "--preset", "kagome", "--omega", "1", "--circular", "2000"],
        ["fourier", "--preset", "chain", "--omega", "10", "--linear", "13", "--cutoff", "2"],
    ):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))
        assert code == 1, argv
        assert "too small" in err and not out, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("amplitude", ["1e160", "1e-200", "1e-160"])
def test_config_amplitude_whose_square_is_not_a_normal_float_exits_1(tmp_path, capsys, amplitude):
    # |j|^2 used to overflow (OverflowError), vanish (ZeroDivisionError) or
    # lose its digits (a false "cutoff too small") in the harmonics and thresholds
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[lattice]\ndimension = 1\nbravais = [[1.0, 0.0]]\nbasis = [[0.0, 0.0], [0.5, 0.5]]\n"
        f"bond = {{to = 1, from = 0, offset = [0], amplitude_re = {amplitude}}}\n"
        "[drive]\nomega = 12.5\nharmonic = {m = 1, a = [6.0, 0.0]}\n"
    )
    out_dir = tmp_path / "out"
    for command in ("effective", "selection-rules", "bands", "fourier"):
        code, out, err = run(capsys, command, "--config", str(cfg), "--output", str(out_dir))
        assert code == 1, command
        assert err.startswith("error:") and err.count("\n") == 1 and not out, command
        assert "|amplitude|^2 must be a finite normal float" in err, command
    assert not out_dir.exists()


def test_config_values_of_the_wrong_type_exit_1(tmp_path, capsys):
    # a boolean used to be read as 1, a string or list amplitude to raise an
    # uncaught ValueError or TypeError, and ragged rows an uncaught ValueError
    text = (
        "[lattice]\ndimension = 1\nbravais = [[1.0, 0.0]]\nbasis = [[0.0, 0.0], [0.5, 0.5]]\n"
        "bond = {to = 1, from = 0, offset = [0], amplitude_re = -1.0}\n"
        "[drive]\nomega = 12.5\nharmonic = {m = 1, a = [6.0, 0.0]}\n"
    )
    edits = [
        ("dimension = 1", "dimension = true"),
        ("to = 1", "to = true"),
        ("offset = [0]", "offset = [true]"),
        ("amplitude_re = -1.0", "amplitude_re = true"),
        ("amplitude_re = -1.0", 'amplitude_re = "x"'),
        ("amplitude_re = -1.0", "amplitude_re = -1.0, amplitude_im = [1]"),
        ("m = 1", "m = true"),
        ("[6.0, 0.0]", "[6.0, true]"),
        ("bravais = [[1.0, 0.0]]", "bravais = [[1.0, 0.0], [0.0]]"),
        ("[0.5, 0.5]]", "[0.5]]"),
    ]
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg.write_text(text)
    assert run(capsys, "effective", "--config", str(cfg), "--output", str(out_dir))[0] == 0
    (out_dir / "effective.json").unlink()
    for old, new in edits:
        cfg.write_text(text.replace(old, new))
        code, out, err = run(capsys, "effective", "--config", str(cfg), "--output", str(out_dir))
        assert code == 1, new
        assert err.startswith("error:") and err.count("\n") == 1 and not out, new
        assert list(out_dir.iterdir()) == [], new


def test_repeated_path_points_are_propagated_once(tmp_path, capsys, monkeypatch):
    # GXG on zig-zag holds 5 bit-distinct points of 9; GMKG on kagome repeats
    # only its closing Gamma, 24 of 25
    calls = count_propagations(monkeypatch)
    code, _, err = run(
        capsys, "verify", "--preset", "zigzag", "--omega", "10", "--circular", "21.2",
        "--output", str(tmp_path),
    )
    assert code == 0, err
    assert len(calls) == 4 * 5
    calls.clear()
    code, _, err = run(
        capsys, "bands", "--preset", "kagome", "--omega", "25", "--circular", "30",
        "--kpath", "GMKG", "--kpoints", "8", "--output", str(tmp_path),
    )
    assert code == 0, err
    assert len(calls) == 24
    assert len({k.tobytes() for k in calls}) == 24
    with open(tmp_path / "bands.csv") as fh:
        rows = list(csv.DictReader(fh))
    # the closing Gamma (last 3 rows) repeats the opening one's quasienergies
    assert [r["quasienergy"] for r in rows[:3]] == [r["quasienergy"] for r in rows[-3:]]


def test_bands_builds_one_bloch_set_per_distinct_path_point(tmp_path, capsys, monkeypatch):
    # kagome's GMKG repeats only its closing Gamma: 24 distinct points of 25.
    # Order 1 is one effective_bloch call, both orders over the 24 distinct
    # points once
    calls = count_bloch_matrices(monkeypatch)
    code, _, err = run(
        capsys, "bands", "--preset", "kagome", "--omega", "25", "--circular", "30",
        "--kpath", "GMKG", "--kpoints", "8", "--output", str(tmp_path),
    )
    assert code == 0, err
    assert len(calls) == 1
    for call in calls:
        assert len(call) == 24 and len({row.tobytes() for row in call}) == 24


def test_empty_kpath_exits_1(tmp_path, capsys):
    code, out, err = run(
        capsys, "bands", "--preset", "zigzag", "--omega", "10", "--circular", "2",
        "--kpath", "", "--kpoints", "2", "--output", str(tmp_path),
    )
    assert code == 1
    assert "at least two vertices" in err and not out
    assert not (tmp_path / "bands.csv").exists()


def test_unusable_output_is_refused_before_any_propagation(tmp_path, capsys, monkeypatch):
    calls = count_propagations(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    for argv in (
        ["bands", "--preset", "kagome", "--omega", "25", "--circular", "30",
         "--kpath", "GMKG", "--kpoints", "8"],
        ["verify", "--preset", "zigzag", "--omega", "10", "--circular", "21.2"],
    ):
        code, out, err = run(capsys, *argv, "--output", str(taken))
        assert code == 1, argv
        assert err.startswith("error:") and "--output" in err and not out
    assert calls == []
    assert taken.read_text() == "keep"
