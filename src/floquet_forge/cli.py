"""Command line interface.

Subcommands: check-geometry, fourier, effective, selection-rules, bands,
verify. Exit codes: 0 success, 1 validation error (bad flags, config,
inputs, or an unwritable output file), 2 verification inconsistency
(selection cross-check violation, scaling fit failure, or non-convergence).

The lattice comes from --preset or from the [lattice] section of --config;
the drive comes from the [drive] section or from --omega with --circular or
--linear. All file output lands in --output (default: current directory) and
is deterministic: same inputs and version, bit-identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .config import load_config
from .drive import (
    MAX_CUTOFF,
    DriveSpec,
    _check_drive_dim,
    circular_drive,
    lattice_harmonics,
    linear_drive,
    rescale_drive,
)
from .effective import DEFAULT_PRUNE_TOL, Gauge, _prune_tol, build_effective_model
from .errors import ConsistencyError, ConvergenceError, ValidationError
from .floquet import _matched_spectra, _point_list, _sweep_omegas, error_matrix, fit_power_law
# not called here: bench/selftest.py reads cli.propagate_period until ROADMAP item 1 lands
from .floquet import propagate_period  # noqa: F401
from .kpath import named_kpath
from .lattice import Geometry, classify_geometry
from .presets import PRESET_NAMES, preset
from .selection import CouplingClass, cross_validate, enumerate_processes
from .serialization import bond_id, write_csv, write_json, write_text

__all__ = ["main"]

EXPECTED_SLOPE = {0: -1.0, 1: -2.0}
SLOPE_MARGIN = 0.3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _common_flags(p) -> None:
    p.add_argument("--preset", help=f"built-in lattice, one of {PRESET_NAMES}")
    p.add_argument("--config", help="config file with [lattice] and optional [drive]")
    p.add_argument("--output", default=".", metavar="DIR", help="output directory")
    p.add_argument("--omega", type=float, help="drive frequency for --circular/--linear")
    p.add_argument("--circular", type=float, metavar="F0", help="circular force of magnitude F0")
    p.add_argument("--linear", metavar="FX,FY,...", help="linear force amplitude components")


def _tolerance(text: str) -> float:
    try:
        return _prune_tol(float(text))
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}") from None


def _gauge(text: str) -> Gauge:
    try:
        return Gauge.parse(text)
    except ValidationError:
        names = [g.value for g in Gauge]
        raise argparse.ArgumentTypeError(f"must be one of {names}, got {text!r}") from None


class _Count(argparse.Action):
    """Stores an integer option, refusing one below 1 (or above ``cap``)
    while the flags are parsed."""

    cap = None

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1 or (self.cap is not None and value > self.cap):
            bound = ">= 1" if self.cap is None else f"in [1, {self.cap}]"
            raise argparse.ArgumentError(self, f"must be an integer {bound}, got {value}")
        setattr(namespace, self.dest, value)


class _Cutoff(_Count):
    cap = MAX_CUTOFF


def _cutoff_flag(p) -> None:
    p.add_argument("--cutoff", type=int, action=_Cutoff,
                   help="harmonic cutoff (default: automatic)")


def _float_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _model_flags(p, prune: bool = True) -> None:
    p.add_argument("--gauge", type=_gauge, default="static-free", help="floquet or static-free")
    _cutoff_flag(p)
    if prune:
        p.add_argument("--prune", type=_tolerance, default=DEFAULT_PRUNE_TOL, metavar="TOL",
                       help="relative first-order pruning threshold")


def _sweep_flags(p, kpoints: int) -> None:
    p.add_argument("--kpath", metavar="VERTICES", help="path letters, e.g. GMKG")
    p.add_argument("--kpoints", type=int, action=_Count, default=kpoints,
                   help="points per path segment")
    p.add_argument("--order", type=int, choices=(0, 1), default=1,
                   help="effective truncation order to compare against")


def _build_parser() -> _Parser:
    p = _Parser(prog="floquet-forge",
                description="Effective Hamiltonians of periodically shaken lattices")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    q = sub.add_parser("check-geometry", help="classify the lattice geometry")
    _common_flags(q)
    q.set_defaults(func=_cmd_check_geometry)

    q = sub.add_parser("fourier", help="per-bond harmonics of the driven tunneling")
    _common_flags(q)
    _cutoff_flag(q)
    q.set_defaults(func=_cmd_fourier)

    q = sub.add_parser("effective", help="effective tunneling matrices to first order")
    _common_flags(q)
    _model_flags(q)
    q.set_defaults(func=_cmd_effective)

    q = sub.add_parser("selection-rules", help="geometric classification of couplings")
    _common_flags(q)
    _model_flags(q)
    q.set_defaults(func=_cmd_selection)

    q = sub.add_parser("bands", help="effective bands and exact quasienergies on a k-path")
    _common_flags(q)
    _model_flags(q)
    _sweep_flags(q, kpoints=24)
    q.set_defaults(func=_cmd_bands)

    q = sub.add_parser("verify", help="frequency sweep of the truncation error")
    _common_flags(q)
    _model_flags(q, prune=False)
    _sweep_flags(q, kpoints=4)
    q.add_argument("--omegas", default="10,20,40,80",
                   help="comma-separated sweep frequencies")
    q.set_defaults(func=_cmd_verify)
    return p


def _load_inputs(args) -> tuple:
    """(lattice, drive or None, preset name or None) from flags and config."""
    cfg = load_config(args.config) if args.config else None
    if args.preset and cfg is not None:
        raise ValidationError("give either --preset or --config, not both")
    if args.preset:
        lattice, name = preset(args.preset), args.preset
    elif cfg is not None:
        lattice, name = cfg.lattice, cfg.preset
    else:
        raise ValidationError("a lattice is required: pass --preset or --config")

    flag_drive = args.circular is not None or args.linear is not None or args.omega is not None
    if cfg is not None and cfg.drive is not None:
        if flag_drive:
            raise ValidationError("drive given both in config [drive] and on the command line")
        return lattice, cfg.drive, name
    if not flag_drive:
        return lattice, None, name
    if args.omega is None:
        raise ValidationError("--circular/--linear require --omega")
    if args.circular is not None and args.linear is not None:
        raise ValidationError("give either --circular or --linear, not both")
    if args.circular is not None:
        drive = circular_drive(args.omega, args.circular)
    elif args.linear is not None:
        drive = linear_drive(args.omega, _float_list(args.linear, "--linear"))
    else:
        raise ValidationError("--omega requires --circular or --linear")
    _check_drive_dim(lattice, drive)
    return lattice, drive, name


def _require_drive(drive) -> DriveSpec:
    if drive is None:
        raise ValidationError(
            "this command needs a drive: add a [drive] section or --omega with --circular/--linear"
        )
    return drive


def _outdir(args) -> str:
    """The --output directory, created if missing. Every command that writes
    resolves it before computing, so an unusable path is refused at once."""
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use --output {args.output!r}: {exc.strerror}") from None
    return args.output


def _lattice_payload(lattice, name) -> dict:
    if name:
        return {"preset": name}
    return {
        "dimension": lattice.dimension,
        "bravais": lattice.bravais_vectors,
        "basis": lattice.basis_sites,
        "bonds": [
            {
                "to": b.target_basis,
                "from": b.source_basis,
                "offset": list(b.cell_offset),
                "amplitude": b.amplitude,
            }
            for b in lattice.bonds
        ],
    }


def _drive_payload(drive) -> dict:
    return {
        "omega": drive.omega,
        "harmonics": [
            {"m": h.m, "a": h.cos_amplitude, "b": h.sin_amplitude} for h in drive.harmonics
        ],
    }


def _offsets_payload(offsets) -> list:
    return [{"offset": list(om.offset), "matrix": om.matrix} for om in offsets]


def _cmd_check_geometry(args) -> int:
    lattice, _, _ = _load_inputs(args)
    if classify_geometry(lattice) is Geometry.BRAVAIS:
        print("Bravais: first-order term vanishes identically")
    else:
        print(
            f"Non-Bravais ({lattice.basis_count}-site basis): "
            "first-order term can be finite"
        )
    return 0


def _cmd_fourier(args) -> int:
    lattice, drive, _ = _load_inputs(args)
    drive = _require_drive(drive)
    outdir = _outdir(args)
    table = lattice_harmonics(lattice, drive, args.cutoff)
    rows = []
    cutoff = 0
    for b in lattice.bonds:
        h = table[b]
        cutoff = h.cutoff
        for n in range(-h.cutoff, h.cutoff + 1):
            g = h.coeff(n)
            rows.append((bond_id(b), n, g.real, g.imag, abs(g)))
    path = os.path.join(outdir, "fourier.csv")
    write_csv(path, ["bond", "n", "re", "im", "abs"], rows)
    print(f"wrote {path}: {len(lattice.bonds)} bonds at cutoff {cutoff}")
    return 0


def _cmd_effective(args) -> int:
    lattice, drive, name = _load_inputs(args)
    drive = _require_drive(drive)
    outdir = _outdir(args)
    model = build_effective_model(lattice, drive, args.gauge, args.cutoff, args.prune)
    payload = {
        "version": __version__,
        "lattice": _lattice_payload(lattice, name),
        "drive": _drive_payload(drive),
        "gauge": model.gauge,
        "cutoff": model.cutoff,
        "prune_tol": args.prune,
        "amplitude_scale": model.amplitude_scale,
        "order0": _offsets_payload(model.order0),
        "order1": _offsets_payload(model.order1),
    }
    path = os.path.join(outdir, "effective.json")
    write_json(path, payload)
    print(
        f"wrote {path}: {len(model.order0)} leading and "
        f"{len(model.order1)} first-order offset classes"
    )
    return 0


def _selection_table(report) -> str:
    lines = ["source  target  offset        verdict             survivors"]
    for c in report.couplings:
        lines.append(
            f"{c.source_basis:<7} {c.target_basis:<7} {str(c.offset):<13} "
            f"{c.verdict.value:<19} {len(c.survivors())}"
        )
    return "\n".join(lines) + "\n"


def _cmd_selection(args) -> int:
    lattice, drive, name = _load_inputs(args)
    outdir = _outdir(args)
    report = enumerate_processes(lattice)
    verdict = None
    if drive is not None:
        model = build_effective_model(lattice, drive, args.gauge, args.cutoff, args.prune)
        verdict = cross_validate(report, model, prune_tol=args.prune, strict=False)

    payload = {
        "version": __version__,
        "lattice": _lattice_payload(lattice, name),
        "couplings": [
            {
                "source": c.source_basis,
                "target": c.target_basis,
                "offset": list(c.offset),
                "verdict": c.verdict,
                "processes": [
                    {
                        "via": p.via_basis,
                        "via_offset": list(p.via_offset),
                        "a_i": p.a_i,
                        "a_j": p.a_j,
                        "class": p.klass,
                    }
                    for p in c.processes
                ],
            }
            for c in report.couplings
        ],
        "summary": {
            "forced_zero": sum(
                c.verdict is CouplingClass.FORCED_ZERO for c in report.couplings
            ),
            "potentially_finite": sum(
                c.verdict is CouplingClass.POTENTIALLY_FINITE for c in report.couplings
            ),
        },
        "cross_validation": {
            "checked": verdict is not None,
            "consistent": None if verdict is None else verdict.consistent,
            "violations": [] if verdict is None else list(verdict.violations),
        },
    }
    write_json(os.path.join(outdir, "selection.json"), payload)
    text = _selection_table(report)
    write_text(os.path.join(outdir, "selection.txt"), text)
    print(text, end="")
    if verdict is not None:
        if not verdict.consistent:
            raise ConsistencyError(verdict.violations[0])
        print("cross-validation: every forced-zero coupling is numerically zero")
    return 0


def _cmd_bands(args) -> int:
    lattice, drive, name = _load_inputs(args)
    drive = _require_drive(drive)
    kp = named_kpath(lattice, args.kpath, args.kpoints)
    outdir = _outdir(args)
    model = build_effective_model(lattice, drive, args.gauge, args.cutoff, args.prune)
    E, Q = _matched_spectra(lattice, [drive], [model], kp.points, (args.order,))

    coord_names = [f"k_{i}" for i in range(lattice.space_dim)]
    rows = [
        (float(kp.distances[ik]), *map(float, k), band, float(e), float(q))
        for ik, k in enumerate(kp.points)
        for band, (e, q) in enumerate(zip(E[0, 0, ik], Q[0, 0, ik]))
    ]
    path = os.path.join(outdir, "bands.csv")
    write_csv(
        path,
        ["k_distance", *coord_names, "band", "effective_energy", "quasienergy"],
        rows,
    )
    print(
        f"wrote {path}: path {kp.labels}, {len(kp.points)} k-points, "
        f"{lattice.basis_count} bands"
    )
    return 0


def _cmd_verify(args) -> int:
    lattice, drive, name = _load_inputs(args)
    drive = _require_drive(drive)
    omegas = _sweep_omegas(_float_list(args.omegas, "--omegas"))
    kp = named_kpath(lattice, args.kpath, args.kpoints)
    outdir = _outdir(args)

    def family(w: float) -> DriveSpec:
        return rescale_drive(drive, w)

    matrix = error_matrix(
        lattice, family, kp.points, omegas,
        order=args.order, gauge=args.gauge, cutoff=args.cutoff,
    )
    errors = matrix.max(axis=1)
    fit = fit_power_law(omegas, errors)
    if fit.excluded_omegas.size:
        print(
            "note: the fit leaves out sweep points at the numerical error floor: "
            + _point_list(fit.excluded_omegas, fit.excluded_errors),
            file=sys.stderr,
        )
    expected = EXPECTED_SLOPE[args.order]
    passed = fit.slope <= expected + SLOPE_MARGIN

    coord_names = [f"k_{i}" for i in range(lattice.space_dim)]
    rows = [
        (omegas[iw], ik, *map(float, kp.points[ik]), float(matrix[iw, ik]))
        for iw in range(len(omegas))
        for ik in range(len(kp.points))
    ]
    csv_path = os.path.join(outdir, "verify.csv")
    write_csv(csv_path, ["omega", "k_index", *coord_names, "error"], rows)
    payload = {
        "version": __version__,
        "lattice": _lattice_payload(lattice, name),
        "drive": _drive_payload(drive),
        "gauge": args.gauge,
        "order": args.order,
        "kpath": kp.labels,
        "omegas": [float(w) for w in omegas],
        "errors": errors,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "expected_slope": expected,
        "slope_margin": SLOPE_MARGIN,
        "excluded_omegas": fit.excluded_omegas,
        "excluded_errors": fit.excluded_errors,
        "passed": passed,
    }
    json_path = os.path.join(outdir, "verify.json")
    write_json(json_path, payload)
    print(
        f"wrote {csv_path} and {json_path}: slope {fit.slope:.3f} "
        f"(expected about {expected:g})"
    )
    if not passed:
        raise ConsistencyError(
            f"fitted error slope {fit.slope:.3f} is shallower than "
            f"{expected:g} + {SLOPE_MARGIN:g} margin"
        )
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, ConvergenceError) as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
