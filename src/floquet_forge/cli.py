"""Command line interface.

Subcommands: check-geometry, fourier, effective, selection-rules, bands,
verify. Exit codes: 0 success, 1 validation error (bad flags, config, or
inputs), 2 verification inconsistency (selection cross-check violation,
scaling fit failure, or non-convergence).

The lattice comes from --preset or from the [lattice] section of --config;
the drive comes from the [drive] section or from --omega with --circular or
--linear. All file output lands in --output (default: current directory) and
is deterministic: same inputs and version, bit-identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .config import load_config
from .drive import DriveSpec, circular_drive, lattice_harmonics, linear_drive, rescale_drive
from .effective import DEFAULT_PRUNE_TOL, Gauge, build_effective_model, effective_bloch
from .errors import ConsistencyError, ConvergenceError, ValidationError
from .floquet import (
    MIN_STEPS,
    error_matrix,
    fit_power_law,
    match_permutation,
    propagate_period,
    thread_count,
)
from .kpath import named_kpath
from .lattice import Geometry, bloch_matrix, classify_geometry
from .presets import PRESET_NAMES, preset
from .selection import CouplingClass, cross_validate, enumerate_processes
from .serialization import bond_id, write_csv, write_json

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
        value = float(text)
        ok = bool(np.isfinite(value) and value >= 0)
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def _model_flags(p) -> None:
    p.add_argument("--gauge", default="static-free", help="floquet or static-free")
    p.add_argument("--cutoff", type=int, help="harmonic cutoff (default: automatic)")
    p.add_argument("--prune", type=_tolerance, default=DEFAULT_PRUNE_TOL, metavar="TOL",
                   help="relative first-order pruning threshold")


def _sweep_flags(p, kpoints: int) -> None:
    p.add_argument("--kpath", metavar="VERTICES", help="path letters, e.g. GMKG")
    p.add_argument("--kpoints", type=int, default=kpoints, help="points per path segment")
    p.add_argument("--steps", type=int, default=MIN_STEPS, help="starting integrator steps")
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
    q.add_argument("--cutoff", type=int, help="harmonic cutoff (default: automatic)")
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
    _model_flags(q)
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
        if lattice.space_dim != 2:
            raise ValidationError("--circular needs a lattice embedded in 2 dimensions")
        return lattice, circular_drive(args.omega, args.circular), name
    if args.linear is None:
        raise ValidationError("--omega requires --circular or --linear")
    try:
        comps = [float(x) for x in args.linear.split(",")]
    except ValueError:
        raise ValidationError(f"--linear must be comma-separated numbers, got {args.linear!r}") from None
    if len(comps) != lattice.space_dim:
        raise ValidationError(
            f"--linear has {len(comps)} components, lattice lives in {lattice.space_dim}"
        )
    return lattice, linear_drive(args.omega, comps), name


def _require_drive(drive) -> DriveSpec:
    if drive is None:
        raise ValidationError(
            "this command needs a drive: add a [drive] section or --omega with --circular/--linear"
        )
    return drive


def _outdir(args) -> str:
    os.makedirs(args.output, exist_ok=True)
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
    table = lattice_harmonics(lattice, drive, args.cutoff)
    rows = []
    cutoff = 0
    for b in lattice.bonds:
        h = table[b]
        cutoff = h.cutoff
        for n in range(-h.cutoff, h.cutoff + 1):
            g = h.coeff(n)
            rows.append((bond_id(b), n, g.real, g.imag, abs(g)))
    path = os.path.join(_outdir(args), "fourier.csv")
    write_csv(path, ["bond", "n", "re", "im", "abs"], rows)
    print(f"wrote {path}: {len(lattice.bonds)} bonds at cutoff {cutoff}")
    return 0


def _cmd_effective(args) -> int:
    lattice, drive, name = _load_inputs(args)
    drive = _require_drive(drive)
    model = build_effective_model(
        lattice, drive, Gauge.parse(args.gauge), args.cutoff, prune_tol=args.prune
    )
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
    path = os.path.join(_outdir(args), "effective.json")
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
    report = enumerate_processes(lattice)
    verdict = None
    model = None
    if drive is not None:
        model = build_effective_model(
            lattice, drive, Gauge.parse(args.gauge), args.cutoff, prune_tol=args.prune
        )
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
    outdir = _outdir(args)
    write_json(os.path.join(outdir, "selection.json"), payload)
    text = _selection_table(report)
    with open(os.path.join(outdir, "selection.txt"), "w", newline="") as fh:
        fh.write(text)
    print(text, end="")
    if verdict is not None:
        if not verdict.consistent:
            raise ConsistencyError(verdict.violations[0])
        print("cross-validation: every forced-zero coupling is numerically zero")
    return 0


def _cmd_bands(args) -> int:
    lattice, drive, name = _load_inputs(args)
    drive = _require_drive(drive)
    model = build_effective_model(
        lattice, drive, Gauge.parse(args.gauge), args.cutoff, prune_tol=args.prune
    )
    kp = named_kpath(lattice, args.kpath, args.kpoints)

    def task(ik: int):
        return propagate_period(lattice, drive, kp.points[ik], steps=args.steps)

    spectra = {}
    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        futures = {pool.submit(task, ik): ik for ik in range(len(kp.points))}
        for fut, ik in futures.items():
            spectra[ik] = fut.result()

    coord_names = [f"k_{i}" for i in range(lattice.space_dim)]
    rows = []
    for ik, k in enumerate(kp.points):
        if args.order == 0:
            H = bloch_matrix(model.order0, k, model.bravais_vectors)
        else:
            H = effective_bloch(model, k)
        e = np.linalg.eigvalsh(H)
        quasi = spectra[ik].quasienergies
        perm = match_permutation(e, quasi, drive.omega)
        for band in range(len(e)):
            rows.append(
                (float(kp.distances[ik]), *map(float, k), band, float(e[band]),
                 float(quasi[perm[band]]))
            )
    path = os.path.join(_outdir(args), "bands.csv")
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
    try:
        omegas = sorted(float(x) for x in args.omegas.split(","))
    except ValueError:
        raise ValidationError(
            f"--omegas must be comma-separated numbers, got {args.omegas!r}"
        ) from None
    kp = named_kpath(lattice, args.kpath, args.kpoints)
    gauge = Gauge.parse(args.gauge)

    def family(w: float) -> DriveSpec:
        return rescale_drive(drive, w)

    matrix = error_matrix(
        lattice, family, kp.points, omegas,
        order=args.order, gauge=gauge, cutoff=args.cutoff, steps=args.steps,
    )
    errors = matrix.max(axis=1)
    fit = fit_power_law(np.asarray(omegas), errors)
    expected = EXPECTED_SLOPE[args.order]
    passed = fit.slope <= expected + SLOPE_MARGIN

    outdir = _outdir(args)
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
        "gauge": gauge,
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


if __name__ == "__main__":
    sys.exit(main())
