"""Exact one-period propagation and verification sweeps.

The effective expansion is cross-checked against direct integration of the
time-dependent Bloch Hamiltonian over one driving period. The integrator is a
fixed-step fourth-order composition of exact midpoint exponentials, so every
propagator is unitary to rounding at any step count; accuracy is certified
separately by a step-doubling check on the matched quasienergies.

Only the scalar Bloch phases exp(i k.R_b) of H(t) depend on k. The bond
phase factors exp(i chi_b(t)) on the integrator nodes are built once per
(lattice, drive, step count) and kept in a small bounded cache of read-only
arrays, so every k of a sweep reuses them.

Every propagating sweep goes through one core, ``_sweep_errors``: it
validates the inputs once, builds one effective model per omega, propagates
each (omega, k) point once for all truncation orders, and returns the matched
distances with shape (order, omega, k). ``error_matrix`` and
``scaling_errors`` are reductions of that array. The (omega, k) points are
embarrassingly parallel and run on a thread pool; workers share only the
cache above, which is thread-safe (two workers missing the same entry both
build it, with identical results). Results are gathered by task key. The
pool size is capped by the FLOQUET_FORGE_THREADS environment variable (0 or
unset means one worker per CPU).
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .drive import DriveSpec, phase
from .effective import EffectiveModel, Gauge, build_effective_model, effective_bloch
from .errors import ConvergenceError, ValidationError
from .lattice import (
    LatticeSpec,
    _torus_matrix,
    bloch_matrix,
    from_offset_dict,
    offset_dict,
    require_closed,
)

__all__ = [
    "QuasiSpectrum",
    "PowerLawFit",
    "fold",
    "match_permutation",
    "match_distance",
    "quasienergies_from_propagator",
    "bloch_hamiltonian_t",
    "offset_matrices_at_time",
    "propagate_period",
    "fit_power_law",
    "error_matrix",
    "scaling_errors",
    "gauge_difference_errors",
    "commutator_offsets",
    "magnus_commutator_probe",
    "thread_count",
]

MIN_STEPS = 512
MAX_STEPS = 8192
RICHARDSON_TOL = 1e-9
UNITARITY_TOL = 1e-10
ERROR_FLOOR = 1e-11

# Triple-jump composition: three exact midpoint exponentials per step give a
# fourth-order method. The middle weight is negative; that is harmless here
# because each factor is exactly unitary.
_G1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_NODES = np.array([0.5 * _G1, 0.5, 1.0 - 0.5 * _G1])
_WEIGHTS = np.array([_G1, 1.0 - 2.0 * _G1, _G1])


def fold(values, omega: float):
    """Map energies into the first Floquet zone (-omega/2, omega/2]."""
    v = np.asarray(values, dtype=float)
    y = v - omega * np.round(v / omega)
    y = np.where(y <= -0.5 * omega, y + omega, y)
    return float(y) if y.ndim == 0 else y


def match_permutation(a, b, omega: float) -> np.ndarray:
    """Optimal assignment of b onto a by circular quasienergy distance.

    Returns indices ``perm`` with b[perm[i]] matched to a[i]. Plain sorting
    breaks near the zone edge where the spectrum wraps; the assignment cost
    |fold(a_i - b_j)| does not.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"cannot match spectra of shapes {a.shape} and {b.shape}")
    cost = np.abs(fold(a[:, None] - b[None, :], omega))
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(a.shape[0], dtype=int)
    perm[rows] = cols
    return perm


def match_distance(a, b, omega: float) -> float:
    """Largest circular distance in the optimal pairing of two spectra."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    perm = match_permutation(a, b, omega)
    return float(np.abs(fold(a - b[perm], omega)).max())


def quasienergies_from_propagator(U: np.ndarray, omega: float) -> np.ndarray:
    """Sorted quasienergies from a one-period propagator.

    Each eigenvalue lambda of U contributes -arg(lambda)/T folded into
    (-omega/2, omega/2]. Only eigenvalues of U are taken to a log branch,
    never the matrix itself.
    """
    lam = np.linalg.eigvals(np.asarray(U, dtype=complex))
    eps = -np.angle(lam) * omega / (2.0 * np.pi)
    return np.sort(fold(eps, omega))


def _check_drive_dim(lattice: LatticeSpec, drive: DriveSpec) -> None:
    if drive.space_dim is not None and drive.space_dim != lattice.space_dim:
        raise ValidationError(
            f"drive force has {drive.space_dim} components, "
            f"lattice lives in {lattice.space_dim} Cartesian dimensions"
        )


def _check_k(lattice: LatticeSpec, k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape != (lattice.space_dim,):
        raise ValidationError(
            f"k must have {lattice.space_dim} Cartesian components, got shape {k.shape}"
        )
    return k


def _bond_terms(lattice: LatticeSpec, drive: DriveSpec, times) -> tuple:
    """The k-independent part of H(t) on the given times, one entry per bond
    in bond order: (target, source, R_b, amplitude, exp(i chi_b(times))).

    All arrays are read-only. Bonds whose displacements are equal bit for bit
    share one phase array, since chi depends on the bond only through its
    displacement.
    """
    phases = {}
    terms = []
    for b in lattice.bonds:
        a = lattice.displacement(b)
        E = phases.get(a.tobytes())
        if E is None:
            E = np.exp(1j * phase(drive, a, times))
            E.flags.writeable = False
            phases[a.tobytes()] = E
        R = np.asarray(b.cell_offset, dtype=float) @ lattice.bravais_vectors
        R.flags.writeable = False
        terms.append((b.target_basis, b.source_basis, R, b.amplitude, E))
    return tuple(terms)


# Keyed on object identity: LatticeSpec and DriveSpec are frozen, eq=False
# dataclasses holding read-only arrays, and the cache's strong references keep
# a cached id from being reused. Four entries hold one drive's 512- and
# 1024-step resolutions for each of two sweep workers.
@functools.lru_cache(maxsize=4)
def _integrator_terms(lattice: LatticeSpec, drive: DriveSpec, steps: int) -> tuple:
    """Bond terms on the integrator nodes of one period at ``steps`` steps."""
    h = drive.period / steps
    times = ((np.arange(steps)[:, None] + _NODES[None, :]) * h).reshape(-1)
    return _bond_terms(lattice, drive, times)


def _hamiltonian_stack(lattice: LatticeSpec, k: np.ndarray, terms, n_times: int) -> np.ndarray:
    """H(t) at wave vector k on every time the bond terms were built for."""
    d = lattice.basis_count
    H = np.zeros((n_times, d, d), dtype=complex)
    for target, source, R, amplitude, E in terms:
        factor = amplitude * np.exp(1j * float(k @ R))
        H[:, target, source] += factor * E
    return H


def bloch_hamiltonian_t(lattice: LatticeSpec, drive: DriveSpec, k, t: float) -> np.ndarray:
    """Instantaneous Bloch Hamiltonian of the driven lattice at time t."""
    require_closed(lattice)
    _check_drive_dim(lattice, drive)
    k = _check_k(lattice, k)
    terms = _bond_terms(lattice, drive, np.array([float(t)]))
    return _hamiltonian_stack(lattice, k, terms, 1)[0]


def offset_matrices_at_time(lattice: LatticeSpec, drive: DriveSpec, t: float) -> tuple:
    """Instantaneous tunneling matrices per cell offset, phases included."""
    require_closed(lattice)
    _check_drive_dim(lattice, drive)
    d = lattice.basis_count
    table = {}
    for b in lattice.bonds:
        m = table.setdefault(b.cell_offset, np.zeros((d, d), dtype=complex))
        chi = float(phase(drive, lattice.displacement(b), float(t)))
        m[b.target_basis, b.source_basis] += b.amplitude * np.exp(1j * chi)
    return from_offset_dict(table)


def _expm_stack(H: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """exp(-i factor * H) for a stack of Hermitian matrices."""
    w, V = np.linalg.eigh(H)
    ph = np.exp(-1j * factors[:, None] * w)
    return (V * ph[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2))


def _time_ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by pairwise tree reduction (order preserved)."""
    arr = mats
    while arr.shape[0] > 1:
        m = arr.shape[0] // 2
        head = np.matmul(arr[1 : 2 * m : 2], arr[0 : 2 * m : 2])
        arr = head if arr.shape[0] % 2 == 0 else np.concatenate([head, arr[-1:]])
    return arr[0]


def _propagator(lattice, drive, k, steps: int) -> np.ndarray:
    h = drive.period / steps
    terms = _integrator_terms(lattice, drive, steps)
    Hs = _hamiltonian_stack(lattice, k, terms, len(_NODES) * steps)
    factors = np.tile(_WEIGHTS * h, steps)
    return _time_ordered_product(_expm_stack(Hs, factors))


def _unitarity_error(U: np.ndarray) -> float:
    d = U.shape[0]
    return float(np.abs(np.conj(U.T) @ U - np.eye(d)).max())


@dataclass(frozen=True, eq=False)
class QuasiSpectrum:
    """One-period propagator at one wave vector and its folded eigenphases."""

    k: np.ndarray
    omega: float
    steps: int
    quasienergies: np.ndarray
    propagator: np.ndarray
    unitarity_error: float
    step_doubling_change: float


def propagate_period(
    lattice: LatticeSpec,
    drive: DriveSpec,
    k,
    steps: int = MIN_STEPS,
    tol: float = RICHARDSON_TOL,
    max_steps: int = MAX_STEPS,
    refine: bool = True,
) -> QuasiSpectrum:
    """Integrate the one-period propagator at wave vector k.

    Starts at ``steps`` (at least 512) and doubles the step count until the
    matched quasienergies change by less than tol * omega between consecutive
    resolutions, returning the finer result. Unitarity beyond 1e-10 triggers
    the same escalation; running past ``max_steps`` without settling raises
    ConvergenceError. With ``refine`` off a single resolution is computed and
    only unitarity is checked.
    """
    require_closed(lattice)
    _check_drive_dim(lattice, drive)
    steps = int(steps)
    if steps < MIN_STEPS:
        raise ValidationError(f"steps must be >= {MIN_STEPS}, got {steps}")
    w = drive.omega
    k = _check_k(lattice, k)

    U = _propagator(lattice, drive, k, steps)
    eps = quasienergies_from_propagator(U, w)
    if not refine:
        drift = _unitarity_error(U)
        if not (drift <= UNITARITY_TOL):
            raise ConvergenceError(f"propagator unitarity drift {drift:.3e} exceeds {UNITARITY_TOL}")
        return QuasiSpectrum(k, w, steps, eps, U, drift, float("nan"))

    while True:
        finer = 2 * steps
        if finer > max_steps:
            raise ConvergenceError(
                f"quasienergies did not settle below {tol:.1e}*omega within {max_steps} steps"
            )
        U2 = _propagator(lattice, drive, k, finer)
        eps2 = quasienergies_from_propagator(U2, w)
        change = match_distance(eps2, eps, w)
        drift = _unitarity_error(U2)
        if change < tol * w and drift <= UNITARITY_TOL:
            return QuasiSpectrum(k, w, finer, eps2, U2, drift, change)
        steps, U, eps = finer, U2, eps2


def thread_count() -> int:
    """Worker cap for sweeps from FLOQUET_FORGE_THREADS (0 or unset = auto)."""
    raw = os.environ.get("FLOQUET_FORGE_THREADS", "0").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(
            f"FLOQUET_FORGE_THREADS must be a non-negative integer, got {raw!r}"
        ) from None
    if n < 0:
        raise ValidationError(f"FLOQUET_FORGE_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True, eq=False)
class PowerLawFit:
    """Least-squares slope of log(error) against log(omega)."""

    slope: float
    intercept: float
    omegas: np.ndarray
    errors: np.ndarray
    excluded_omegas: np.ndarray
    excluded_errors: np.ndarray

    @property
    def residuals(self) -> np.ndarray:
        predicted = self.slope * np.log(self.omegas) + self.intercept
        return np.log(self.errors) - predicted


def fit_power_law(omegas, errors, floor: float = ERROR_FLOOR) -> PowerLawFit:
    """Fit error ~ omega^slope, dropping points at the numerical floor.

    Errors at or below ``floor`` carry no scaling information (they measure
    integrator and rounding noise, not the expansion remainder); they are
    excluded with a warning. A non-finite error, or fewer than two
    informative points, raises ConvergenceError.
    """
    x = np.asarray(omegas, dtype=float)
    y = np.asarray(errors, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("omegas and errors must be 1d arrays of equal length")
    bad = ~np.isfinite(y)
    if bad.any():
        points = ", ".join(f"omega={a:g} (error {b})" for a, b in zip(x[bad], y[bad]))
        raise ConvergenceError(f"sweep errors are not finite: {points}")
    keep = y > floor
    if not keep.all():
        dropped = ", ".join(f"omega={a:g} (error {b:.2e})" for a, b in zip(x[~keep], y[~keep]))
        warnings.warn(
            f"excluding sweep points at the numerical error floor: {dropped}",
            RuntimeWarning,
            stacklevel=2,
        )
    if keep.sum() < 2:
        raise ConvergenceError(
            "fewer than two sweep points above the error floor; no slope can be fit"
        )
    coeffs = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return PowerLawFit(
        slope=float(coeffs[0]),
        intercept=float(coeffs[1]),
        omegas=x[keep],
        errors=y[keep],
        excluded_omegas=x[~keep],
        excluded_errors=y[~keep],
    )


def _sweep_inputs(lattice: LatticeSpec, drive_family, k_set, omegas) -> tuple:
    """Validated sweep inputs: (ascending omegas, their drives, k list)."""
    require_closed(lattice)
    ws = sorted(float(w) for w in omegas)
    if len(set(ws)) != len(ws):
        raise ValidationError("sweep frequencies must be distinct")
    if len(ws) < 4:
        raise ValidationError(f"sweep needs at least 4 frequencies, got {len(ws)}")
    if ws[-1] < 8.0 * ws[0]:
        raise ValidationError(
            f"sweep must span at least a factor 8 in omega, got {ws[-1] / ws[0]:.3g}"
        )
    k_list = [np.asarray(k, dtype=float) for k in k_set]
    if not k_list:
        raise ValidationError("k_set must be nonempty")
    drives = []
    for w in ws:
        drive = drive_family(w)
        if abs(drive.omega - w) > 1e-9 * w:
            raise ValidationError(f"drive_family returned omega {drive.omega}, expected {w}")
        _check_drive_dim(lattice, drive)
        drives.append(drive)
    return ws, drives, k_list


def _truncated_bloch(model: EffectiveModel, k, order: int) -> np.ndarray:
    if order == 0:
        return bloch_matrix(model.order0, k, model.bravais_vectors)
    return effective_bloch(model, k)


def _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff, steps) -> np.ndarray:
    """Matched distances between exact quasienergies and the effective
    spectrum truncated at each of ``orders``, shape (orders, omega, k) with
    omegas ascending. Exceptions of the pool tasks surface on collection."""
    if not orders or any(o not in (0, 1) for o in orders):
        raise ValidationError(f"orders must be a subset of (0, 1), got {orders}")
    ws, drives, k_list = _sweep_inputs(lattice, drive_family, k_set, omegas)
    models = [build_effective_model(lattice, drive, gauge, cutoff) for drive in drives]

    def task(iw: int, ik: int) -> np.ndarray:
        return propagate_period(lattice, drives[iw], k_list[ik], steps=steps).quasienergies

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        futures = {
            (iw, ik): pool.submit(task, iw, ik)
            for iw in range(len(ws))
            for ik in range(len(k_list))
        }
        exact = {key: fut.result() for key, fut in futures.items()}

    out = np.zeros((len(orders), len(ws), len(k_list)))
    for (iw, ik), eps in exact.items():
        for io, o in enumerate(orders):
            e = np.linalg.eigvalsh(_truncated_bloch(models[iw], k_list[ik], o))
            out[io, iw, ik] = match_distance(e, eps, ws[iw])
    return out


def error_matrix(
    lattice: LatticeSpec,
    drive_family,
    k_set,
    omegas,
    order: int = 1,
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
    steps: int = MIN_STEPS,
) -> np.ndarray:
    """Matched quasienergy distances per sweep point, shape (n_omega, n_k)
    with omegas ascending. Row maxima feed :func:`fit_power_law`."""
    orders = (int(order),)
    return _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff, steps)[0]


def scaling_errors(
    lattice: LatticeSpec,
    drive_family,
    k_set,
    omegas,
    orders=(0, 1),
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
    steps: int = MIN_STEPS,
) -> dict:
    """error(omega) = max over k of the matched distance between exact
    quasienergies and the effective spectrum, per truncation order.

    ``drive_family`` maps omega to the drive at that frequency (hold the
    dimensionless amplitude fixed for a clean power law). One propagation per
    (omega, k) serves every requested order. Returns {order: errors array}
    with entries in ascending omega order; :func:`fit_power_law` fits them.
    Against the leading order alone the error falls at least as 1/omega:
    about as 1/omega where the first-order term moves the bands at first
    order (kagome), about as 1/omega^2 where it acts only at second order
    (the zig-zag chain), and not at all on one-point bases, where order 0 is
    exact. With the first-order correction included it falls about as
    1/omega^2.
    """
    orders = tuple(sorted({int(o) for o in orders}))
    errors = _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff, steps)
    return {o: e.max(axis=1) for o, e in zip(orders, errors)}


def gauge_difference_errors(
    lattice: LatticeSpec,
    drive_family,
    k_set,
    omegas,
    cutoff: int | None = None,
) -> np.ndarray:
    """max over k of the matched distance between the two gauges' effective
    spectra, per sweep frequency in ascending order. No propagation involved;
    the difference shrinks one order faster than the truncation itself."""
    ws, drives, k_list = _sweep_inputs(lattice, drive_family, k_set, omegas)
    out = np.zeros(len(ws))
    for iw, (w, drive) in enumerate(zip(ws, drives)):
        mf = build_effective_model(lattice, drive, Gauge.FLOQUET, cutoff)
        ms = build_effective_model(lattice, drive, Gauge.STATIC_FREE, cutoff)
        out[iw] = max(
            match_distance(
                np.linalg.eigvalsh(effective_bloch(mf, k)),
                np.linalg.eigvalsh(effective_bloch(ms, k)),
                w,
            )
            for k in k_list
        )
    return out


def commutator_offsets(lattice: LatticeSpec, drive: DriveSpec, t1: float, t2: float) -> tuple:
    """Offset classes of the commutator of the Hamiltonian with itself at two
    times, [H(t1), H(t2)].

    Terms are grouped by unordered offset pair so that the two degenerate
    cases come out as exact floating-point zeros: equal times (each group is
    x - x) and scalar blocks (complex multiplication commutes bitwise).
    """
    C = offset_dict(offset_matrices_at_time(lattice, drive, t1))
    D = offset_dict(offset_matrices_at_time(lattice, drive, t2))
    d = lattice.basis_count
    offs = sorted(C)
    table = {}
    for i, o1 in enumerate(offs):
        for o2 in offs[i:]:
            total = tuple(x + y for x, y in zip(o1, o2))
            m = table.setdefault(total, np.zeros((d, d), dtype=complex))
            if o1 == o2:
                m += C[o1] @ D[o2] - D[o1] @ C[o2]
            else:
                m += (C[o1] @ D[o2] - D[o2] @ C[o1]) + (C[o2] @ D[o1] - D[o1] @ C[o2])
    return from_offset_dict(table)


def magnus_commutator_probe(
    lattice: LatticeSpec, drive: DriveSpec, t1: float, t2: float, torus
) -> float:
    """Largest commutator matrix element of [H(t1), H(t2)] on a finite torus.

    Zero for every single-site-basis lattice (blocks are scalars) and for
    t1 = t2; a generically nonzero value signals that the leading effective
    Hamiltonian cannot be exact. Torus extents must cover twice the largest
    bond offset.
    """
    table = offset_dict(commutator_offsets(lattice, drive, t1, t2))
    extents = tuple(int(L) for L in torus)
    if len(extents) != lattice.dimension:
        raise ValidationError(
            f"torus has {len(extents)} extents, lattice dimension is {lattice.dimension}"
        )
    max_off = max((abs(x) for b in lattice.bonds for x in b.cell_offset), default=0)
    if any(L < max(2 * max_off, 1) for L in extents):
        raise ValidationError(
            f"torus extents {extents} too small for bond offsets reaching {max_off}"
        )
    M = _torus_matrix(table, extents, lattice.basis_count)
    return float(np.abs(M).max())
