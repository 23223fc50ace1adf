"""Exact one-period propagation and verification sweeps.

The effective expansion is cross-checked against direct integration of the
time-dependent Bloch Hamiltonian over one driving period. The integrator is a
fixed-step fourth-order composition of exact midpoint exponentials, so every
propagator is unitary to rounding at any step count; accuracy is certified
separately by a step-doubling check on the matched quasienergies.

Spectra are compared by an optimal pairing under the circular distance
|fold(a_i - b_j)|. ``_assignment`` solves that pairing with Crouse's
shortest-augmenting-path method, ported from the square case of scipy's
``linear_sum_assignment`` with its scan order and tie rule (reversed column
scan; on equal reduced cost an unassigned column wins). It returns the
permutation scipy returns, so matched distances keep their bits, while the
package needs numpy alone at run time: the matrices have a few rows, and
importing scipy.optimize for them cost more start-up time and memory than
any run's matching.

The settling tolerance RICHARDSON_TOL * omega, the cap MAX_STEPS and the
fit's ERROR_FLOOR are constants, not arguments: every run certifies alike.

Only the scalar Bloch phases exp(i k.R_b) of H(t) depend on k. The bond
phase factors exp(i chi_b(t)) come from ``_bond_phases`` alone (integrator,
H(t) and instantaneous offset matrices). Outside a sweep each propagation
builds them fresh and forms its own propagator. A sweep hands its tasks one
dict (``_sweep_scope``), dropped when the sweep returns, that holds phases
only. At fixed z, H(t) depends on t only through omega*t, and a drive that
is another times 2^e exactly (``drive._doubling``) has its bits of chi. So
the phases on the integrator nodes are built once per frequency class, phase
rows (lattices of one bond geometry share them) and step count, for every k
and every member; the sweep's models go by the same classes
(``effective._class_models``). No output bit moves.

Sharing goes by that array, not by position in the drive list. The first
drive of a k task to need a step count diagonalizes the H(t) stack once and
forms the propagators of every later drive of the task with the same phase
array too, one batched product per node, into a stash that ends with the task
(``_sweep_scope``), under (lattice, bytes of k, drive, step count); each
drive's own call pops its own (``_propagator``), with a lone product's bits.

Effective and exact spectra are compared in one core, ``_matched_spectra``,
behind the sweeps and ``cli bands``. It takes every effective spectrum first
(one Bloch stack per model and order over all distinct k: order 0 alone, or
``effective_bloch``, the one sum of both orders), so a model that cannot be
evaluated fails before any propagation, then propagates each
bit-distinct (omega, k) point once for all orders (a repeated k, such as the
closing vertex of a k-path, gets its first occurrence's bits) and matches
each spectrum once. ``error_matrix`` and ``scaling_errors`` reduce its result
through ``_sweep_errors``. The distinct k run on one thread pool,
``_on_pool``, one task per k, which propagates every drive in ascending
omega through ``propagate_period``. Workers share only the sweep's dict, the
lattice's pair table and the cached offset stacks; two workers missing the
same entry both build it, with identical results, and the dict keeps the
first (``dict.setdefault`` is atomic), so no lock is needed. ``_on_pool``
maps the task over the distinct k, and results are gathered in the order of
the distinct k. The pool size is capped by the FLOQUET_FORGE_THREADS
environment variable (0 or unset means one worker per CPU).
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .drive import DriveSpec, _check_drive_dim, _check_omega, _doubling, _exponentials
from .effective import Gauge, _class_models, effective_bloch
from .errors import ConvergenceError, ValidationError
from .lattice import (
    LatticeSpec,
    OffsetMatrix,
    _check_k,
    _first_occurrences,
    _integer,
    _items,
    _numbers,
    _real,
    _scatter,
    _torus_extents,
    bloch_matrix,
)

__all__ = [
    "QuasiSpectrum",
    "PowerLawFit",
    "fold",
    "match_permutation",
    "match_distance",
    "quasienergies_from_propagator",
    "bloch_hamiltonian_t",
    "propagate_period",
    "fit_power_law",
    "error_matrix",
    "scaling_errors",
    "magnus_commutator_probe",
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
    """Map energies into the first Floquet zone (-omega/2, omega/2]. A
    non-finite or non-positive omega raises ValidationError."""
    omega = _check_omega(omega)
    v = _numbers(values, "values", float)
    y = v - omega * np.round(v / omega)
    y = np.where(y <= -0.5 * omega, y + omega, y)
    return float(y) if y.ndim == 0 else y


def _assignment(cost) -> list:
    """Column of each row in a minimum-cost perfect matching of a square
    matrix of finite floats, given as a list of row lists.

    The shortest-augmenting-path method of Crouse, IEEE Trans. Aerosp.
    Electron. Syst. 52, 1679 (2016), in the form scipy's
    ``linear_sum_assignment`` runs for a square matrix: rows are augmented in
    order, the columns still open are scanned from the last one down, and of
    two columns at the same reduced cost the one that is not yet assigned
    wins. The reduced cost and dual updates are the same float expressions
    in the same order, so ties, exact or at rounding, go the same way and the
    returned permutation is the one scipy returns.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    path = [-1] * n
    col4row = [-1] * n
    row4col = [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        in_tree = [False] * n
        scanned = [False] * n
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            in_tree[i] = True
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if in_tree[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(n):
            if scanned[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def match_permutation(a, b, omega: float) -> np.ndarray:
    """Optimal assignment of b onto a by circular quasienergy distance.

    Returns indices ``perm`` with b[perm[i]] matched to a[i]. Plain sorting
    breaks near the zone edge where the spectrum wraps; the assignment cost
    |fold(a_i - b_j)| does not. ``_assignment`` solves it by Crouse's
    shortest augmenting path, ported from scipy's ``linear_sum_assignment``
    with the same tie rule (reversed column scan; at equal reduced cost an
    unassigned column wins), so the optimum picked among ties, and every
    matched distance, is scipy's while scipy is not imported. Empty or
    non-finite spectra and a non-finite or non-positive omega (refused by
    ``fold``) raise ValidationError.
    """
    a = _numbers(a, "a", float)
    b = _numbers(b, "b", float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"cannot match spectra of shapes {a.shape} and {b.shape}")
    if not a.size:
        raise ValidationError("cannot match empty spectra a and b")
    for name, x in (("a", a), ("b", b)):
        if not np.isfinite(x).all():
            raise ValidationError(f"{name} must be finite, got {x.tolist()}")
    cost = np.abs(fold(a[:, None] - b[None, :], omega))
    if not np.isfinite(cost).all():
        raise ValidationError(f"circular distances of {a.tolist()} and {b.tolist()} overflow")
    return np.array(_assignment(cost.tolist()), dtype=int)


def match_distance(a, b, omega: float) -> float:
    """Largest circular distance in the optimal pairing of two spectra."""
    a = _numbers(a, "a", float)
    b = _numbers(b, "b", float)
    perm = match_permutation(a, b, omega)
    return float(np.abs(fold(a - b[perm], omega)).max())


def quasienergies_from_propagator(U: np.ndarray, omega: float) -> np.ndarray:
    """Sorted quasienergies from a one-period propagator.

    Each eigenvalue lambda of U contributes -arg(lambda)/T folded into
    (-omega/2, omega/2]. Only eigenvalues of U are taken to a log branch,
    never the matrix itself. ``U`` must be a finite square matrix.
    """
    U = _numbers(U, "U", complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValidationError(f"U must be a square matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValidationError("U must be finite, got a NaN or infinite entry")
    lam = np.linalg.eigvals(U)
    eps = -np.angle(lam) * omega / (2.0 * np.pi)
    return np.sort(fold(eps, omega))


def _time(t) -> np.ndarray:
    """``t`` as a one-entry time array; a bool, a non-real or a non-finite value is refused."""
    t = _real(t, "t")
    if not math.isfinite(t):
        raise ValidationError(f"t must be finite, got {t}")
    return np.array([t])


def _bond_phases(lattice: LatticeSpec, drive: DriveSpec, times) -> np.ndarray:
    """exp(i chi(times)) as a read-only array, one row per class of the
    lattice's pair table (bit-equal displacement and amplitude)."""
    table = lattice._pairs
    phases = _exponentials(drive, table.displacements[table.distinct], table.negated, times)
    phases.flags.writeable = False
    return phases


_thread = threading.local()


@contextlib.contextmanager
def _sweep_scope(sweep: dict, drives=()):
    """Within the block this thread shares ``sweep``, the one dict of every
    task of a sweep, for its integrator phases (``_integrator_phases``),
    propagates the task's ``drives`` in that order and stashes propagators
    in a new dict (``_propagator``); all three go when the block ends."""
    _thread.sweep, _thread.drives, _thread.stash = sweep, drives, {}
    try:
        yield
    finally:
        del _thread.sweep, _thread.drives, _thread.stash


def _integrator_phases(lattice: LatticeSpec, drive: DriveSpec, steps: int) -> np.ndarray:
    """``_bond_phases`` on the integrator nodes of one period at ``steps`` steps,
    built once per (phase rows, frequency class, steps) in the sweep's dict:
    the class is that of the earliest drive met with these rows of which
    ``drive`` is a 2^e multiple, and that drive builds them. Outside
    ``_sweep_scope`` that dict is a new one, so they are built fresh.
    """
    key, sweep = (lattice, drive, steps), getattr(_thread, "sweep", {})
    if key not in sweep:
        table = lattice._pairs
        rows = table.displacements[table.distinct]
        tag = (rows.tobytes(), table.negated.tobytes())  # all phases read; one negated entry per row
        met = sweep.setdefault(tag, [])  # the drives met with these rows, in order (a repeat is harmless)
        if drive not in met:
            met.append(drive)
        first = next(d for d in met if d is drive or _doubling(d, drive, rows) is not None)
        if (tag, first, steps) not in sweep:
            times = ((np.arange(steps)[:, None] + _NODES[None, :]) * (first.period / steps)).reshape(-1)
            sweep.setdefault((tag, first, steps), _bond_phases(lattice, first, times))
        sweep.setdefault(key, sweep[tag, first, steps])
    return sweep[key]


def _hamiltonian_stack(lattice: LatticeSpec, k: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """H(t) at wave vector k on every time of ``phases`` (``_bond_phases``):
    each bond adds its amplitude, its Bloch phase and its class's row."""
    d = lattice.basis_count
    bonds = lattice.bonds
    H = np.zeros((phases.shape[1], d, d), dtype=complex)
    R = np.array([np.asarray(b.cell_offset, dtype=float) @ lattice.bravais_vectors for b in bonds])
    # one scalar dot kernel per bond, as in bloch_matrix: R @ k rounds differently
    kR = np.vecdot(R, k)
    for b, row, x in zip(bonds, lattice._pairs.distinct_of, kR):
        H[:, b.target_basis, b.source_basis] += b.amplitude * np.exp(1j * x) * phases[row]
    return H


def bloch_hamiltonian_t(lattice: LatticeSpec, drive: DriveSpec, k, t: float) -> np.ndarray:
    """Instantaneous Bloch Hamiltonian of the driven lattice at time t."""
    _check_drive_dim(lattice, drive)
    k = _check_k(k, lattice.space_dim)
    return _hamiltonian_stack(lattice, k, _bond_phases(lattice, drive, _time(t)))[0]


def offset_matrices_at_time(lattice: LatticeSpec, drive: DriveSpec, t: float) -> tuple:
    """Instantaneous tunneling matrices per cell offset, phases included."""
    _check_drive_dim(lattice, drive)
    phases = _bond_phases(lattice, drive, _time(t))[:, 0]
    table = lattice._pairs
    values = [b.amplitude * phases[row] for b, row in zip(lattice.bonds, table.distinct_of)]
    blocks = _scatter(len(table.offsets), table.bond_index, values, lattice.basis_count)
    return OffsetMatrix._trusted(table.offsets, blocks)


def _time_ordered_product(chunks) -> np.ndarray:
    """Pairwise-tree product mats[-1] @ ... @ mats[0] of a stack given as
    chunks of MIN_STEPS matrices (the last may be shorter), each reduced and
    dropped in turn; MIN_STEPS is a power of two, so they pair as one tree."""
    def tree(arr: np.ndarray) -> np.ndarray:
        while arr.shape[0] > 1:
            m = arr.shape[0] // 2
            head = np.matmul(arr[1 : 2 * m : 2], arr[0 : 2 * m : 2])
            arr = head if arr.shape[0] % 2 == 0 else np.concatenate([head, arr[-1:]])
        return arr[0]

    return tree(np.stack(list(map(tree, chunks))))


def _run_propagators(w: np.ndarray, V: np.ndarray, drives, steps: int) -> np.ndarray:
    """Propagators of ``drives`` at ``steps`` steps, shape (drives, d, d),
    from their shared decomposition H = V diag(w) V^H: at each node the
    drives' left factors V e^{-i f w} are stacked into one (drives * d, d)
    block and multiplied once by V^H, with the bits of one product each."""
    factors = np.stack([np.tile(_WEIGHTS * (drive.period / steps), steps) for drive in drives], 1)

    def exponentials(start: int) -> np.ndarray:
        c = slice(start, start + MIN_STEPS)
        left = V[c, None] * np.exp(-1j * factors[c, :, None] * w[c, None, :])[:, :, None, :]
        product = left.reshape(len(left), -1, w.shape[1]) @ np.conj(np.swapaxes(V[c], 1, 2))
        return product.reshape(left.shape)

    return _time_ordered_product(map(exponentials, range(0, len(w), MIN_STEPS)))


def _propagator(lattice, drive, k, steps: int) -> np.ndarray:
    """``drive``'s propagator at ``steps`` steps: stashed in the task's
    ``_sweep_scope`` by an earlier drive, or formed from one eigh of the H(t)
    stack at k together with those of the task's later drives whose phase
    array is the same, which are stashed there under their own keys."""
    stash = getattr(_thread, "stash", {})
    key = k.tobytes()
    U = stash.pop((lattice, key, drive, steps), None)
    if U is not None:
        return U
    phases = _integrator_phases(lattice, drive, steps)
    drives = getattr(_thread, "drives", ())
    later = drives[drives.index(drive) + 1 :] if drive in drives else ()
    run = [drive, *(d for d in later if _integrator_phases(lattice, d, steps) is phases)]
    w, V = np.linalg.eigh(_hamiltonian_stack(lattice, k, phases))
    U = _run_propagators(w, V, run, steps)
    for other, Uo in zip(run[1:], U[1:]):
        stash[lattice, key, other, steps] = Uo
    return U[0]


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
    refine: bool = True,
) -> QuasiSpectrum:
    """Integrate the one-period propagator at wave vector k.

    Starts at ``steps``, in [MIN_STEPS, MAX_STEPS // 2] so that one doubling
    fits under the cap, and doubles the step count until the matched
    quasienergies change by less than RICHARDSON_TOL * omega between
    consecutive resolutions, returning the finer result. Unitarity beyond
    UNITARITY_TOL triggers the same escalation; running past MAX_STEPS
    without settling raises ConvergenceError. With ``refine`` off a single
    resolution is computed and only unitarity is checked. The package always
    uses the defaults; ``steps`` and ``refine`` stay parameters because the
    benchmark's tracer reads both by name to count resolutions and substeps,
    so each propagation of a sweep comes through here, also one whose
    propagator an earlier drive with the same phases formed and stashed.
    """
    _check_drive_dim(lattice, drive)
    steps = _integer(steps, "steps")
    if not MIN_STEPS <= steps <= MAX_STEPS // 2:
        raise ValidationError(f"steps must be in [{MIN_STEPS}, {MAX_STEPS // 2}], got {steps}")
    w = drive.omega
    k = _check_k(k, lattice.space_dim)

    U = _propagator(lattice, drive, k, steps)
    eps = quasienergies_from_propagator(U, w)
    if not refine:
        drift = _unitarity_error(U)
        if not (drift <= UNITARITY_TOL):
            raise ConvergenceError(f"propagator unitarity drift {drift:.3e} exceeds {UNITARITY_TOL}")
        return QuasiSpectrum(k, w, steps, eps, U, drift, float("nan"))

    while True:
        finer = 2 * steps
        if finer > MAX_STEPS:
            raise ConvergenceError(
                f"quasienergies did not settle below {RICHARDSON_TOL:.1e}*omega "
                f"within {MAX_STEPS} steps"
            )
        U2 = _propagator(lattice, drive, k, finer)
        eps2 = quasienergies_from_propagator(U2, w)
        change = match_distance(eps2, eps, w)
        drift = _unitarity_error(U2)
        if change < RICHARDSON_TOL * w and drift <= UNITARITY_TOL:
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


def _on_pool(task, items) -> list:
    """[task(item) for item in items], run on thread_count() workers; a
    task's error raises on collection."""
    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        return list(pool.map(task, items))


@dataclass(frozen=True, eq=False)
class PowerLawFit:
    """Least-squares slope of log(error) against log(omega)."""

    slope: float
    intercept: float
    omegas: np.ndarray
    errors: np.ndarray
    excluded_omegas: np.ndarray
    excluded_errors: np.ndarray


def _point_list(omegas, errors) -> str:
    """'omega=10 (error 2.22e-16), ...': sweep points for a diagnostic line."""
    return ", ".join(f"omega={a:g} (error {b:.2e})" for a, b in zip(omegas, errors))


def fit_power_law(omegas, errors) -> PowerLawFit:
    """Fit error ~ omega^slope, dropping points at the numerical floor.

    Errors at or below ERROR_FLOOR carry no scaling information (they measure
    integrator and rounding noise, not the expansion remainder); they are
    left out of the fit and listed in ``excluded_omegas``/``excluded_errors``.
    A non-finite or non-positive omega raises ValidationError, as in a
    sweep; a non-finite error, or fewer than two distinct frequencies above
    the floor, raises ConvergenceError naming the points.
    """
    x = _numbers(omegas, "omegas", float)
    y = _numbers(errors, "errors", float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("omegas and errors must be 1d arrays of equal length")
    for w in x.tolist():
        _check_omega(w, "omegas entry")
    bad = ~np.isfinite(y)
    if bad.any():
        raise ConvergenceError(f"sweep errors are not finite: {_point_list(x[bad], y[bad])}")
    keep = y > ERROR_FLOOR
    if len(set(x[keep].tolist())) < 2:
        excluded = "" if keep.all() else f"; at the floor: {_point_list(x[~keep], y[~keep])}"
        raise ConvergenceError(
            "fewer than two sweep points above the error floor at distinct frequencies; "
            f"no slope can be fit{excluded}"
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


def _sweep_omegas(omegas) -> list:
    """Sweep frequencies, ascending: distinct, at least 4, spanning a factor 8."""
    ws = sorted(_check_omega(w, "omegas entry") for w in _items(omegas, "omegas"))
    if len(set(ws)) != len(ws):
        raise ValidationError("sweep frequencies must be distinct")
    if len(ws) < 4:
        raise ValidationError(f"sweep needs at least 4 frequencies, got {len(ws)}")
    if ws[-1] < 8.0 * ws[0]:
        raise ValidationError(
            f"sweep must span at least a factor 8 in omega, got {ws[-1] / ws[0]:.3g}"
        )
    return ws


def _sweep_inputs(lattice: LatticeSpec, drive_family, k_set, omegas) -> tuple:
    """Validated sweep inputs: (drives in ascending omega, k list)."""
    ws = _sweep_omegas(omegas)
    k_list = [_check_k(k, lattice.space_dim) for k in _items(k_set, "k_set")]
    if not k_list:
        raise ValidationError("k_set must be nonempty")
    drives = []
    for w in ws:
        drive = drive_family(w)
        if not isinstance(drive, DriveSpec):
            raise ValidationError(f"drive_family must return a DriveSpec, got {drive!r}")
        if abs(drive.omega - w) > 1e-9 * w:
            raise ValidationError(f"drive_family returned omega {drive.omega}, expected {w}")
        _check_drive_dim(lattice, drive)
        drives.append(drive)
    return drives, k_list


def _matched_spectra(lattice, drives, models, k_list, orders) -> tuple:
    """(E, Q), both shaped (orders, drives, k, basis): E holds the spectra of
    ``models`` truncated at each of ``orders`` (0 or 1), Q the exact
    quasienergies of ``drives`` that ``match_permutation`` pairs with them.
    Every E is taken before any propagation: per model and order one Bloch
    call over the stack of distinct k, ``bloch_matrix`` of order 0 alone or
    ``effective_bloch`` for order 1, and one stacked ``eigvalsh``. Each
    bit-distinct (drive, k) is propagated once; a repeated k copies its first
    occurrence. One pool task per distinct k propagates every drive in the
    given order (ascending omega in a sweep), so drives whose H(t) stacks are
    bit-equal share one decomposition."""
    first = _first_occurrences(k_list)
    distinct = sorted(set(first))
    ks = np.array([k_list[ik] for ik in distinct])
    E = np.zeros((len(orders), len(drives), len(k_list), lattice.basis_count))
    for iw, model in enumerate(models):
        for io, o in enumerate(orders):
            H = effective_bloch(model, ks) if o else bloch_matrix(model.order0, ks, model.bravais_vectors)
            E[io, iw, distinct] = np.linalg.eigvalsh(H)

    terms = {}

    def task(ik: int) -> list:
        with _sweep_scope(terms, drives):
            return [propagate_period(lattice, drive, k_list[ik]).quasienergies for drive in drives]

    Q = np.zeros_like(E)
    for ik, spectra in zip(distinct, _on_pool(task, distinct)):
        for iw, eps in enumerate(spectra):
            for io in range(len(orders)):
                Q[io, iw, ik] = eps[match_permutation(E[io, iw, ik], eps, drives[iw].omega)]
    return E[:, :, first], Q[:, :, first]


def _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff) -> np.ndarray:
    """Matched distances between exact quasienergies and the effective
    spectrum truncated at each of ``orders``, shape (orders, omega, k) with
    omegas ascending. A repeated k is computed once; its columns are copies
    of its first occurrence's."""
    if not orders or any(o not in (0, 1) for o in orders):
        raise ValidationError(f"orders must be a subset of (0, 1), got {orders}")
    gauge = Gauge.parse(gauge)
    drives, k_list = _sweep_inputs(lattice, drive_family, k_set, omegas)
    models = _class_models(lattice, drives, gauge, cutoff)
    E, Q = _matched_spectra(lattice, drives, models, k_list, orders)
    errors = [np.abs(fold(E[:, i] - Q[:, i], d.omega)).max(axis=-1) for i, d in enumerate(drives)]
    return np.stack(errors, axis=1)


def error_matrix(
    lattice: LatticeSpec,
    drive_family,
    k_set,
    omegas,
    order: int = 1,
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
) -> np.ndarray:
    """Matched quasienergy distances per sweep point, shape (n_omega, n_k)
    with omegas ascending. Row maxima feed :func:`fit_power_law`."""
    orders = (_integer(order, "order"),)
    return _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff)[0]


def scaling_errors(
    lattice: LatticeSpec,
    drive_family,
    k_set,
    omegas,
    orders=(0, 1),
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
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
    orders = tuple(sorted({_integer(o, "orders entry") for o in _items(orders, "orders")}))
    errors = _sweep_errors(lattice, drive_family, k_set, omegas, orders, gauge, cutoff)
    return {o: e.max(axis=1) for o, e in zip(orders, errors)}


def magnus_commutator_probe(
    lattice: LatticeSpec, drive: DriveSpec, t1: float, t2: float, torus
) -> float:
    """Largest commutator matrix element of [H(t1), H(t2)] on a finite torus.

    Zero for every single-site-basis lattice (blocks are scalars) and for
    t1 = t2; a generically nonzero value signals that the leading effective
    Hamiltonian cannot be exact. Torus extents must cover twice the largest
    bond offset. One stacked bracket over the offset pairs i <= j groups each
    pair's terms so that both cases give exact zeros (x - x; scalar products
    commute bitwise); ``_scatter`` sums them by total offset, then those
    classes, ascending, modulo the extents: every block row of the torus
    matrix holds these sums, so the cost does not grow with the torus. Blocks
    scaled by 2^-e (2^e > max |j|), the result by 2^2e, keep every bit without overflow.
    """
    e = math.frexp(lattice.amplitude_scale())[1]
    C, D = (offset_matrices_at_time(lattice, drive, t).blocks * 2.0**-e for t in (t1, t2))
    extents = _torus_extents(torus, lattice.dimension, [b.cell_offset for b in lattice.bonds])
    i, j = np.triu_indices(len(C))
    P, Q = C[:, None] @ D[None], D[:, None] @ C[None]  # P[i, j] = C_i D_j, Q[i, j] = D_i C_j
    terms = np.where((i == j)[:, None, None], P[i, i] - Q[i, i], (P[i, j] - Q[j, i]) + (P[j, i] - Q[i, j]))

    def summed(values, keys):  # per distinct key, ascending, each in the given order
        rows = {key: n for n, key in enumerate(sorted(set(keys)))}
        return _scatter(len(rows), ([rows[key] for key in keys],), values, lattice.basis_count)

    totals = [tuple(o) for o in np.array(lattice._pairs.offsets)[[i, j]].sum(axis=0).tolist()]
    residues = [tuple(x % L for x, L in zip(o, extents)) for o in sorted(set(totals))]
    top = float(np.abs(summed(summed(terms, totals), residues)).max())
    return math.ldexp(top, 2 * e) if math.frexp(top)[1] + 2 * e <= 1024 else math.inf  # inf: past 2^1024
