"""Periodic shaking forces and per-bond Fourier harmonics.

The force F(t) = sum_m A_m cos(m w t) + B_m sin(m w t) enters the rotating
frame only through the phase each bond accumulates,

    chi_a(t) = integral_0^t F(tau).a dtau  -  (period average of the same),

which integrates in closed form to
sum_m [(A_m.a) sin(m w t) - (B_m.a) cos(m w t)] / (m w). The time-dependent
bond amplitude is g_a(t) = j exp(i chi_a(t)); its harmonics g_a^n are read
off a uniform-grid DFT over one period.

A lattice's harmonics take one pass per drive. Bonds with bit-equal
displacement and amplitude have the same g(t), so g is sampled once per such
class (6 of kagome's 12 bonds, 4 of Lieb's 8), all classes in one batched
FFT with the sines and cosines of t evaluated once. The cutoff escalation
keeps the spectra while the sample count stays the same. The result is
bit-identical to one FFT per bond: each row goes through the same
elementwise operations in the same order (``np.vecdot`` takes the
displacement dot products with the kernel of one scalar dot per row),
numpy's FFT transforms each row on its own, and the Parseval check runs per
class in bond order, so the first failing bond names the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, ValidationError
from .lattice import Bond, LatticeSpec, _integer, _items, _numbers, _real

__all__ = [
    "Harmonic",
    "DriveSpec",
    "BondHarmonics",
    "phase",
    "lattice_harmonics",
    "circular_drive",
    "linear_drive",
    "rescale_drive",
]

DEFAULT_CUTOFF = 32
MAX_CUTOFF = 256
PARSEVAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Harmonic:
    """One Fourier component of the force: A_m cos(m w t) + B_m sin(m w t)."""

    m: int
    cos_amplitude: np.ndarray
    sin_amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "harmonic index m"))
        if self.m < 1:
            raise ValidationError(f"harmonic index must be >= 1, got {self.m}")
        for field in ("cos_amplitude", "sin_amplitude"):
            v = _numbers(getattr(self, field), f"harmonic m={self.m}: {field}", float)
            if v.ndim != 1:
                raise ValidationError(f"harmonic m={self.m}: {field} must be a vector, got {v}")
            if not np.isfinite(v).all():
                raise ValidationError(f"harmonic m={self.m}: {field} must be finite, got {v}")
            v.flags.writeable = False
            object.__setattr__(self, field, v)
        if self.cos_amplitude.shape != self.sin_amplitude.shape:
            raise ValidationError(
                f"harmonic m={self.m}: cos and sin amplitudes differ in length"
            )


def _check_omega(omega, field: str = "omega") -> float:
    """``omega`` as a float; a bool, a non-number, a non-finite or a
    non-positive value is refused, naming ``field``."""
    omega = _real(omega, field)
    if not (math.isfinite(omega) and omega > 0):
        raise ValidationError(f"{field} must be finite and positive, got {omega}")
    return omega


@dataclass(frozen=True, eq=False)
class DriveSpec:
    """Angular frequency plus force harmonics. An empty harmonic tuple is the
    undriven limit."""

    omega: float
    harmonics: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", _check_omega(self.omega))
        object.__setattr__(self, "harmonics", _items(self.harmonics, "harmonics"))
        seen = set()
        dim = None
        for h in self.harmonics:
            if not isinstance(h, Harmonic):
                raise ValidationError("harmonics must be Harmonic instances")
            if h.m in seen:
                raise ValidationError(f"duplicate harmonic index m={h.m}")
            seen.add(h.m)
            if dim is None:
                dim = h.cos_amplitude.shape[0]
            elif h.cos_amplitude.shape[0] != dim:
                raise ValidationError("harmonics have inconsistent vector dimensions")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def space_dim(self):
        return self.harmonics[0].cos_amplitude.shape[0] if self.harmonics else None


def _check_drive_dim(lattice: LatticeSpec, drive: DriveSpec) -> None:
    """A drive fits a lattice when its force has one component per Cartesian axis."""
    if drive.space_dim is not None and drive.space_dim != lattice.space_dim:
        raise ValidationError(
            f"drive force has {drive.space_dim} components, "
            f"lattice lives in {lattice.space_dim} Cartesian dimensions"
        )


def phase(drive: DriveSpec, a, t):
    """Accumulated zero-mean phase chi_a(t) for displacement ``a``.

    Analytic in t (scalar or array); periodic with the drive period. A stack
    of displacements, shape (rows, dim), gives one row of phases per
    displacement, shape (rows,) + t.shape. A phase that is not finite
    (F.a/(m w) or m w t beyond the float range) raises ValidationError
    naming the harmonic.
    """
    a = _numbers(a, "a", float)
    t = _numbers(t, "t", float)
    if not a.ndim or drive.space_dim not in (None, a.shape[-1]):
        raise ValidationError(f"a must end in the drive's {drive.space_dim or 'force'} axes, got {a.shape}")
    rows = a.reshape(-1, a.shape[-1])
    lead = a.shape[:-1] + (1,) * t.ndim
    w = drive.omega
    chi = np.zeros(a.shape[:-1] + t.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in drive.harmonics:
            # vecdot runs the scalar dot kernel per row: rows @ a rounds differently
            ca = np.vecdot(rows, h.cos_amplitude).reshape(lead) / (h.m * w)
            sa = np.vecdot(rows, h.sin_amplitude).reshape(lead) / (h.m * w)
            chi = chi + ca * np.sin(h.m * w * t) - sa * np.cos(h.m * w * t)
            if not np.isfinite(chi).all():
                raise ValidationError(
                    f"harmonic m={h.m}: bond phase is not finite "
                    f"(F.a/(m omega) or m omega t overflows at omega={w:g})"
                )
    return chi if chi.ndim else float(chi)


@dataclass(frozen=True, eq=False)
class BondHarmonics:
    """Fourier coefficients g^n, n in [-cutoff, cutoff], of one driven bond."""

    bond: Bond
    displacement: np.ndarray
    omega: float
    cutoff: int
    coefficients: np.ndarray

    def coeff(self, n: int) -> complex:
        if abs(n) > self.cutoff:
            raise ValidationError(f"harmonic index {n} exceeds cutoff {self.cutoff}")
        return complex(self.coefficients[n + self.cutoff])


def _split(G: np.ndarray) -> tuple:
    """Views of g^n and g^{-n} for n = 1..N and of g^0, for each row of a
    stack of (2N+1)-coefficient windows such as ``BondHarmonics.coefficients``."""
    N = G.shape[1] // 2
    return G[:, N + 1:], G[:, N - 1::-1], G[:, N]


def _default_samples(cutoff: int) -> int:
    n = 1024
    while n < 8 * cutoff:
        n *= 2
    return n


def _harmonics_at(drive: DriveSpec, displacements: np.ndarray, amplitudes, cutoff: int | None):
    """(cutoff, coefficients): g^n for n in [-cutoff, cutoff], one read-only
    row per (displacement, amplitude) row, all at one cutoff.

    With ``cutoff=None`` the cutoff starts at 32 and doubles, up to 256, until
    every row's Parseval tail is at most 1e-10; an explicit one, also at most
    256, is used as given. A deficit raises CutoffTooSmallError with the first
    failing row's tail. Escalations that keep the sample count reuse the
    spectra: 1024 samples serve cutoffs 32 through 128.
    """
    n = DEFAULT_CUTOFF if cutoff is None else _integer(cutoff, "cutoff")
    if not 1 <= n <= MAX_CUTOFF:
        raise ValidationError(f"cutoff must be in [1, {MAX_CUTOFF}], got {n}")
    spectra = {}
    while True:
        n_s = _default_samples(n)
        if n_s not in spectra:
            t = np.arange(n_s) * (drive.period / n_s)
            chi = phase(drive, displacements, t)
            g = np.array(amplitudes, dtype=complex)[:, None] * np.exp(1j * chi)
            spectra[n_s] = np.fft.fft(g, axis=1) / n_s
        coefficients = spectra[n_s][:, np.arange(-n, n + 1) % n_s]
        # C order, so that each row's power is one pairwise sum along the
        # row, as np.sum of the row alone; the column-major gather would make
        # the sum run down the columns, one row after another
        power = np.sum(np.abs(coefficients, order="C") ** 2, axis=1).tolist()
        tails = [abs(p - abs(a) ** 2) / abs(a) ** 2 for p, a in zip(power, amplitudes)]
        tail = next((x for x in tails if not (x <= PARSEVAL_TOL)), None)
        if tail is None:
            coefficients.flags.writeable = False
            return n, coefficients
        if cutoff is not None or n >= MAX_CUTOFF:
            raise CutoffTooSmallError(
                f"cutoff {n} too small: Parseval tail mass {tail:.3e} "
                f"exceeds {PARSEVAL_TOL:.1e}",
                tail,
            )
        n *= 2


def lattice_harmonics(lattice: LatticeSpec, drive: DriveSpec, cutoff: int | None = None) -> dict:
    """{bond: BondHarmonics} for every bond of a lattice, at one cutoff.

    With ``cutoff=None`` the cutoff starts at 32 and doubles (up to 256) until
    every bond's Parseval tail is below 1e-10; an explicit one (also at most
    256) is used as given and raises CutoffTooSmallError on a deficit. Bonds
    with bit-equal displacement and amplitude share one read-only array.
    """
    _check_drive_dim(lattice, drive)
    if not lattice.bonds:
        return {}
    table = lattice._pairs
    amplitudes = [lattice.bonds[i].amplitude for i in table.distinct]
    n, coefficients = _harmonics_at(
        drive, table.displacements[table.distinct], amplitudes, cutoff
    )
    return {
        b: BondHarmonics(b, a, drive.omega, n, coefficients[row])
        for b, a, row in zip(lattice.bonds, table.displacements, table.distinct_of)
    }


def circular_drive(omega: float, f0: float) -> DriveSpec:
    """Monochromatic force of fixed magnitude rotating in the plane:
    F(t) = f0 (cos wt, sin wt)."""
    f0 = _real(f0, "f0")
    return DriveSpec(omega, (Harmonic(1, [f0, 0.0], [0.0, f0]),))


def linear_drive(omega: float, amplitude) -> DriveSpec:
    """Monochromatic force along a fixed axis: F(t) = A cos(wt)."""
    amplitude = _numbers(amplitude, "amplitude", float)
    if amplitude.ndim != 1:
        raise ValidationError(f"amplitude must be a vector, got {amplitude}")
    return DriveSpec(omega, (Harmonic(1, amplitude, np.zeros_like(amplitude)),))


def rescale_drive(drive: DriveSpec, omega: float) -> DriveSpec:
    """Move a drive to a new frequency holding every per-bond z fixed.

    z ~ F.a/omega, so all harmonic amplitudes scale by omega_new/omega_old.
    """
    omega = _check_omega(omega)
    r = omega / drive.omega
    with np.errstate(over="ignore"):  # Harmonic refuses an amplitude that overflows
        hs = tuple(
            Harmonic(h.m, r * h.cos_amplitude, r * h.sin_amplitude) for h in drive.harmonics
        )
    return DriveSpec(omega, hs)
