"""Periodic shaking forces and per-bond Fourier harmonics.

The force F(t) = sum_m A_m cos(m w t) + B_m sin(m w t) enters the rotating
frame only through the phase each bond accumulates,

    chi_a(t) = integral_0^t F(tau).a dtau  -  (period average of the same),

which integrates in closed form to
sum_m [(A_m.a) sin(m w t) - (B_m.a) cos(m w t)] / (m w). The time-dependent
bond amplitude is g_a(t) = j exp(i chi_a(t)); its harmonics g_a^n are read
off a uniform-grid DFT over one period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, ValidationError
from .lattice import Bond, LatticeSpec, require_closed

__all__ = [
    "Harmonic",
    "DriveSpec",
    "BondHarmonics",
    "phase",
    "bond_harmonics",
    "lattice_harmonics",
    "circular_drive",
    "linear_drive",
    "rescale_drive",
]

DEFAULT_CUTOFF = 32
MAX_CUTOFF = 256
PARSEVAL_TOL = 1e-10


def _vec(a) -> np.ndarray:
    v = np.array(a, dtype=float)
    if v.ndim != 1:
        raise ValidationError("harmonic amplitude must be a vector")
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Harmonic:
    """One Fourier component of the force: A_m cos(m w t) + B_m sin(m w t)."""

    m: int
    cos_amplitude: np.ndarray
    sin_amplitude: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "cos_amplitude", _vec(self.cos_amplitude))
        object.__setattr__(self, "sin_amplitude", _vec(self.sin_amplitude))
        if self.m < 1:
            raise ValidationError(f"harmonic index must be >= 1, got {self.m}")
        if self.cos_amplitude.shape != self.sin_amplitude.shape:
            raise ValidationError(
                f"harmonic m={self.m}: cos and sin amplitudes differ in length"
            )
        for field in ("cos_amplitude", "sin_amplitude"):
            v = getattr(self, field)
            if not np.isfinite(v).all():
                raise ValidationError(f"harmonic m={self.m}: {field} must be finite, got {v}")


@dataclass(frozen=True, eq=False)
class DriveSpec:
    """Angular frequency plus force harmonics. An empty harmonic tuple is the
    undriven limit."""

    omega: float
    harmonics: tuple

    def __post_init__(self):
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "harmonics", tuple(self.harmonics))
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValidationError(f"omega must be finite and positive, got {self.omega}")
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


def phase(drive: DriveSpec, a, t):
    """Accumulated zero-mean phase chi_a(t) for displacement ``a``.

    Analytic in t (scalar or array); periodic with the drive period.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    w = drive.omega
    chi = np.zeros_like(t)
    for h in drive.harmonics:
        if h.cos_amplitude.shape[0] != a.shape[0]:
            raise ValidationError(
                f"drive acts in {h.cos_amplitude.shape[0]} dimensions, "
                f"displacement has {a.shape[0]}"
            )
        ca = float(h.cos_amplitude @ a) / (h.m * w)
        sa = float(h.sin_amplitude @ a) / (h.m * w)
        chi = chi + ca * np.sin(h.m * w * t) - sa * np.cos(h.m * w * t)
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

    def positive(self) -> np.ndarray:
        """g^n for n = 1..cutoff."""
        return self.coefficients[self.cutoff + 1:]

    def negative(self) -> np.ndarray:
        """g^{-n} for n = 1..cutoff."""
        return self.coefficients[self.cutoff - 1::-1]


def _default_samples(cutoff: int) -> int:
    n = 1024
    while n < 8 * cutoff:
        n *= 2
    return n


def _harmonics_strict(drive, a, amplitude, cutoff):
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    n_s = _default_samples(cutoff)
    t = np.arange(n_s) * (drive.period / n_s)
    g = amplitude * np.exp(1j * phase(drive, a, t))
    spectrum = np.fft.fft(g) / n_s
    idx = np.arange(-cutoff, cutoff + 1) % n_s
    coefficients = spectrum[idx]
    power = float(np.sum(np.abs(coefficients) ** 2))
    tail = abs(power - abs(amplitude) ** 2) / abs(amplitude) ** 2
    if not (tail <= PARSEVAL_TOL):
        raise CutoffTooSmallError(
            f"cutoff {cutoff} too small: Parseval tail mass {tail:.3e} "
            f"exceeds {PARSEVAL_TOL:.1e}",
            tail,
        )
    coefficients.flags.writeable = False
    return coefficients


def _at_cutoff(build, cutoff: int | None):
    """``build(n)`` at the given cutoff. With ``cutoff=None`` the cutoff starts
    at 32 and doubles, up to 256, until ``build`` stops raising
    CutoffTooSmallError; an explicit cutoff is used as given."""
    if cutoff is not None:
        return build(int(cutoff))
    n = DEFAULT_CUTOFF
    while True:
        try:
            return build(n)
        except CutoffTooSmallError:
            if n >= MAX_CUTOFF:
                raise
            n *= 2


def bond_harmonics(
    lattice: LatticeSpec, drive: DriveSpec, bond: Bond, cutoff: int | None = None
) -> BondHarmonics:
    """Harmonics of one bond's time-dependent amplitude.

    With ``cutoff=None`` the cutoff starts at 32 and doubles (up to 256) until
    the Parseval tail drops below 1e-10; an explicit cutoff is used as given
    and raises CutoffTooSmallError on a deficit.
    """
    a = lattice.displacement(bond)

    def build(n):
        coefficients = _harmonics_strict(drive, a, bond.amplitude, n)
        return BondHarmonics(bond, a, drive.omega, n, coefficients)

    return _at_cutoff(build, cutoff)


def lattice_harmonics(lattice: LatticeSpec, drive: DriveSpec, cutoff: int | None = None) -> dict:
    """Harmonics for every bond of a closed lattice, all at one shared cutoff.

    In auto mode the cutoff escalates jointly until every bond passes the
    Parseval check, so any two results can be combined in two-step amplitudes.
    """
    require_closed(lattice)
    return _at_cutoff(
        lambda n: {b: bond_harmonics(lattice, drive, b, n) for b in lattice.bonds}, cutoff
    )


def circular_drive(omega: float, f0: float) -> DriveSpec:
    """Monochromatic force of fixed magnitude rotating in the plane:
    F(t) = f0 (cos wt, sin wt)."""
    return DriveSpec(omega, (Harmonic(1, [f0, 0.0], [0.0, f0]),))


def linear_drive(omega: float, amplitude) -> DriveSpec:
    """Monochromatic force along a fixed axis: F(t) = A cos(wt)."""
    amplitude = np.asarray(amplitude, dtype=float)
    return DriveSpec(omega, (Harmonic(1, amplitude, np.zeros_like(amplitude)),))


def rescale_drive(drive: DriveSpec, omega: float) -> DriveSpec:
    """Move a drive to a new frequency holding every per-bond z fixed.

    z ~ F.a/omega, so all harmonic amplitudes scale by omega_new/omega_old.
    """
    r = float(omega) / drive.omega
    hs = tuple(
        Harmonic(h.m, r * h.cos_amplitude, r * h.sin_amplitude) for h in drive.harmonics
    )
    return DriveSpec(omega, hs)
