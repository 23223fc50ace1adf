"""High-frequency effective Hamiltonian of a shaken lattice.

The leading term keeps the undriven sparsity with every bond renormalized to
its static harmonic g^0. The first correction is a sum over two-step
processes: for each composable pair of bonds (first hop, then second hop) a
two-step amplitude

    beta = sum_{n>=1} (g1^{-n} g2^{n} - g2^{-n} g1^{n}) / (n w)            (1)
         + sum_{n>=1} ((g2^{-n}-g2^{n}) g1^0 - g2^0 (g1^{-n}-g1^{n})) / (n w)
         + (i/w) (f2 g1^0 - g2^0 f1)

accumulates into the offset-class matrix of the total hop. The gauge enters
through f: zero in the Floquet gauge, f = sum_{n>=1} (i/n)(g^{-n} - g^{n}) in
the static-free gauge, where lines two and three cancel identically and beta
reduces to line (1) alone -- the fast path ``beta_static_free``. In either
gauge beta is antisymmetric under exchange of the two hops, which is the
origin of all destructive-interference selection rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drive import BondHarmonics, DriveSpec, _at_cutoff, bond_harmonics, lattice_harmonics
from .errors import ValidationError
from .lattice import (
    Bond,
    LatticeSpec,
    OffsetMatrix,
    bloch_matrix,
    from_offset_dict,
    require_closed,
)

__all__ = [
    "Gauge",
    "TwoStepAmplitude",
    "EffectiveModel",
    "gauge_coefficient",
    "beta_static_free",
    "beta_general",
    "order0",
    "order1",
    "build_effective_model",
    "effective_bloch",
]

DEFAULT_PRUNE_TOL = 1e-10


class Gauge(Enum):
    FLOQUET = "floquet"
    STATIC_FREE = "static-free"

    @classmethod
    def parse(cls, name: str) -> "Gauge":
        for g in cls:
            if g.value == name.strip().lower():
                return g
        raise ValidationError(
            f"unknown gauge '{name}'; choose one of {[g.value for g in cls]}"
        )


def _kahan(values) -> complex:
    # Compensated summation, ascending order as given.
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _check_compatible(h1: BondHarmonics, h2: BondHarmonics) -> None:
    if h1.omega != h2.omega:
        raise ValidationError(
            f"harmonic sets have different omega: {h1.omega} vs {h2.omega}"
        )
    if h1.cutoff != h2.cutoff:
        raise ValidationError(
            f"harmonic sets have different cutoff: {h1.cutoff} vs {h2.cutoff}"
        )


def gauge_coefficient(h: BondHarmonics) -> complex:
    """Static-free gauge matrix element f = sum_{n>=1} (i/n)(g^{-n} - g^{n})."""
    n = np.arange(1, h.cutoff + 1)
    return _kahan(1j * (h.negative() - h.positive()) / n)


def beta_static_free(h1: BondHarmonics, h2: BondHarmonics) -> complex:
    """Two-step amplitude in the static-free gauge (first hop h1, then h2).

    Valid when the tunneling amplitude depends only on the hop displacement;
    equals line (1) of the general expression.
    """
    _check_compatible(h1, h2)
    n = np.arange(1, h1.cutoff + 1)
    terms = (h1.negative() * h2.positive() - h2.negative() * h1.positive()) / (n * h1.omega)
    return _kahan(terms)


def _beta_lines(h1, h2, f1, f2) -> complex:
    """All three lines of the two-step amplitude; f1/f2 already per gauge."""
    w = h1.omega
    n = np.arange(1, h1.cutoff + 1)
    g1p, g1n = h1.positive(), h1.negative()
    g2p, g2n = h2.positive(), h2.negative()
    g1z, g2z = h1.coeff(0), h2.coeff(0)
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    value = _kahan((line1 + line2) / (n * w))
    return value + (1j / w) * (f2 * g1z - g2z * f1)


@dataclass(frozen=True, eq=False)
class TwoStepAmplitude:
    """One evaluated two-step process: first hop a_i, second hop a_j through
    the named intermediate basis site."""

    a_i: np.ndarray
    a_j: np.ndarray
    intermediate_basis: int
    value: complex


def beta_general(
    lattice: LatticeSpec,
    drive: DriveSpec,
    gauge: Gauge,
    bond1: Bond,
    bond2: Bond,
    cutoff: int | None = None,
) -> TwoStepAmplitude:
    """Two-step amplitude for hopping along ``bond1`` then ``bond2``.

    Works for any gauge and any bond amplitudes (no displacement condition);
    evaluates all three lines of the general expression.
    """
    if bond1.target_basis != bond2.source_basis:
        raise ValidationError(
            f"bonds do not compose: first hop ends on basis {bond1.target_basis}, "
            f"second starts on basis {bond2.source_basis}"
        )
    h1, h2 = _at_cutoff(
        lambda n: (
            bond_harmonics(lattice, drive, bond1, n),
            bond_harmonics(lattice, drive, bond2, n),
        ),
        cutoff,
    )
    if gauge is Gauge.STATIC_FREE:
        f1, f2 = gauge_coefficient(h1), gauge_coefficient(h2)
    else:
        f1 = f2 = 0.0 + 0.0j
    value = _beta_lines(h1, h2, f1, f2)
    return TwoStepAmplitude(h1.displacement, h2.displacement, bond1.target_basis, value)


def _order0_from_harmonics(lattice, harmonics) -> tuple:
    d = lattice.basis_count
    table = {}
    for b in lattice.bonds:
        m = table.setdefault(b.cell_offset, np.zeros((d, d), dtype=complex))
        m[b.target_basis, b.source_basis] += harmonics[b].coeff(0)
    return from_offset_dict(_symmetrize(table, d))


def _order1_from_harmonics(lattice, harmonics, gauge, omega, prune_tol) -> tuple:
    d = lattice.basis_count
    if gauge is Gauge.STATIC_FREE:
        f = {b: gauge_coefficient(harmonics[b]) for b in lattice.bonds}
    else:
        f = {b: 0.0 + 0.0j for b in lattice.bonds}
    table = {}
    for b1 in lattice.bonds:
        for b2 in lattice.bonds:
            if b2.source_basis != b1.target_basis:
                continue
            off = tuple(x + y for x, y in zip(b1.cell_offset, b2.cell_offset))
            m = table.setdefault(off, np.zeros((d, d), dtype=complex))
            m[b2.target_basis, b1.source_basis] += _beta_lines(
                harmonics[b1], harmonics[b2], f[b1], f[b2]
            )
    table = _symmetrize(table, d)
    threshold = prune_tol * lattice.amplitude_scale() ** 2 / omega
    pruned = {}
    for off, m in table.items():
        m = np.where(np.abs(m) < threshold, 0.0, m) if threshold > 0 else m
        if np.any(m != 0):
            pruned[off] = m
    return from_offset_dict(pruned)


def _symmetrize(table: dict, d: int) -> dict:
    """Enforce exact Hermitian closure across opposite offsets."""
    offsets = set(table) | {tuple(-x for x in off) for off in table}
    zero = np.zeros((d, d), dtype=complex)
    return {
        off: 0.5 * (table.get(off, zero) + table.get(tuple(-x for x in off), zero).conj().T)
        for off in sorted(offsets)
    }


def order0(lattice: LatticeSpec, drive: DriveSpec, cutoff: int | None = None) -> tuple:
    """Leading effective tunneling matrices: every bond renormalized to its
    static harmonic g^0. Sparsity equals the undriven bond sparsity."""
    require_closed(lattice)
    return _order0_from_harmonics(lattice, lattice_harmonics(lattice, drive, cutoff))


def order1(
    lattice: LatticeSpec,
    drive: DriveSpec,
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> tuple:
    """First-order correction assembled from all two-step processes.

    Entries with modulus below prune_tol * |j|^2 / omega are set to exact
    zero and offset classes that vanish entirely are dropped. For a Bravais
    lattice (single basis site) the result is empty: every process cancels
    against its hop-order-reversed partner.
    """
    require_closed(lattice)
    h = lattice_harmonics(lattice, drive, cutoff)
    return _order1_from_harmonics(lattice, h, gauge, drive.omega, prune_tol)


@dataclass(frozen=True, eq=False)
class EffectiveModel:
    """Leading plus first-order effective tunneling matrices."""

    order0: tuple
    order1: tuple
    gauge: Gauge
    omega: float
    bravais_vectors: np.ndarray
    amplitude_scale: float
    cutoff: int


def build_effective_model(
    lattice: LatticeSpec,
    drive: DriveSpec,
    gauge: Gauge = Gauge.STATIC_FREE,
    cutoff: int | None = None,
    prune_tol: float = DEFAULT_PRUNE_TOL,
) -> EffectiveModel:
    require_closed(lattice)
    h = lattice_harmonics(lattice, drive, cutoff)
    used_cutoff = next(iter(h.values())).cutoff if h else 0
    return EffectiveModel(
        order0=_order0_from_harmonics(lattice, h),
        order1=_order1_from_harmonics(lattice, h, gauge, drive.omega, prune_tol),
        gauge=gauge,
        omega=drive.omega,
        bravais_vectors=lattice.bravais_vectors,
        amplitude_scale=lattice.amplitude_scale(),
        cutoff=used_cutoff,
    )


def effective_bloch(model: EffectiveModel, k) -> np.ndarray:
    """Bloch matrix of the truncated effective Hamiltonian at wave vector k."""
    H = bloch_matrix(model.order0, k, model.bravais_vectors)
    if model.order1:
        H = H + bloch_matrix(model.order1, k, model.bravais_vectors)
    return H
