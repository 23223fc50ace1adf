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

A model build is one pass: the composable pairs, their total offsets and
basis indices come from the lattice's cached pair table, the harmonics are
stacked into one (bonds, 2N+1) array, and lines one and two of every pair's
beta are evaluated in one expression and summed along n by one compensated
(Kahan) sum over all rows at once. It is bit-identical to a per-pair loop:
every vector operation is the one the loop applied to a pair's arrays, and
Kahan's four add/subtract steps round the same in vector and scalar form.
Only line three, a handful of scalar products per pair, stays scalar,
because numpy's vector complex multiply rounds differently from its scalar
one. The betas are scattered into the offset blocks in pair order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drive import BondHarmonics, DriveSpec, _check_drive_dim, _harmonics_at, lattice_harmonics
from .errors import ValidationError
from .lattice import (
    Bond,
    LatticeSpec,
    _bond_blocks,
    _pair_table,
    bloch_matrix,
    from_offset_dict,
)

__all__ = [
    "Gauge",
    "TwoStepAmplitude",
    "EffectiveModel",
    "beta_static_free",
    "beta_general",
    "build_effective_model",
    "effective_bloch",
]

DEFAULT_PRUNE_TOL = 1e-10


class Gauge(Enum):
    FLOQUET = "floquet"
    STATIC_FREE = "static-free"

    @classmethod
    def parse(cls, gauge) -> "Gauge":
        """A Gauge as given, or the one a name gives (case and surrounding
        blanks ignored); anything else raises ValidationError."""
        if isinstance(gauge, cls):
            return gauge
        for g in cls:
            if isinstance(gauge, str) and g.value == gauge.strip().lower():
                return g
        names = [g.value for g in cls]
        raise ValidationError(f"gauge must be a Gauge or one of {names}, got {gauge!r}")


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Compensated (Kahan) sum of each row of ``terms``, columns in ascending
    order. The four add/subtract steps per column are those of a scalar loop,
    applied to all rows at once; complex addition and subtraction round the
    same in scalar and vector form, so each row's sum is the scalar loop's."""
    s = np.zeros(len(terms), dtype=complex)
    c = np.zeros_like(s)
    for column in terms.T:
        y = column - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _split(G: np.ndarray) -> tuple:
    """g^n for n = 1..N, g^{-n} for n = 1..N and g^0 of each row of a stack
    of (2N+1)-coefficient windows."""
    N = G.shape[1] // 2
    return G[:, N + 1:], G[:, N - 1::-1], G[:, N]


def _gauge_coefficients(G: np.ndarray) -> np.ndarray:
    """Static-free gauge matrix element f = sum_{n>=1} (i/n)(g^{-n} - g^{n})
    of each row of a coefficient stack."""
    pos, neg, _ = _split(G)
    n = np.arange(1, pos.shape[1] + 1)
    return _row_sums(1j * (neg - pos) / n)


def _two_step(G: np.ndarray, first, second, f, omega: float) -> np.ndarray:
    """All three lines of the two-step amplitude for every pair (rows
    first[p], then second[p]) of a coefficient stack; ``f`` holds each row's
    gauge term."""
    pos, neg, zero = _split(G)
    n = np.arange(1, pos.shape[1] + 1)
    g1p, g1n, g1z = pos[first], neg[first], zero[first, None]
    g2p, g2n, g2z = pos[second], neg[second], zero[second, None]
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    sums = _row_sums((line1 + line2) / (n * omega))
    # Line three stays scalar, pair by pair: numpy's vector complex multiply
    # fuses multiply-adds where its scalar one does not, so the two differ in
    # the last bit for about half of all products.
    gz = [complex(z) for z in zero]
    iw = 1j / omega
    return np.array(
        [
            s + iw * (f[j] * gz[i] - gz[j] * f[i])
            for s, i, j in zip(sums, first.tolist(), second.tolist())
        ],
        dtype=complex,
    )


def _check_compatible(h1: BondHarmonics, h2: BondHarmonics) -> None:
    if h1.omega != h2.omega:
        raise ValidationError(
            f"harmonic sets have different omega: {h1.omega} vs {h2.omega}"
        )
    if h1.cutoff != h2.cutoff:
        raise ValidationError(
            f"harmonic sets have different cutoff: {h1.cutoff} vs {h2.cutoff}"
        )


def beta_static_free(h1: BondHarmonics, h2: BondHarmonics) -> complex:
    """Two-step amplitude in the static-free gauge (first hop h1, then h2).

    Valid when the tunneling amplitude depends only on the hop displacement;
    equals line (1) of the general expression.
    """
    _check_compatible(h1, h2)
    n = np.arange(1, h1.cutoff + 1)
    terms = (h1.negative() * h2.positive() - h2.negative() * h1.positive()) / (n * h1.omega)
    return _row_sums(terms[None, :])[0]


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
    gauge = Gauge.parse(gauge)
    _check_drive_dim(lattice, drive)
    if bond1.target_basis != bond2.source_basis:
        raise ValidationError(
            f"bonds do not compose: first hop ends on basis {bond1.target_basis}, "
            f"second starts on basis {bond2.source_basis}"
        )
    a = np.array([lattice.displacement(bond1), lattice.displacement(bond2)])
    _, G = _harmonics_at(drive, a, [bond1.amplitude, bond2.amplitude], cutoff)
    f = _gauge_coefficients(G) if gauge is Gauge.STATIC_FREE else [0j, 0j]
    value = _two_step(G, np.array([0]), np.array([1]), f, drive.omega)[0]
    return TwoStepAmplitude(a[0], a[1], bond1.target_basis, value)


def _order0_from_harmonics(lattice, harmonics) -> tuple:
    g0 = [harmonics[b].coeff(0) for b in lattice.bonds]
    return from_offset_dict(_symmetrize(_bond_blocks(lattice, g0), lattice.basis_count))


def _order1_from_harmonics(lattice, harmonics, gauge, omega, prune_tol) -> tuple:
    table = _pair_table(lattice)
    if not len(table.first):
        return ()
    G = np.array([harmonics[b].coefficients for b in lattice.bonds])
    if gauge is Gauge.STATIC_FREE:
        f = _gauge_coefficients(G)
    else:
        f = [0.0 + 0.0j] * len(G)
    d = lattice.basis_count
    blocks = np.zeros((len(table.totals), d, d), dtype=complex)
    # unbuffered and in pair order: each entry adds its betas in pair-table order
    np.add.at(
        blocks,
        (table.total_index, table.target, table.source),
        _two_step(G, table.first, table.second, f, omega),
    )
    summed = _symmetrize(dict(zip(table.totals, blocks)), d)
    threshold = prune_tol * lattice.amplitude_scale() ** 2 / omega
    pruned = {}
    for off, m in summed.items():
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
    """Leading and first-order effective tunneling matrices, from one set of
    harmonics (cutoff as in :func:`lattice_harmonics`; the one used is
    ``model.cutoff``).

    ``order0``: every bond renormalized to its static harmonic g^0, with the
    undriven sparsity. ``order1``: all two-step processes in ``gauge`` (a
    Gauge or its name); entries below prune_tol * |j|^2 / omega become exact
    zeros and offset classes that vanish entirely are dropped. On a Bravais
    lattice (one basis site) it is empty: every process cancels against its
    hop-order-reversed partner.
    """
    gauge = Gauge.parse(gauge)
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
