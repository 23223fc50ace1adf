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

A model build is one array pass with one compensated sum: the composable
pairs, their total offsets and basis indices come from the lattice's cached
pair table, the harmonics are stacked into one (bonds, 2N+1) array, lines
one and two of every pair's beta are evaluated in one expression, and those
pair rows, together with every bond row's gauge term f (the gauge supplies
its rows, zeros in the Floquet gauge), are summed along n by one
compensated (Kahan) sum over all rows at once. It is
bit-identical to a per-pair loop: every vector operation is the one the loop
applied to a pair's arrays, and Kahan's four add/subtract steps round the
same in vector and scalar form. Only line three, a handful of scalar
products per pair, stays scalar, because numpy's vector complex multiply
rounds differently from its scalar one. The betas are scattered into the
offset blocks in pair order; the Hermitian closure and the pruning then act
once on the stack of offset blocks, placed by a plan on the lattice's pair
table, each block paired with its negated offset's by reversing the stack.
``effective_bloch`` is one ``bloch_matrix`` call over both orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drive import BondHarmonics, DriveSpec, lattice_harmonics
from .errors import ValidationError
from .lattice import (
    LatticeSpec,
    OffsetMatrix,
    _bond_blocks,
    _real,
    bloch_matrix,
)

__all__ = [
    "Gauge",
    "EffectiveModel",
    "beta_static_free",
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


def _row_sums(*blocks: np.ndarray) -> np.ndarray:
    """Compensated (Kahan) sum of each row of the blocks, stacked in the
    given order, columns in ascending order. The rows are copied once into
    contiguous columns, and the four add/subtract steps of a scalar loop run
    in place on each column, for all rows at once; complex addition and
    subtraction round the same in scalar and vector form, so each row's sum
    is the scalar loop's."""
    columns = np.concatenate(blocks).T.copy()
    s = np.zeros(columns.shape[1], dtype=complex)
    c, y, t = np.zeros_like(s), np.empty_like(s), np.empty_like(s)
    for column in columns:
        np.subtract(column, c, out=y)
        np.add(s, y, out=t)
        np.subtract(t, s, out=c)
        np.subtract(c, y, out=c)
        s, t = t, s
    return s


def _split(G: np.ndarray) -> tuple:
    """g^n for n = 1..N, g^{-n} for n = 1..N and g^0 of each row of a stack
    of (2N+1)-coefficient windows."""
    N = G.shape[1] // 2
    return G[:, N + 1:], G[:, N - 1::-1], G[:, N]


def _two_step(G: np.ndarray, first, second, omega: float, gauge: Gauge) -> np.ndarray:
    """All three lines of the two-step amplitude for every pair (rows
    first[p], then second[p]) of a coefficient stack in ``gauge``. Lines one
    and two of every pair and each row's gauge term f take one compensated
    sum. The gauge supplies only the rows summed into f: (i/n)(g^{-n} - g^{n})
    in the static-free gauge, zeros in the Floquet gauge (each row sums
    alone, and a compensated sum of zeros is exactly +0)."""
    pos, neg, zero = _split(G)
    n = np.arange(1, pos.shape[1] + 1)
    g1p, g1n, g1z = pos[first], neg[first], zero[first, None]
    g2p, g2n, g2z = pos[second], neg[second], zero[second, None]
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    lines = (line1 + line2) / (n * omega)
    f_rows = 1j * (neg - pos) / n if gauge is Gauge.STATIC_FREE else np.zeros_like(pos)
    sums = _row_sums(lines, f_rows)
    sums, f = sums[: len(lines)], sums[len(lines):]
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


def _order0_from_harmonics(lattice, harmonics) -> tuple:
    g0 = [harmonics[b].coeff(0) for b in lattice.bonds]
    table = _bond_blocks(lattice, g0)
    d = lattice.basis_count
    offsets, blocks = _symmetrize(lattice._pairs.order0_plan, np.array(list(table.values())).reshape(-1, d, d))
    return tuple(OffsetMatrix(off, m) for off, m in zip(offsets, blocks))


def _order1_from_harmonics(lattice, harmonics, gauge, omega, prune_tol) -> tuple:
    table = lattice._pairs
    if not len(table.first):
        return ()
    G = np.array([harmonics[b].coefficients for b in lattice.bonds])
    d = lattice.basis_count
    blocks = np.zeros((len(table.totals), d, d), dtype=complex)
    # unbuffered and in pair order: each entry adds its betas in pair-table order
    np.add.at(
        blocks,
        (table.total_index, table.target, table.source),
        _two_step(G, table.first, table.second, omega, gauge),
    )
    offsets, blocks = _symmetrize(table.order1_plan, blocks)
    threshold = prune_tol * lattice.amplitude_scale() ** 2 / omega
    blocks = np.where(np.abs(blocks) < threshold, 0.0, blocks)
    kept = (blocks != 0).any(axis=(1, 2)).tolist()
    return tuple(OffsetMatrix(off, m) for off, m, keep in zip(offsets, blocks, kept) if keep)


def _symmetrize(plan: tuple, blocks: np.ndarray) -> tuple:
    """Exact Hermitian closure of blocks given in the order of a pair-table
    ``plan``: (its sorted offsets, the stack of 0.5 * (M_o + M_{-o}^H) there),
    a missing block counting as zero; M_{-o} is the stack reversed."""
    keys, rows = plan
    full = np.zeros((len(keys),) + blocks.shape[1:], dtype=complex)
    full[rows] = blocks
    return keys, 0.5 * (full + full[::-1].conj().transpose(0, 2, 1))


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
    hop-order-reversed partner. A NaN or negative prune_tol raises
    ValidationError, as does a non-number; an infinite one drops order 1.
    """
    gauge = Gauge.parse(gauge)
    prune_tol = _real(prune_tol, "prune_tol")
    if not prune_tol >= 0:
        raise ValidationError(f"prune_tol must be >= 0, got {prune_tol}")
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
    """Bloch matrix of the truncated effective Hamiltonian at wave vector k,
    or a stack of them for a stack of k: one :func:`bloch_matrix` call over
    the tuple (order0, order1)."""
    return bloch_matrix((model.order0, model.order1), k, model.bravais_vectors)
