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
its rows, zeros in the Floquet gauge), are summed along n by one compensated
(Kahan) sum over all rows at once. It is bit-identical to a per-pair loop:
every vector operation is the one the loop applied to a pair's arrays, and
Kahan's four add/subtract steps round the same in vector and scalar form.
Only line three, a few products per pair, stays scalar, on Python complex
(whose arithmetic rounds as numpy's scalar one does), because numpy's vector
complex multiply rounds differently. The bonds' g^0 and the pairs' betas are
scattered, in bond and pair order, into stacks over the pair table's sorted
offsets (``lattice._scatter``); the Hermitian closure pairs each block with
its negated offset's by reversing the stack; order 1 drops entries below
``_threshold`` and then its empty blocks. ``OffsetMatrix._trusted`` makes
each stack read-only and returns its blocks, unchecked. ``effective_bloch``,
one ``bloch_matrix`` call over both orders, is the one order sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .drive import BondHarmonics, DriveSpec, _split, lattice_harmonics
from .errors import ValidationError
from .lattice import (
    LatticeSpec,
    OffsetMatrix,
    _real,
    _scatter,
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
    # Line three stays scalar, pair by pair, on Python complex: its unfused
    # textbook formulas are numpy's scalar ones, but numpy's vector multiply
    # fuses multiply-adds and differs in the last bit for about half of them.
    gz, f, iw = zero.tolist(), f.tolist(), 1j / omega
    return np.array(
        [
            s + iw * (f[j] * gz[i] - gz[j] * f[i])
            for s, i, j in zip(sums.tolist(), first.tolist(), second.tolist())
        ],
        dtype=complex,
    )


def beta_static_free(h1: BondHarmonics, h2: BondHarmonics) -> complex:
    """Two-step amplitude in the static-free gauge (first hop h1, then h2).

    Valid when the tunneling amplitude depends only on the hop displacement;
    equals line (1) of the general expression. h1 and h2 share omega and cutoff.
    """
    for field, a, b in (("omega", h1.omega, h2.omega), ("cutoff", h1.cutoff, h2.cutoff)):
        if a != b:
            raise ValidationError(f"harmonic sets have different {field}: {a} vs {b}")
    pos, neg, _ = _split(np.stack([h1.coefficients, h2.coefficients]))
    n = np.arange(1, h1.cutoff + 1)
    terms = (neg[0] * pos[1] - neg[1] * pos[0]) / (n * h1.omega)
    return _row_sums(terms[None, :])[0]


def _prune_tol(value) -> float:
    """``value`` as a pruning tolerance, a finite float >= 0, or ValidationError."""
    value = _real(value, "prune_tol")
    if not (np.isfinite(value) and value >= 0):
        raise ValidationError(f"prune_tol must be finite and >= 0, got {value}")
    return value


def _threshold(tol: float, scale: float, omega: float) -> float:
    """tol * |j|^2 / omega: the first-order size below which an entry is noise."""
    return tol * scale**2 / omega


def _order0_from_harmonics(lattice, G) -> tuple:
    """Order 0 from the coefficient stack: each bond's g^0 in its offset block."""
    table = lattice._pairs
    blocks = _scatter(len(table.offsets), table.bond_index, _split(G)[2], lattice.basis_count)
    return OffsetMatrix._trusted(table.offsets, _symmetrize(blocks))


def _order1_from_harmonics(lattice, G, gauge, omega, prune_tol) -> tuple:
    table = lattice._pairs
    if not len(table.first):
        return ()
    index = (table.total_index, table.target, table.source)
    betas = _two_step(G, table.first, table.second, omega, gauge)
    blocks = _symmetrize(_scatter(len(table.totals), index, betas, lattice.basis_count))
    threshold = _threshold(prune_tol, lattice.amplitude_scale(), omega)
    blocks = np.where(np.abs(blocks) < threshold, 0.0, blocks)
    kept = (blocks != 0).any(axis=(1, 2))
    return OffsetMatrix._trusted([o for o, k in zip(table.totals, kept.tolist()) if k], blocks[kept])


def _symmetrize(blocks: np.ndarray) -> np.ndarray:
    """Exact Hermitian closure 0.5 * (M_o + M_{-o}^H) of a stack of blocks at
    offsets closed under negation and sorted, so M_{-o} is the stack reversed."""
    return 0.5 * (blocks + blocks[::-1].conj().transpose(0, 2, 1))


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
    hop-order-reversed partner. prune_tol must be a finite number >= 0, as
    ``cross_validate`` reads it; anything else raises ValidationError.
    """
    gauge = Gauge.parse(gauge)
    prune_tol = _prune_tol(prune_tol)
    h = lattice_harmonics(lattice, drive, cutoff)
    used_cutoff = next(iter(h.values())).cutoff if h else 0
    # one (2N+1)-coefficient row per bond, for both orders; (0, 1) without bonds
    G = np.array([h[b].coefficients for b in lattice.bonds]).reshape(len(h), 2 * used_cutoff + 1)
    return EffectiveModel(
        order0=_order0_from_harmonics(lattice, G),
        order1=_order1_from_harmonics(lattice, G, gauge, drive.omega, prune_tol),
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
