"""Translationally invariant tight-binding lattices.

A lattice is a Bravais lattice of unit cells (``dimension`` primitive
vectors, possibly embedded in a higher-dimensional Cartesian space) with a
finite basis of sites per cell and a finite set of tunneling bonds between
cells. Because the tunneling matrices depend only on the integer cell offset,
everything is stored per offset class; ``OffsetMatrix`` is the basic carrier
for any such translationally invariant single-particle operator.

Both carriers are immutable, so their checks run once. A ``LatticeSpec``
decides at construction whether its bond list is Hermitian-closed.
``bloch_matrix`` validates and stacks an offset set on its first call and
keeps the result in a small bounded cache keyed on the tuple of
``OffsetMatrix`` objects: tuples of frozen, identity-compared carriers with
read-only blocks cannot change under the cache, the cached arrays are
read-only, and ``functools.lru_cache`` is thread-safe (two threads missing
the same set both build it, with identical results).
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .errors import ValidationError

__all__ = [
    "Bond",
    "LatticeSpec",
    "OffsetMatrix",
    "Geometry",
    "close_hermitian",
    "require_closed",
    "classify_geometry",
    "bloch_matrix",
    "offset_dict",
    "from_offset_dict",
    "is_hermitian_closed_offsets",
    "reciprocal_vectors",
    "undriven_offsets",
    "translational_identity_check",
]


class Geometry(Enum):
    BRAVAIS = "bravais"
    NON_BRAVAIS = "non-bravais"


@dataclass(frozen=True)
class Bond:
    """Directed tunneling amplitude: create on ``target_basis`` in the cell at
    ``cell_offset``, annihilate on ``source_basis`` in the origin cell.

    The Cartesian displacement of a bond is derived from the geometry via
    :meth:`LatticeSpec.displacement`; it is never stored on the bond itself.
    """

    target_basis: int
    source_basis: int
    cell_offset: tuple
    amplitude: complex

    def __post_init__(self):
        object.__setattr__(self, "cell_offset", tuple(int(x) for x in self.cell_offset))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if self.target_basis < 0 or self.source_basis < 0:
            raise ValidationError(f"bond {self._label()}: negative basis index")
        if not cmath.isfinite(self.amplitude):
            raise ValidationError(
                f"bond {self._label()}: amplitude must be finite, got {self.amplitude}"
            )
        if self.amplitude == 0:
            raise ValidationError(f"bond {self._label()}: amplitude must be nonzero")
        if self.target_basis == self.source_basis and not any(self.cell_offset):
            raise ValidationError(
                f"bond {self._label()}: a site cannot tunnel to itself with zero offset"
            )

    def _label(self) -> str:
        return f"({self.target_basis}<-{self.source_basis}, offset={self.cell_offset})"

    def conjugate(self) -> "Bond":
        return Bond(
            self.source_basis,
            self.target_basis,
            tuple(-x for x in self.cell_offset),
            np.conj(self.amplitude),
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LatticeSpec:
    """Geometry plus bond list.

    Parameters
    ----------
    dimension : int
        Number of primitive Bravais vectors (1, 2 or 3).
    bravais_vectors : (dimension, space_dim) array
        Primitive vectors in Cartesian coordinates. ``space_dim`` may exceed
        ``dimension`` (e.g. a zig-zag chain embedded in the plane).
    basis_sites : (basis_count, space_dim) array
        Cartesian positions of the sites inside one unit cell.
    bonds : tuple of Bond
        Directed tunneling amplitudes. Use :func:`close_hermitian` to obtain
        the canonical representation with every reverse bond present.
    """

    dimension: int
    bravais_vectors: np.ndarray
    basis_sites: np.ndarray
    bonds: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValidationError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        A = np.atleast_2d(np.asarray(self.bravais_vectors, dtype=float))
        if A.shape[0] != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} bravais vectors, got {A.shape[0]}"
            )
        if not np.isfinite(A).all():
            raise ValidationError(f"bravais_vectors must be finite, got {A.tolist()}")
        space_dim = A.shape[1]
        if space_dim < self.dimension:
            raise ValidationError(
                "bravais vectors live in fewer Cartesian dimensions than the lattice dimension"
            )
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValidationError("bravais vectors are linearly dependent")
        S = np.atleast_2d(np.asarray(self.basis_sites, dtype=float))
        if not np.isfinite(S).all():
            raise ValidationError(f"basis_sites must be finite, got {S.tolist()}")
        if S.shape[1] != space_dim:
            raise ValidationError(
                f"basis sites have {S.shape[1]} coordinates, bravais vectors have {space_dim}"
            )
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                if np.linalg.norm(S[i] - S[j]) < 1e-9:
                    raise ValidationError(f"basis sites {i} and {j} coincide")
        object.__setattr__(self, "bravais_vectors", _readonly(A))
        object.__setattr__(self, "basis_sites", _readonly(S))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        for b in self.bonds:
            if not isinstance(b, Bond):
                raise ValidationError("bonds must be Bond instances")
            if b.target_basis >= len(S) or b.source_basis >= len(S):
                raise ValidationError(f"bond {b._label()}: basis index out of range")
            if len(b.cell_offset) != self.dimension:
                raise ValidationError(
                    f"bond {b._label()}: offset length {len(b.cell_offset)} != dimension {self.dimension}"
                )
        object.__setattr__(self, "_hermitian_closed", _bonds_closed(self.bonds))

    @property
    def basis_count(self) -> int:
        return self.basis_sites.shape[0]

    @property
    def space_dim(self) -> int:
        return self.bravais_vectors.shape[1]

    def displacement(self, bond: Bond) -> np.ndarray:
        """Cartesian vector from the bond's source site to its target site."""
        R = np.asarray(bond.cell_offset, dtype=float) @ self.bravais_vectors
        return R + self.basis_sites[bond.target_basis] - self.basis_sites[bond.source_basis]

    def amplitude_scale(self) -> float:
        """max |j| over bonds, the reference scale for relative tolerances."""
        if not self.bonds:
            return 0.0
        return max(abs(b.amplitude) for b in self.bonds)

    def is_hermitian_closed(self) -> bool:
        """Whether every bond's reverse is present, with the conjugate
        amplitude, exactly once. Decided once, at construction."""
        return self._hermitian_closed


def _bonds_closed(bonds: tuple) -> bool:
    table = {(b.target_basis, b.source_basis, b.cell_offset): b.amplitude for b in bonds}
    if len(table) != len(bonds):
        return False
    for b in bonds:
        rev = b.conjugate()
        amp = table.get((rev.target_basis, rev.source_basis, rev.cell_offset))
        if amp is None or amp != rev.amplitude:
            return False
    return True


def close_hermitian(spec: LatticeSpec) -> LatticeSpec:
    """Return a spec whose bond list contains every reverse bond exactly once.

    For each bond (p<-q, offset, j) the bond (q<-p, -offset, conj(j)) is added
    if absent. Exact duplicates collapse to a single entry; a duplicate with a
    different amplitude is a validation error. Idempotent.
    """
    table = {}
    for b in spec.bonds:
        key = (b.target_basis, b.source_basis, b.cell_offset)
        if key in table and table[key].amplitude != b.amplitude:
            raise ValidationError(
                f"conflicting duplicate bond {b._label()}: "
                f"amplitudes {table[key].amplitude} and {b.amplitude}"
            )
        table[key] = b
    for b in list(table.values()):
        rev = b.conjugate()
        key = (rev.target_basis, rev.source_basis, rev.cell_offset)
        if key in table:
            if table[key].amplitude != rev.amplitude:
                raise ValidationError(
                    f"bond {b._label()} conflicts with its reverse: "
                    f"expected conjugate amplitude {rev.amplitude}, found {table[key].amplitude}"
                )
        else:
            table[key] = rev
    bonds = tuple(sorted(table.values(), key=lambda b: (b.target_basis, b.source_basis, b.cell_offset)))
    return LatticeSpec(spec.dimension, spec.bravais_vectors, spec.basis_sites, bonds)


def require_closed(spec: LatticeSpec) -> None:
    if not spec.is_hermitian_closed():
        raise ValidationError(
            "lattice bond list is not Hermitian-closed; apply close_hermitian first"
        )


def classify_geometry(spec: LatticeSpec) -> Geometry:
    """Bravais iff there is a single basis site; depends on nothing else."""
    return Geometry.BRAVAIS if spec.basis_count == 1 else Geometry.NON_BRAVAIS


@dataclass(frozen=True, eq=False)
class OffsetMatrix:
    """One offset class of a translationally invariant operator: the
    basis_count x basis_count block coupling cell r to cell r + offset."""

    offset: tuple
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", tuple(int(x) for x in self.offset))
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"offset {self.offset}: matrix must be square, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def offset_dict(offsets) -> dict:
    """Collect OffsetMatrix entries into {offset: matrix}, checking shape
    consistency and rejecting duplicate offsets."""
    out = {}
    d = None
    for om in offsets:
        if om.offset in out:
            raise ValidationError(f"duplicate offset {om.offset} in offset set")
        if d is None:
            d = om.matrix.shape[0]
        elif om.matrix.shape[0] != d:
            raise ValidationError("inconsistent matrix sizes in offset set")
        out[om.offset] = om.matrix
    return out


def from_offset_dict(table: dict) -> tuple:
    return tuple(OffsetMatrix(k, v) for k, v in sorted(table.items()))


def is_hermitian_closed_offsets(offsets, tol: float = 1e-9) -> bool:
    table = offset_dict(offsets)
    scale = max((np.abs(m).max() for m in table.values()), default=0.0)
    for off, m in table.items():
        neg = tuple(-x for x in off)
        if neg not in table:
            return False
        if np.abs(table[neg] - m.conj().T).max() > tol * max(scale, 1.0):
            return False
    return True


# Keyed by identity (see the module docstring); the cache's strong references
# keep a cached id from being reused, and a set that fails a check is not
# cached. A model has two sets (orders 0 and 1); eight entries hold four models'.
@functools.lru_cache(maxsize=8)
def _offset_stack(offsets: tuple) -> tuple:
    """Validate an offset set once; return its offsets as floats in ascending
    order and its blocks stacked in the same order, both read-only."""
    table = offset_dict(offsets)
    if not table:
        raise ValidationError(
            "offset set is empty: a Bloch matrix needs at least one block to fix its size"
        )
    if not is_hermitian_closed_offsets(offsets):
        raise ValidationError("offset set is not Hermitian-closed")
    keys = sorted(table)
    offs = np.array(keys, dtype=float)
    mats = np.array([table[off] for off in keys])
    offs.flags.writeable = False
    mats.flags.writeable = False
    return offs, mats


def bloch_matrix(offsets, k, bravais_vectors) -> np.ndarray:
    """Sum of exp(i k . R_offset) * M_offset over the offset set.

    ``k`` is a Cartesian reciprocal vector; R_offset = offset @ bravais_vectors.
    The offset set must be Hermitian-closed, so the result is Hermitian for
    every real k. An empty offset set is refused, since it fixes no size.

    The checks and the stacking of the blocks run once per offset set, not
    once per k: a small bounded cache, keyed on the tuple of ``OffsetMatrix``
    objects (identity), holds them as read-only arrays, so repeated calls on
    one model over many k share them, also across threads.
    """
    offs, mats = _offset_stack(tuple(offsets))
    A = np.atleast_2d(np.asarray(bravais_vectors, dtype=float))
    k = np.asarray(k, dtype=float)
    # One dot per offset and an in-order running sum give the same bits as
    # summing offset by offset; a mat-vec R @ k or a vectorized reduction
    # over the offsets rounds differently.
    R = offs @ A
    phases = np.exp(1j * np.array([float(k @ r) for r in R]))
    H = np.zeros(mats.shape[1:], dtype=complex)
    for term in phases[:, None, None] * mats:
        H += term
    return H


def reciprocal_vectors(spec: LatticeSpec) -> np.ndarray:
    """Vectors g_i in the span of the Bravais vectors with g_i . b_j = 2 pi d_ij."""
    A = spec.bravais_vectors
    return 2.0 * np.pi * np.linalg.solve(A @ A.T, A)


def undriven_offsets(spec: LatticeSpec) -> tuple:
    """The bare tunneling matrices J_offset of the static Hamiltonian."""
    require_closed(spec)
    d = spec.basis_count
    table = {}
    for b in spec.bonds:
        m = table.setdefault(b.cell_offset, np.zeros((d, d), dtype=complex))
        m[b.target_basis, b.source_basis] += b.amplitude
    return from_offset_dict(table)


def _torus_matrix(table: dict, extents, d: int) -> np.ndarray:
    """Periodize an offset set onto a finite torus as one dense matrix."""
    cells = list(product(*[range(L) for L in extents]))
    index = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    M = np.zeros((n * d, n * d), dtype=complex)
    for ci, i in index.items():
        for off, block in table.items():
            cj = tuple((a - o) % L for a, o, L in zip(ci, off, extents))
            j = index[cj]
            M[i * d:(i + 1) * d, j * d:(j + 1) * d] += block
    return M


def translational_identity_check(C, D, torus) -> float:
    """Max deviation between the two-sided sum and the commutator sum.

    For translationally invariant C and D on a torus,
    sum_l (C_il D_lj - D_il C_lj) equals sum_l [C_il, D_lj] for all cells
    (i, j); this evaluates both sides on the given torus extents and returns
    the largest elementwise modulus of the difference.
    """
    tC = offset_dict(C)
    tD = offset_dict(D)
    if not tC or not tD:
        raise ValidationError("offset sets must be nonempty")
    d = next(iter(tC.values())).shape[0]
    if next(iter(tD.values())).shape[0] != d:
        raise ValidationError("C and D block sizes differ")
    extents = tuple(int(L) for L in torus)
    dim = len(next(iter(tC)))
    if len(extents) != dim:
        raise ValidationError(f"torus has {len(extents)} extents, offsets have {dim}")
    max_off = max(abs(x) for off in list(tC) + list(tD) for x in off)
    if any(L < 2 * max_off or L < 1 for L in extents):
        raise ValidationError(
            f"torus extents {extents} too small for offsets reaching {max_off}"
        )
    Cf = _torus_matrix(tC, extents, d)
    Df = _torus_matrix(tD, extents, d)
    n = Cf.shape[0] // d
    lhs = Cf @ Df - Df @ Cf
    # Commutator side: blockwise sum_l C_il D_lj - D_lj C_il. The first term
    # is the (i, j) block of C @ D; the second needs the swapped block order.
    C4 = Cf.reshape(n, d, n, d)
    D4 = Df.reshape(n, d, n, d)
    swapped = np.einsum("lajc,iclb->iajb", D4, C4).reshape(n * d, n * d)
    rhs = Cf @ Df - swapped
    return float(np.abs(lhs - rhs).max())
