"""Translationally invariant tight-binding lattices.

A lattice is a Bravais lattice of unit cells (``dimension`` primitive
vectors, possibly embedded in a higher-dimensional Cartesian space) with a
finite basis of sites per cell and a finite set of tunneling bonds between
cells. Because the tunneling matrices depend only on the integer cell offset,
everything is stored per offset class; ``OffsetMatrix`` is the basic carrier
for any such translationally invariant single-particle operator.

Both carriers are immutable, so their checks run once, where values enter;
blocks the package builds from its own arrays (both effective orders and
``offset_matrices_at_time``) skip them: ``OffsetMatrix._trusted`` makes the
stack read-only and returns a view per offset. A ``LatticeSpec`` completes its
bond list at construction: every reverse bond is present exactly once, with
the conjugate amplitude, so every consumer reads a Hermitian static Hamiltonian.
``bloch_matrix`` validates and stacks an offset set, or a tuple of sets,
with the Bravais vectors once and keeps them in a small bounded cache keyed
on the ``OffsetMatrix`` objects and the Bravais bytes: frozen,
identity-compared carriers with read-only blocks cannot change under the
cache, the cached arrays are read-only, and ``functools.lru_cache`` is
thread-safe (two threads missing one key both build it, with identical
results). One array pass over (k, offset) gives every k's matrix, for one k
or a stack, with the bits of a call for that k and each set alone. A
lattice's drive-independent two-step data, its pair table, is no cache: a
``LatticeSpec`` builds it at construction and keeps it, as ``_pairs``; it
decides where ``_scatter`` puts each bond or pair amplitude in offset blocks.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError

__all__ = [
    "Bond",
    "LatticeSpec",
    "OffsetMatrix",
    "Geometry",
    "classify_geometry",
    "bloch_matrix",
    "reciprocal_vectors",
]


class Geometry(Enum):
    BRAVAIS = "bravais"
    NON_BRAVAIS = "non-bravais"


def _integer(value, field: str) -> int:
    """``value`` as a plain ``int``; a bool or a non-integral value is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValidationError(f"{field} must be an integer, got {value!r}")


def _numbers(value, field: str, dtype, scalar: bool = False) -> np.ndarray:
    """``value`` as a new array of ``dtype``, float or complex, 0-d if ``scalar``.
    Each entry must be a number numpy holds in a numeric dtype (an array is
    judged by its dtype), so a bool, a string, an int beyond 64 bits, a
    Fraction, another object (a complex where reals are read) or a ragged
    nesting is refused, naming the field."""
    kinds = "iuf" if dtype is float else "iufc"
    if isinstance(value, (np.ndarray, np.number)):
        ok = value.dtype.kind in kinds
    elif isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**64
    ):
        # what numpy holds as float64, int64 or uint64, read without an object array
        ok = True
    else:
        ok = all(np.asarray(x).dtype.kind in kinds for x in np.array(value, dtype=object).flat)
    try:
        array = np.array(value, dtype=dtype) if ok else None
    except ValueError:
        raise ValidationError(f"{field} must be equal-length rows of numbers, got {value!r}") from None
    if array is None or (scalar and array.ndim):
        kind = "real" if dtype is float else "complex"
        wanted = f"a {kind} number" if scalar else f"{kind} numbers"
        raise ValidationError(f"{field} must be {wanted}, got {value!r}")
    return array


def _real(value, field: str) -> float:
    """``value`` as a float: the 0-d case of ``_numbers``."""
    return float(_numbers(value, field, float, scalar=True))


def _check_k(k, space_dim: int, stack: bool = False) -> np.ndarray:
    """``k`` as a Cartesian wave vector: ``space_dim`` finite real components;
    with ``stack``, also a stack of such vectors, shape (n_k, space_dim)."""
    k = _numbers(k, "k", float)
    if k.shape[-1:] != (space_dim,) or k.ndim > 1 + stack:
        raise ValidationError(f"k must have {space_dim} Cartesian components, got shape {k.shape}")
    # per component: np.isfinite(k).all() costs microseconds on bloch_matrix's path
    if not all(map(math.isfinite, k.ravel().tolist())):
        raise ValidationError(f"k must be finite, got {k.tolist()}")
    return k


def _items(value, field: str) -> tuple:
    """``value`` as a tuple; a value that is not iterable is refused, naming the field."""
    try:
        return tuple(value)
    except TypeError:
        raise ValidationError(f"{field} must be a sequence, got {value!r}") from None


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
        for field in ("target_basis", "source_basis"):
            object.__setattr__(self, field, _integer(getattr(self, field), f"bond {field}"))
        offset = _items(self.cell_offset, "bond cell_offset")
        offset = tuple(_integer(x, "bond cell_offset entry") for x in offset)
        object.__setattr__(self, "cell_offset", offset)
        amplitude = _numbers(self.amplitude, "bond amplitude", complex, scalar=True)
        object.__setattr__(self, "amplitude", complex(amplitude))
        if self.target_basis < 0 or self.source_basis < 0:
            raise ValidationError(f"bond {self._label()}: negative basis index")
        if not cmath.isfinite(self.amplitude):
            raise ValidationError(
                f"bond {self._label()}: amplitude must be finite, got {self.amplitude}"
            )
        if self.amplitude == 0:
            raise ValidationError(f"bond {self._label()}: amplitude must be nonzero")
        # |j|^2 feeds the Parseval tail and the pruning thresholds; it must be
        # a normal float. hypot and * give inf, where abs() and ** 2 would raise.
        size = math.hypot(self.amplitude.real, self.amplitude.imag)
        if not sys.float_info.min <= size * size <= sys.float_info.max:
            raise ValidationError(
                f"bond {self._label()}: |amplitude|^2 must be a finite normal float "
                f"(|amplitude| within about [1.5e-154, 1.3e154]), got {self.amplitude}"
            )
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


def _readonly(a, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
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
        Cartesian positions of the sites inside one unit cell, at least one.
    bonds : tuple of Bond
        Directed tunneling amplitudes. The stored tuple is the Hermitian
        closure: each missing reverse (q<-p, -offset, conj j) is added, exact
        duplicates collapse, and the bonds are sorted by (target, source,
        offset). A duplicate or reverse with a different amplitude is refused.
    """

    dimension: int
    bravais_vectors: np.ndarray
    basis_sites: np.ndarray
    bonds: tuple

    def __post_init__(self):
        object.__setattr__(self, "dimension", _integer(self.dimension, "dimension"))
        if self.dimension not in (1, 2, 3):
            raise ValidationError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        for field in ("bravais_vectors", "basis_sites"):
            rows = np.atleast_2d(_numbers(getattr(self, field), field, float))
            if rows.ndim != 2:
                raise ValidationError(f"{field} must be equal-length rows of numbers, got {rows.tolist()}")
            if not np.isfinite(rows).all():
                raise ValidationError(f"{field} must be finite, got {rows.tolist()}")
            object.__setattr__(self, field, _readonly(rows))
        A, S = self.bravais_vectors, self.basis_sites
        if A.shape[0] != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} bravais vectors, got {A.shape[0]}"
            )
        space_dim = A.shape[1]
        if space_dim < self.dimension:
            raise ValidationError(
                "bravais vectors live in fewer Cartesian dimensions than the lattice dimension"
            )
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValidationError("bravais vectors are linearly dependent")
        if S.shape[1] != space_dim:
            raise ValidationError(
                f"basis sites have {S.shape[1]} coordinates, bravais vectors have {space_dim}"
            )
        if not len(S):
            raise ValidationError("basis_sites must hold at least one site, got none")
        for i in range(len(S)):
            for j in range(i + 1, len(S)):
                if np.linalg.norm(S[i] - S[j]) < 1e-9:
                    raise ValidationError(f"basis sites {i} and {j} coincide")
        bonds = _items(self.bonds, "bonds")
        for b in bonds:
            if not isinstance(b, Bond):
                raise ValidationError("bonds must be Bond instances")
            if b.target_basis >= len(S) or b.source_basis >= len(S):
                raise ValidationError(f"bond {b._label()}: basis index out of range")
            if len(b.cell_offset) != self.dimension:
                raise ValidationError(
                    f"bond {b._label()}: offset length {len(b.cell_offset)} != dimension {self.dimension}"
                )
        object.__setattr__(self, "bonds", _closed_bonds(bonds))
        object.__setattr__(self, "_pairs", _pair_table(self))

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


def _closed_bonds(bonds: tuple) -> tuple:
    """The Hermitian closure of a bond list, as ``LatticeSpec.bonds`` describes."""
    table = {}
    for b in bonds:
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
    return tuple(sorted(table.values(), key=lambda b: (b.target_basis, b.source_basis, b.cell_offset)))


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
        offset = _items(self.offset, "offset")
        object.__setattr__(self, "offset", tuple(_integer(x, "offset entry") for x in offset))
        m = _numbers(self.matrix, f"offset {self.offset}: matrix", complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"offset {self.offset}: matrix must be square, got {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, offsets, blocks: np.ndarray) -> tuple:
        """Blocks the package built, unchecked: one per plain-int offset, each
        a square complex view of the stack ``blocks``, made read-only here."""
        blocks.flags.writeable = False
        out = tuple(object.__new__(cls) for _ in offsets)
        for om, offset, matrix in zip(out, offsets, blocks):
            om.__dict__.update(offset=offset, matrix=matrix)
        return out


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


def _offset_sets(offsets) -> tuple:
    """``offsets``, one offset set or a sequence of sets, as a tuple of tuples
    of ``OffsetMatrix``; any other entry, or no block at all, is refused."""
    entries = _items(offsets, "offsets")
    one = entries and isinstance(entries[0], OffsetMatrix)
    sets = (entries,) if one else tuple([_items(s, "offsets entry") for s in entries])
    bad = [om for s in sets for om in s if not isinstance(om, OffsetMatrix)]
    if bad:
        raise ValidationError(f"offsets must be OffsetMatrix entries or sets of them, got {bad[0]!r}")
    if not any(sets):
        raise ValidationError("offset set is empty: offsets need at least one block to fix the matrix size")
    return sets


# Keyed by identity (see the module docstring) and the Bravais bytes; its
# strong references keep a cached id from being reused, and a key that fails
# a check is not cached. effective_bloch takes one entry per model, a sweep
# two (its orders apart); four keep no more models alive than they serve. A
# cache, not a field: callers of the public bloch_matrix pass its key in.
@functools.lru_cache(maxsize=4)
def _offset_stack(sets: tuple, bravais: bytes, shape: tuple) -> tuple:
    """Validate offset sets and Bravais vectors once; return, read-only, R =
    offset @ A and the blocks of every set (its offsets ascending, led by a
    zero offset with a zero block: see ``bloch_matrix``) and each set's slice."""
    lengths = sorted({len(om.offset) for s in sets for om in s})
    if len(lengths) > 1:
        raise ValidationError(f"offsets must all have one length, got lengths {lengths}")
    A = np.frombuffer(bravais).reshape(shape).copy()
    if A.ndim != 2 or len(A) != lengths[0]:
        raise ValidationError(f"bravais_vectors must be {lengths[0]} rows, got shape {A.shape}")
    tables = [offset_dict(s) for s in sets]
    (d, _), *other = {next(iter(table.values())).shape for table in tables if table}
    if other:
        raise ValidationError("inconsistent matrix sizes in offset set")
    # each set's rows: a zero block at the zero offset, then its offsets ascending
    keys = [[(0,) * lengths[0], *sorted(table)] for table in tables]
    rows, zero = [o for ks in keys for o in ks], np.zeros((d, d))
    mats = np.array([m for t, ks in zip(tables, keys) for m in (zero, *map(t.get, ks[1:]))], dtype=complex)
    spans = [slice(stop - len(ks), stop) for ks, stop in zip(keys, itertools.accumulate(map(len, keys)))]
    if not np.isfinite(mats).all():
        row = np.isfinite(mats).all(axis=(1, 2)).argmin()
        raise ValidationError(f"offset {rows[row]}: matrix must be finite")
    # closed: negation maps each set's zero row to itself and reverses its other
    # rows, and M_-o = M_o^H within 1e-9 times the set's largest entry
    partner = [i for s in spans for i in (s.start, *range(s.stop - 1, s.start, -1))]
    starts = [s.start * d * d for s in spans]  # each set's first entry in the raveled stack
    diff = mats[partner] - mats.conj().transpose(0, 2, 1)
    gap, top = (np.maximum.reduceat(np.abs(x).ravel(), starts) for x in (diff, mats))
    if [tuple(map(operator.neg, rows[i])) for i in partner] != rows or (gap > 1e-9 * top).any():
        raise ValidationError("offset set is not Hermitian-closed")
    R = np.concatenate([np.array(ks, dtype=float) @ A for ks in keys])  # each set its own product
    return _readonly(R), _readonly(mats, complex), tuple(spans)


def bloch_matrix(offsets, k, bravais_vectors) -> np.ndarray:
    """Sum of exp(i k . R_offset) * M_offset over the offset set, or over
    each set of a tuple of sets, their sums then added in the given order.

    ``k`` is a Cartesian reciprocal vector, shape (space_dim,), or a stack of
    them, shape (n_k, space_dim); the result is one (d, d) matrix or a
    stack of them, shape (n_k, d, d), each with the bits of its k alone.
    R_offset = offset @ bravais_vectors. Every set must be finite and
    Hermitian-closed, so every result is Hermitian. Offsets without a block
    are refused (they fix no size); in a tuple, an empty set adds zero. The
    checks, the blocks and R are stacked once per key, in a small bounded
    cache (see the module docstring), so repeated calls on one model share
    them, also across threads.
    """
    sets = _offset_sets(offsets)
    A = _numbers(bravais_vectors, "bravais_vectors", float)
    R, mats, spans = _offset_stack(sets, A.tobytes(), A.shape)
    k = _check_k(k, R.shape[1], stack=True)
    # Same bits as summing offset by offset, for each k and set. np.vecdot
    # runs, per (k, offset), the dot kernel of a scalar k @ r, where R @ k,
    # einsum and an elementwise sum round differently. Each set's leading
    # zero offset has the phase exp(i 0) = 1 exactly, so one multiply gives
    # terms led by a +0 block, and add.accumulate along a set's offsets adds
    # in order, (0 + t0) + t1 + ..., signed zeros included (add.reduce would
    # sum pairwise; one accumulate over all sets would chain them).
    terms = np.exp(1j * np.vecdot(R, k[..., None, :]))[..., None, None] * mats
    parts = [terms[..., span, :, :] for span in spans]
    H = functools.reduce(operator.add, [np.add.accumulate(p, axis=-3, out=p)[..., -1, :, :] for p in parts])
    return np.ascontiguousarray(H)  # a copy for a stack; one set at one k stays a view


@dataclass(frozen=True, eq=False)
class _PairTable:
    """The drive-independent bond and two-step data of one lattice, as
    read-only arrays indexed by position in ``bonds``.

    Per bond: its displacement; ``distinct_of``, its index into ``distinct``,
    the first bond of each bit-distinct (displacement, amplitude), which all
    share one driven amplitude g(t); and ``bond_index``, its row in
    ``offsets`` (the distinct cell offsets, ascending), target and source.
    Per composable pair (first hop, then a second hop starting where the
    first ends), in the bond-by-bond double-loop order: the two bond
    indices, the first hop's source basis, the second hop's target basis,
    and the index of the total cell offset in ``totals`` (ascending). The
    bonds are closed under reversal, so both offset lists are closed under
    negation, which reverses them: row n's negation is row -1 - n.
    """

    displacements: np.ndarray
    distinct: np.ndarray
    distinct_of: np.ndarray
    first: np.ndarray
    second: np.ndarray
    source: np.ndarray
    target: np.ndarray
    totals: tuple
    total_index: np.ndarray
    offsets: tuple
    bond_index: tuple


def _first_occurrences(points) -> list:
    """For each point, the index of its first bit-equal occurrence.

    Points are float64 arrays, already read (k vectors, bond rows). They
    compare by shape and bytes, so -0.0 and 0.0 differ: a repeat is only
    ever a point whose every computation gives the same bits.
    """
    seen = {}
    return [seen.setdefault((a.shape, a.tobytes()), i) for i, a in enumerate(points)]


def _pair_table(spec: LatticeSpec) -> _PairTable:
    bonds = spec.bonds
    displacements = _readonly([spec.displacement(b) for b in bonds]).reshape(
        len(bonds), spec.space_dim
    )
    rows = [[*a, b.amplitude.real, b.amplitude.imag] for a, b in zip(displacements, bonds)]
    first = _first_occurrences(np.array(rows))
    distinct = sorted(set(first))
    pairs = [
        (i, j)
        for i, b1 in enumerate(bonds)
        for j, b2 in enumerate(bonds)
        if b2.source_basis == b1.target_basis
    ]
    total = [
        tuple(x + y for x, y in zip(bonds[i].cell_offset, bonds[j].cell_offset))
        for i, j in pairs
    ]
    totals = tuple(sorted(set(total)))
    where = {off: n for n, off in enumerate(totals)}
    offsets = tuple(sorted({b.cell_offset for b in bonds}))
    offset_row = {off: n for n, off in enumerate(offsets)}
    return _PairTable(
        displacements=displacements,
        distinct=_readonly(distinct, np.intp),
        distinct_of=_readonly(np.searchsorted(distinct, first), np.intp),
        first=_readonly([i for i, _ in pairs], np.intp),
        second=_readonly([j for _, j in pairs], np.intp),
        source=_readonly([bonds[i].source_basis for i, _ in pairs], np.intp),
        target=_readonly([bonds[j].target_basis for _, j in pairs], np.intp),
        totals=totals,
        total_index=_readonly([where[off] for off in total], np.intp),
        offsets=offsets,
        bond_index=(
            _readonly([offset_row[b.cell_offset] for b in bonds], np.intp),
            _readonly([b.target_basis for b in bonds], np.intp),
            _readonly([b.source_basis for b in bonds], np.intp),
        ),
    )


def _scatter(count: int, index: tuple, values, d: int) -> np.ndarray:
    """A (count, d, d) stack of zero blocks with each value added at its
    (block, row, column) of ``index``, unbuffered and in the given order, so
    an entry hit twice sums its values in that order."""
    blocks = np.zeros((count, d, d), dtype=complex)
    np.add.at(blocks, index, values)
    return blocks


def reciprocal_vectors(spec: LatticeSpec) -> np.ndarray:
    """Vectors g_i in the span of the Bravais vectors with g_i . b_j = 2 pi d_ij."""
    A = spec.bravais_vectors
    return 2.0 * np.pi * np.linalg.solve(A @ A.T, A)


def _torus_extents(torus, dim: int, offsets) -> tuple:
    """Integer torus extents, one per lattice dimension, each at least one
    cell and twice the largest component of the given cell offsets."""
    extents = tuple(_integer(L, "torus extent") for L in _items(torus, "torus"))
    if len(extents) != dim:
        raise ValidationError(f"torus has {len(extents)} extents, lattice dimension is {dim}")
    max_off = max((abs(x) for off in offsets for x in off), default=0)
    if any(L < max(2 * max_off, 1) for L in extents):
        raise ValidationError(
            f"torus extents {extents} too small for offsets reaching {max_off}"
        )
    return extents

