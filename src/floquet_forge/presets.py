"""Built-in lattice geometries.

Each preset fixes explicit Cartesian coordinates: chain, triangular and
hexagonal in their conventional orientations, zig-zag with basis (0,0) and
(1/2,1/2) on a unit 1D Bravais vector, kagome on the triangular Bravais
lattice with sites at 0, b1/2, b2/2, and Lieb on the square lattice with edge
sites at b1/2 and b2/2. All nearest-neighbor bonds carry the same amplitude
(default -1), so the only energy scale is |j|.
"""

import numpy as np

from .errors import ValidationError
from .lattice import Bond, LatticeSpec

__all__ = ["PRESET_NAMES", "preset"]

_SQ3 = np.sqrt(3.0)


def _chain(j):
    return LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), j),))


def _triangular(j):
    bonds = tuple(Bond(0, 0, off, j) for off in [(1, 0), (0, 1), (1, -1)])
    return LatticeSpec(2, [[1.0, 0.0], [0.5, _SQ3 / 2]], [[0.0, 0.0]], bonds)


def _hexagonal(j):
    # Honeycomb: two sites per triangular cell, s2 at (b1+b2)/3.
    bonds = (
        Bond(1, 0, (0, 0), j),
        Bond(0, 1, (1, 0), j),
        Bond(0, 1, (0, 1), j),
    )
    return LatticeSpec(
        2, [[1.0, 0.0], [0.5, _SQ3 / 2]], [[0.0, 0.0], [0.5, _SQ3 / 6]], bonds
    )


def _zigzag(j):
    # 1D Bravais vector b = (1,0) in the plane; hops alternate along
    # a1 = (1/2,1/2) and a2 = b - a1 = (1/2,-1/2).
    bonds = (
        Bond(1, 0, (0,), j),
        Bond(0, 1, (1,), j),
    )
    return LatticeSpec(1, [[1.0, 0.0]], [[0.0, 0.0], [0.5, 0.5]], bonds)


def _kagome(j):
    # Corner-sharing triangles: a1: s1->s2, a2: s2->s3, a3: s3->s1 with
    # a1 + a2 + a3 = 0. Each displacement occurs on one intra-cell bond and
    # one inter-cell bond.
    b1 = np.array([1.0, 0.0])
    b2 = np.array([0.5, _SQ3 / 2])
    basis = [np.zeros(2), b1 / 2, b2 / 2]
    bonds = (
        Bond(1, 0, (0, 0), j),   # a1
        Bond(2, 1, (0, 0), j),   # a2
        Bond(0, 2, (0, 0), j),   # a3
        Bond(0, 1, (1, 0), j),   # a1 again
        Bond(1, 2, (-1, 1), j),  # a2 again
        Bond(2, 0, (0, -1), j),  # a3 again
    )
    return LatticeSpec(2, [b1, b2], basis, bonds)


def _lieb(j):
    # Square lattice with edge-center sites; every hop is +-a1 = (1/2,0)
    # or +-a2 = (0,1/2).
    bonds = (
        Bond(1, 0, (0, 0), j),
        Bond(0, 1, (1, 0), j),
        Bond(2, 0, (0, 0), j),
        Bond(0, 2, (0, 1), j),
    )
    return LatticeSpec(
        2, [[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]], bonds
    )


_BUILDERS = {
    "chain": _chain,
    "triangular": _triangular,
    "hexagonal": _hexagonal,
    "zigzag": _zigzag,
    "kagome": _kagome,
    "lieb": _lieb,
}

PRESET_NAMES = tuple(sorted(_BUILDERS))

_ALIASES = {"zig-zag": "zigzag", "honeycomb": "hexagonal"}


def preset(name: str, amplitude: complex = -1.0) -> LatticeSpec:
    """Return the named preset lattice."""
    if not isinstance(name, str):
        raise ValidationError(f"preset name must be a string, got {name!r}")
    key = _ALIASES.get(name.strip().lower(), name.strip().lower())
    if key not in _BUILDERS:
        raise ValidationError(
            f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}"
        )
    return _BUILDERS[key](amplitude)
