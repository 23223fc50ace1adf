"""Built-in lattice geometries.

Each preset fixes explicit Cartesian coordinates: chain, triangular and
hexagonal in their conventional orientations, zig-zag with basis (0,0) and
(1/2,1/2) on a unit 1D Bravais vector, kagome on the triangular Bravais
lattice with sites at 0, b1/2, b2/2, and Lieb on the square lattice with edge
sites at b1/2 and b2/2. They are rows of one table, built by one
constructor. All nearest-neighbor bonds carry the same amplitude (default
-1), so the only energy scale is |j|.
"""

import numpy as np

from .errors import ValidationError
from .lattice import Bond, LatticeSpec

__all__ = ["PRESET_NAMES", "preset"]

_SQ3 = np.sqrt(3.0)
_TRIANGULAR = [[1.0, 0.0], [0.5, _SQ3 / 2]]

# name: (Bravais vectors, basis sites, bonds as (target, source, cell offset))
_GEOMETRIES = {
    "chain": ([[1.0]], [[0.0]], [(0, 0, (1,))]),
    "triangular": (_TRIANGULAR, [[0.0, 0.0]], [(0, 0, (1, 0)), (0, 0, (0, 1)), (0, 0, (1, -1))]),
    # Honeycomb: two sites per triangular cell, s2 at (b1+b2)/3.
    "hexagonal": (
        _TRIANGULAR,
        [[0.0, 0.0], [0.5, _SQ3 / 6]],
        [(1, 0, (0, 0)), (0, 1, (1, 0)), (0, 1, (0, 1))],
    ),
    # 1D Bravais vector b = (1,0) in the plane; hops alternate along
    # a1 = (1/2,1/2) and a2 = b - a1 = (1/2,-1/2).
    "zigzag": ([[1.0, 0.0]], [[0.0, 0.0], [0.5, 0.5]], [(1, 0, (0,)), (0, 1, (1,))]),
    # Corner-sharing triangles: a1: s1->s2, a2: s2->s3, a3: s3->s1 with
    # a1 + a2 + a3 = 0. Each displacement occurs on one intra-cell bond and
    # one inter-cell bond.
    "kagome": (
        _TRIANGULAR,
        [[0.0, 0.0], [0.5, 0.0], [0.25, _SQ3 / 4]],
        [
            (1, 0, (0, 0)),   # a1
            (2, 1, (0, 0)),   # a2
            (0, 2, (0, 0)),   # a3
            (0, 1, (1, 0)),   # a1 again
            (1, 2, (-1, 1)),  # a2 again
            (2, 0, (0, -1)),  # a3 again
        ],
    ),
    # Square lattice with edge-center sites; every hop is +-a1 = (1/2,0)
    # or +-a2 = (0,1/2).
    "lieb": (
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
        [(1, 0, (0, 0)), (0, 1, (1, 0)), (2, 0, (0, 0)), (0, 2, (0, 1))],
    ),
}

PRESET_NAMES = tuple(sorted(_GEOMETRIES))

_ALIASES = {"zig-zag": "zigzag", "honeycomb": "hexagonal"}


def preset(name: str, amplitude: complex = -1.0) -> LatticeSpec:
    """Return the named preset lattice."""
    if not isinstance(name, str):
        raise ValidationError(f"preset name must be a string, got {name!r}")
    key = _ALIASES.get(name.strip().lower(), name.strip().lower())
    if key not in _GEOMETRIES:
        raise ValidationError(
            f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}"
        )
    bravais, basis, bonds = _GEOMETRIES[key]
    return LatticeSpec(
        len(bravais), bravais, basis, tuple(Bond(t, s, off, amplitude) for t, s, off in bonds)
    )
