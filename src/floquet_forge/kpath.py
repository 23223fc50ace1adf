"""Named high-symmetry k-paths and Brillouin-zone sampling.

Band output needs a conventional path; the lattice families covered by the
presets get the standard vertex letters (G for the zone center). Vertices are
derived from the reciprocal vectors of the actual lattice, so any spec with
the same Bravais geometry works, preset or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import LatticeSpec, _integer, reciprocal_vectors

__all__ = ["KPath", "high_symmetry_points", "named_kpath", "bz_grid"]


def high_symmetry_points(lattice: LatticeSpec) -> dict:
    """Vertex letters -> Cartesian k for the lattice's Bravais family, in the
    order of its default path: GX (1d chains), GXM (square), GMK (triangular)."""
    g = reciprocal_vectors(lattice)
    G = np.zeros(lattice.space_dim)
    if lattice.dimension == 1:
        return {"G": G, "X": 0.5 * g[0]}
    if lattice.dimension == 2:
        b1, b2 = lattice.bravais_vectors
        c = abs(float(b1 @ b2) / (np.linalg.norm(b1) * np.linalg.norm(b2)))
        if c < 1e-6:
            return {"G": G, "X": 0.5 * g[0], "M": 0.5 * (g[0] + g[1])}
        if abs(c - 0.5) < 1e-6:
            return {"G": G, "M": 0.5 * g[0], "K": (2.0 * g[0] + g[1]) / 3.0}
    raise ValidationError(
        "no named k-path convention for this Bravais geometry; "
        "supported families: 1d chains, square, triangular (60 degree) lattices"
    )


@dataclass(frozen=True, eq=False)
class KPath:
    """Sampled polyline through the zone: Cartesian points plus the cumulative
    arclength used as the scalar k coordinate in band output."""

    labels: str
    points: np.ndarray
    distances: np.ndarray
    vertex_distances: tuple


def named_kpath(lattice: LatticeSpec, path: str | None = None, per_segment: int = 32) -> KPath:
    """Sample a vertex-letter path ("GMKG" style), per_segment points per leg.

    The first vertex is included once; every leg then contributes per_segment
    points ending exactly on its terminal vertex. ``path=None`` takes the
    family's default path: the vertices of :func:`high_symmetry_points` in
    order, back to G (GXG, GXMG or GMKG).
    """
    per_segment = _integer(per_segment, "per_segment")
    if per_segment < 1:
        raise ValidationError(f"per_segment must be >= 1, got {per_segment}")
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"k-path must be a string of vertex letters, got {path!r}")
    table = high_symmetry_points(lattice)
    labels = ("".join(table) + "G" if path is None else path).strip().upper()
    if len(labels) < 2:
        raise ValidationError(f"k-path needs at least two vertices, got '{labels}'")
    try:
        verts = [table[c] for c in labels]
    except KeyError as bad:
        raise ValidationError(
            f"unknown k-path vertex {bad} for this lattice; "
            f"available: {sorted(table)}"
        ) from None
    pts = [verts[0]]
    for a, b in zip(verts[:-1], verts[1:]):
        for s in range(1, per_segment + 1):
            pts.append(a + (b - a) * (s / per_segment))
    points = np.array(pts)
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    distances = np.concatenate([[0.0], np.cumsum(seg)])
    vertex_distances = tuple(float(distances[i * per_segment]) for i in range(len(labels)))
    return KPath(labels, points, distances, vertex_distances)


def bz_grid(lattice: LatticeSpec, per_axis: int) -> np.ndarray:
    """Uniform fractional grid over the zone: all sums of n_i/N g_i."""
    per_axis = _integer(per_axis, "per_axis")
    if per_axis < 1:
        raise ValidationError(f"per_axis must be >= 1, got {per_axis}")
    g = reciprocal_vectors(lattice)
    fracs = [np.arange(per_axis) / per_axis for _ in range(lattice.dimension)]
    mesh = np.meshgrid(*fracs, indexing="ij")
    coeffs = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return coeffs @ g
