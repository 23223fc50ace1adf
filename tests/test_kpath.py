import numpy as np
import pytest

from floquet_forge import (
    LatticeSpec,
    Bond,
    ValidationError,
    bz_grid,
    high_symmetry_points,
    named_kpath,
    preset,
    reciprocal_vectors,
)


def square_lattice():
    return LatticeSpec(
        2,
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0]],
        (Bond(0, 0, (1, 0), -1.0), Bond(0, 0, (0, 1), -1.0)),
    )


def test_default_paths_by_family():
    assert named_kpath(preset("chain")).labels == "GXG"
    assert named_kpath(preset("zigzag")).labels == "GXG"
    assert named_kpath(square_lattice()).labels == "GXMG"
    assert named_kpath(preset("triangular")).labels == "GMKG"
    assert named_kpath(preset("kagome")).labels == "GMKG"
    assert named_kpath(preset("hexagonal")).labels == "GMKG"


def test_high_symmetry_points_chain():
    pts = high_symmetry_points(preset("chain"))
    assert set(pts) == {"G", "X"}
    assert np.allclose(pts["G"], [0.0])
    assert np.allclose(pts["X"], [np.pi])


def test_high_symmetry_points_embedded_chain():
    lat = preset("zigzag")
    pts = high_symmetry_points(lat)
    g = reciprocal_vectors(lat)[0]
    assert np.allclose(pts["X"], g / 2)


def test_square_and_triangular_vertices():
    sq = high_symmetry_points(square_lattice())
    assert set(sq) == {"G", "X", "M"}
    assert np.allclose(sq["M"], [np.pi, np.pi])
    tri = high_symmetry_points(preset("triangular"))
    assert set(tri) == {"G", "M", "K"}
    lat = preset("triangular")
    # K is a corner of the hexagonal zone: equidistant from G under g1, g2 folding
    G = reciprocal_vectors(lat)
    K = tri["K"]
    assert np.isclose(np.linalg.norm(K), np.linalg.norm(K - G[0]), atol=1e-12)


def test_named_kpath_counts_and_distances():
    lat = preset("chain")
    kp = named_kpath(lat, per_segment=10)
    assert kp.labels == "GXG"
    assert kp.points.shape == (21, 1)
    assert kp.distances[0] == 0.0
    assert np.all(np.diff(kp.distances) > 0)
    assert len(kp.vertex_distances) == 3
    assert np.isclose(kp.vertex_distances[-1], kp.distances[-1])
    # the path visits X exactly at its vertex distance
    i = np.argmin(np.abs(kp.distances - kp.vertex_distances[1]))
    assert np.allclose(kp.points[i], [np.pi])


def test_named_kpath_custom_and_invalid_labels():
    lat = preset("triangular")
    kp = named_kpath(lat, "GK", per_segment=4)
    assert kp.points.shape == (5, 2)
    with pytest.raises(ValidationError):
        named_kpath(lat, "GQZ")
    with pytest.raises(ValidationError):
        named_kpath(lat, "G")


def test_kpath_must_be_a_string_of_two_or_more_vertices():
    lat = preset("lieb")
    assert named_kpath(lat, None, per_segment=2).labels == "GXMG"
    for bad in (5, ["G", "X"]):
        with pytest.raises(ValidationError, match="k-path must be a string"):
            named_kpath(lat, bad)
    # an empty path is refused like a blank one, not read as the default
    for bad in ("", "  "):
        with pytest.raises(ValidationError, match="at least two vertices"):
            named_kpath(lat, bad)


def test_oblique_lattice_has_no_named_path():
    spec = LatticeSpec(
        2,
        [[1.0, 0.0], [0.45, 1.3]],
        [[0.0, 0.0]],
        (Bond(0, 0, (1, 0), -1.0), Bond(0, 0, (0, 1), -1.0)),
    )
    with pytest.raises(ValidationError):
        high_symmetry_points(spec)


def test_bz_grid_covers_the_zone():
    lat = preset("chain")
    grid = bz_grid(lat, 8)
    assert grid.shape == (8, 1)
    assert np.allclose(grid[0], [0.0])
    assert any(np.allclose(k, [np.pi]) for k in grid)
    kag = bz_grid(preset("kagome"), 4)
    assert kag.shape == (16, 2)
