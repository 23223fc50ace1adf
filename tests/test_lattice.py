import numpy as np
import pytest

from floquet_forge import (
    Bond,
    Geometry,
    LatticeSpec,
    OffsetMatrix,
    ValidationError,
    bloch_matrix,
    classify_geometry,
    close_hermitian,
    linear_drive,
    order1,
    preset,
    reciprocal_vectors,
    translational_identity_check,
    undriven_offsets,
)
from floquet_forge.lattice import (
    from_offset_dict,
    is_hermitian_closed_offsets,
    offset_dict,
    require_closed,
)
from helpers import random_offset_matrices


def test_bond_normalizes_and_validates():
    b = Bond(1, 0, [2, -1], -1)
    assert b.cell_offset == (2, -1)
    assert isinstance(b.amplitude, complex)
    with pytest.raises(ValidationError):
        Bond(-1, 0, (0,), 1.0)
    with pytest.raises(ValidationError):
        Bond(1, 0, (0,), 0.0)
    # a zero-displacement self-loop is an on-site energy, not a tunneling bond
    with pytest.raises(ValidationError):
        Bond(0, 0, (0, 0), 1.0)


def test_bond_conjugate_is_involution():
    b = Bond(2, 1, (1, -3), 0.5 + 0.25j)
    rev = b.conjugate()
    assert rev.target_basis == 1 and rev.source_basis == 2
    assert rev.cell_offset == (-1, 3)
    assert rev.amplitude == np.conj(b.amplitude)
    assert rev.conjugate() == b


def test_lattice_rejects_degenerate_geometry():
    with pytest.raises(ValidationError):
        LatticeSpec(2, [[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]], ())
    with pytest.raises(ValidationError):
        LatticeSpec(1, [[1.0]], [[0.0], [0.0]], ())
    with pytest.raises(ValidationError):
        LatticeSpec(2, [[1.0, 0.0]], [[0.0, 0.0]], ())
    # offset length must match the lattice dimension
    with pytest.raises(ValidationError):
        LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1, 0), 1.0),))


def test_lattice_arrays_are_read_only():
    lat = preset("chain")
    with pytest.raises(ValueError):
        lat.bravais_vectors[0, 0] = 2.0
    with pytest.raises(ValueError):
        lat.basis_sites[0, 0] = 2.0


def test_displacement_combines_offset_and_basis():
    lat = preset("zigzag")
    a1 = lat.displacement(Bond(1, 0, (0,), -1.0))
    a2 = lat.displacement(Bond(0, 1, (1,), -1.0))
    assert np.allclose(a1, [0.5, 0.5])
    assert np.allclose(a2, [0.5, -0.5])


def test_close_hermitian_adds_reverses_once():
    spec = LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), -1.0),))
    closed = close_hermitian(spec)
    assert len(closed.bonds) == 2
    assert closed.is_hermitian_closed()
    again = close_hermitian(closed)
    assert again.bonds == closed.bonds


def test_close_hermitian_rejects_conflicting_amplitudes():
    spec = LatticeSpec(
        1,
        [[1.0]],
        [[0.0]],
        (Bond(0, 0, (1,), -1.0), Bond(0, 0, (-1,), 0.5)),
    )
    with pytest.raises(ValidationError):
        close_hermitian(spec)


def test_require_closed_raises_on_open_spec():
    spec = LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), -1.0),))
    with pytest.raises(ValidationError):
        require_closed(spec)
    require_closed(close_hermitian(spec))


def test_geometry_classification_counts_basis_sites():
    assert classify_geometry(preset("chain")) is Geometry.BRAVAIS
    assert classify_geometry(preset("triangular")) is Geometry.BRAVAIS
    assert classify_geometry(preset("zigzag")) is Geometry.NON_BRAVAIS
    assert classify_geometry(preset("kagome")) is Geometry.NON_BRAVAIS


def test_offset_dict_roundtrips_and_rejects_duplicates():
    a = OffsetMatrix((0, 1), np.eye(2))
    b = OffsetMatrix((1, 0), 2 * np.eye(2))
    table = offset_dict((a, b))
    assert set(table) == {(0, 1), (1, 0)}
    back = {om.offset: om.matrix for om in from_offset_dict(table)}
    assert np.allclose(back[(1, 0)], 2 * np.eye(2))
    with pytest.raises(ValidationError, match="duplicate"):
        offset_dict((a, OffsetMatrix((0, 1), 2 * np.eye(2))))


def test_hermitian_closure_of_offsets():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    open_set = (OffsetMatrix((1,), m),)
    assert not is_hermitian_closed_offsets(open_set)
    closed = open_set + (OffsetMatrix((-1,), m.conj().T),)
    assert is_hermitian_closed_offsets(closed)


def test_undriven_chain_band_minimum():
    lat = preset("chain")
    H = bloch_matrix(undriven_offsets(lat), np.array([0.0]), lat.bravais_vectors)
    assert H.shape == (1, 1)
    assert np.allclose(H[0, 0], -2.0)


def test_bloch_matrix_is_hermitian_and_periodic():
    lat = preset("kagome")
    offs = undriven_offsets(lat)
    rng = np.random.default_rng(11)
    G = reciprocal_vectors(lat)
    for _ in range(5):
        k = rng.normal(size=2)
        H = bloch_matrix(offs, k, lat.bravais_vectors)
        assert np.allclose(H, H.conj().T, atol=1e-14)
        H2 = bloch_matrix(offs, k + G.T @ rng.integers(-2, 3, size=2), lat.bravais_vectors)
        assert np.allclose(H, H2, atol=1e-12)


def test_bloch_matrix_refuses_an_empty_offset_set():
    with pytest.raises(ValidationError, match="empty"):
        bloch_matrix((), np.array([0.3]), [[1.0]])
    # order 1 of a one-point basis is empty; its Bloch matrix is refused by name
    lat = preset("chain")
    empty = order1(lat, linear_drive(10.0, [5.0]))
    assert empty == ()
    with pytest.raises(ValidationError, match="empty"):
        bloch_matrix(empty, np.array([0.3]), lat.bravais_vectors)


def test_reciprocal_vectors_are_dual():
    for name in ("chain", "triangular", "kagome", "zigzag"):
        lat = preset(name)
        G = reciprocal_vectors(lat)
        # duality holds within the span of the Bravais vectors
        assert np.allclose(lat.bravais_vectors @ G.T, 2 * np.pi * np.eye(lat.dimension))


def test_translational_identity_on_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(8):
        dim = int(rng.integers(1, 3))
        block = int(rng.integers(1, 4))
        C = random_offset_matrices(rng, dim, block)
        D = random_offset_matrices(rng, dim, block)
        dev = translational_identity_check(C, D, (4,) * dim)
        assert dev < 1e-12


def test_translational_identity_validates_extents():
    rng = np.random.default_rng(5)
    C = random_offset_matrices(rng, 2, 2, reach=2)
    D = random_offset_matrices(rng, 2, 2, reach=2)
    with pytest.raises(ValidationError):
        translational_identity_check(C, D, (3, 3))
    with pytest.raises(ValidationError):
        translational_identity_check(C, D, (4, 4, 4))
