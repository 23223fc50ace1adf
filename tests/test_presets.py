import hashlib

import numpy as np
import pytest

from floquet_forge import PRESET_NAMES, Geometry, ValidationError, classify_geometry, preset


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_are_hermitian_closed(name):
    lat = preset(name)
    assert {b.conjugate() for b in lat.bonds} == set(lat.bonds)
    assert lat.amplitude_scale() == 1.0


def test_preset_name_must_be_a_string():
    for bad in (3, None, b"chain"):
        with pytest.raises(ValidationError, match="preset name must be a string"):
            preset(bad)


def test_preset_geometry_split():
    bravais = {n for n in PRESET_NAMES if classify_geometry(preset(n)) is Geometry.BRAVAIS}
    assert bravais == {"chain", "triangular"}


def test_preset_basis_and_bond_counts():
    assert preset("chain").basis_count == 1
    assert preset("zigzag").basis_count == 2
    assert preset("hexagonal").basis_count == 2
    assert preset("kagome").basis_count == 3
    assert preset("lieb").basis_count == 3
    # each preset stores every directed bond explicitly
    assert len(preset("chain").bonds) == 2
    assert len(preset("triangular").bonds) == 6
    assert len(preset("zigzag").bonds) == 4
    assert len(preset("kagome").bonds) == 12
    assert len(preset("lieb").bonds) == 8


def test_preset_aliases_and_unknown_name():
    assert preset("zig-zag").bonds == preset("zigzag").bonds
    assert preset("honeycomb").bonds == preset("hexagonal").bonds
    with pytest.raises(ValidationError):
        preset("cubic")


def test_preset_amplitude_override():
    lat = preset("chain", amplitude=-2.5)
    assert {b.amplitude for b in lat.bonds} == {-2.5 + 0j}


def test_kagome_nearest_neighbour_distances():
    lat = preset("kagome")
    for b in lat.bonds:
        assert np.isclose(np.linalg.norm(lat.displacement(b)), 0.5)


def test_lieb_bond_lengths():
    lat = preset("lieb")
    for b in lat.bonds:
        assert np.isclose(np.linalg.norm(lat.displacement(b)), 0.5)


def _preset_digest(lat) -> str:
    """SHA-256 over everything a preset fixes: dimension, Bravais and basis
    bytes, each bond's (target, source, offset, Re and Im as float.hex) in
    order, and the pair table's displacement bytes."""
    h = hashlib.sha256()
    h.update(repr(lat.dimension).encode())
    h.update(lat.bravais_vectors.tobytes())
    h.update(lat.basis_sites.tobytes())
    for b in lat.bonds:
        a = b.amplitude
        h.update(repr((b.target_basis, b.source_basis, b.cell_offset, a.real.hex(), a.imag.hex())).encode())
    h.update(lat._pairs.displacements.tobytes())
    return h.hexdigest()


PRESET_DIGESTS = {
    ("chain", -1.0): "9219df29b7fa0c0514d534e3706c774e3ec2e7a26dc84ab572f06727131b5f6d",
    ("hexagonal", -1.0): "4ae8990bdb2f771a2a6b244a29f5c88fdd5fee85ee268e1edf9ec1cf10ae37ec",
    ("kagome", -1.0): "c6a86266a527eec4f09c10db0ab542bf08ebae9e0a5db623e0f3c3f397d0628a",
    ("lieb", -1.0): "370d96e2aa7a5a77786ffacad93fb1e538731c3fc8be04be2a02e51c5bfd0b12",
    ("triangular", -1.0): "2707792510f2e74299aa9e9e62d8ab033ac6e6cd65f9d78526a41cebfc005ff7",
    ("zigzag", -1.0): "3df31ef8b7cc8b582f0a7e214cf591d484aa9c451e316c014439722c34baa59a",
    ("chain", 0.7 + 0.2j): "6be16d010962c5497f9e6dfb2aa7bc70dd580799af3ac8d78ee8369066b9d8f4",
    ("hexagonal", 0.7 + 0.2j): "7faf68e395e00def7ea59ef21bdc8c70222d4df4f07e982083826bc54ecdaa29",
    ("kagome", 0.7 + 0.2j): "1965db3b91585efc05dbba66e7f9171e5437f76b335bf6b9682c284fe7a6935b",
    ("lieb", 0.7 + 0.2j): "7695e1531b3ef4a1f398f53c0cda22c131302cb17a5288b82dc48c6909714dda",
    ("triangular", 0.7 + 0.2j): "0714ec5c0703bb42fb71666939e8893dd9bb2558ebb790818cbfb97dfc10597b",
    ("zigzag", 0.7 + 0.2j): "788993081d32fae35c02baeda166c5d9de75ea03da8b6ebf40dbed1492fb89f4",
}


@pytest.mark.parametrize("name, amplitude", sorted(PRESET_DIGESTS, key=str))
def test_presets_keep_their_bits(name, amplitude):
    # every coordinate, bond, bond order and displacement is pinned to the
    # bit, so an edit of the table that moves any of them fails here before
    # a model or an artifact moves
    assert _preset_digest(preset(name, amplitude)) == PRESET_DIGESTS[name, amplitude]
