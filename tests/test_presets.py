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
