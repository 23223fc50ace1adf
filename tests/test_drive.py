import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from floquet_forge import (
    Bond,
    CutoffTooSmallError,
    DriveSpec,
    Harmonic,
    ValidationError,
    bond_harmonics,
    circular_drive,
    lattice_harmonics,
    linear_drive,
    phase,
    preset,
    rescale_drive,
)
from helpers import random_drive


def force(drive, t):
    f = np.zeros(drive.space_dim)
    for h in drive.harmonics:
        f = f + h.cos_amplitude * np.cos(h.m * drive.omega * t)
        f = f + h.sin_amplitude * np.sin(h.m * drive.omega * t)
    return f


def test_harmonic_validation():
    with pytest.raises(ValidationError):
        Harmonic(0, [1.0], [0.0])
    with pytest.raises(ValidationError):
        Harmonic(1, [1.0, 2.0], [0.0])
    with pytest.raises(ValidationError):
        DriveSpec(-1.0, ())
    with pytest.raises(ValidationError):
        DriveSpec(5.0, (Harmonic(1, [1.0], [0.0]), Harmonic(1, [2.0], [0.0])))
    with pytest.raises(ValidationError):
        DriveSpec(5.0, (Harmonic(1, [1.0], [0.0]), Harmonic(2, [1.0, 0.0], [0.0, 0.0])))


def test_non_finite_drive_input_is_refused():
    with pytest.raises(ValidationError, match="cos_amplitude must be finite"):
        circular_drive(10.0, float("nan"))
    with pytest.raises(ValidationError, match="sin_amplitude must be finite"):
        Harmonic(1, [1.0, 0.0], [0.0, float("inf")])
    for omega in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="omega must be finite"):
            DriveSpec(omega, ())


def test_nan_parseval_tail_fails_the_check():
    lat = preset("chain")
    bond = Bond(0, 0, (1,), float("nan"))
    with pytest.raises(CutoffTooSmallError, match="nan"):
        bond_harmonics(lat, linear_drive(3.0, [4.0]), bond, cutoff=32)


def test_undriven_limit_has_no_dimension():
    d = DriveSpec(3.0, ())
    assert d.space_dim is None
    assert np.isclose(d.period, 2 * np.pi / 3.0)


def test_phase_is_antiderivative_of_projected_force():
    """chi_a' = F(t).a, checked against direct quadrature of the force."""
    rng = np.random.default_rng(2)
    drive = random_drive(rng, 2, omega=6.0)
    a = np.array([0.35, -0.6])
    for t1, t2 in [(0.0, 0.3), (0.1, 0.9), (0.5, 1.0)]:
        want, err = quad(lambda s: force(drive, s) @ a, t1, t2, limit=200)
        got = phase(drive, a, t2) - phase(drive, a, t1)
        assert abs(got - want) < 1e-10 + 10 * err


def test_phase_has_zero_mean_and_period():
    rng = np.random.default_rng(3)
    drive = random_drive(rng, 3)
    a = rng.normal(size=3)
    T = drive.period
    mean, err = quad(lambda s: phase(drive, a, s), 0.0, T, limit=200)
    assert abs(mean) / T < 1e-10 + 10 * err
    t = rng.uniform(0, T, size=7)
    assert np.allclose(phase(drive, a, t), phase(drive, a, t + T), atol=1e-12)


def test_bond_harmonics_match_quadrature():
    """g^n from the FFT engine vs direct Fourier integrals of j e^{i chi}."""
    lat = preset("zigzag")
    drive = DriveSpec(5.0, (Harmonic(1, [2.0, 1.0], [0.0, 3.0]), Harmonic(3, [1.0, -1.5], [0.5, 0.0])))
    bond = lat.bonds[0]
    h = bond_harmonics(lat, drive, bond)
    a = lat.displacement(bond)
    w, T = drive.omega, drive.period
    for n in (-5, -1, 0, 2, 7):
        re, re_err = quad(
            lambda t: (bond.amplitude * np.exp(1j * (phase(drive, a, t) - n * w * t))).real,
            0.0, T, limit=400,
        )
        im, im_err = quad(
            lambda t: (bond.amplitude * np.exp(1j * (phase(drive, a, t) - n * w * t))).imag,
            0.0, T, limit=400,
        )
        want = (re + 1j * im) / T
        assert abs(h.coeff(n) - want) < 1e-10 + 10 * (re_err + im_err)


def test_monochromatic_harmonics_follow_bessel():
    """For a linear drive the bond harmonics are Bessel functions of z."""
    lat = preset("chain")
    omega, z = 7.0, 1.8
    drive = linear_drive(omega, [z * omega])
    h = bond_harmonics(lat, drive, lat.bonds[0])
    for n in range(-10, 11):
        assert abs(abs(h.coeff(n)) - abs(jv(n, z))) < 1e-12


def test_coefficients_store_symmetric_window():
    lat = preset("chain")
    drive = linear_drive(4.0, [3.0])
    h = bond_harmonics(lat, drive, lat.bonds[0], cutoff=16)
    assert h.cutoff == 16
    assert h.coefficients.shape == (33,)
    assert h.positive()[2] == h.coeff(3)
    assert h.negative()[2] == h.coeff(-3)
    with pytest.raises(ValidationError):
        h.coeff(17)


def test_explicit_cutoff_too_small_raises():
    lat = preset("chain")
    drive = linear_drive(3.0, [40.0])  # z ~ 13, spectrum reaches past n = 16
    with pytest.raises(CutoffTooSmallError):
        bond_harmonics(lat, drive, lat.bonds[0], cutoff=8)


def test_auto_cutoff_escalates_until_parseval_holds():
    lat = preset("chain")
    drive = linear_drive(3.0, [120.0])  # z = 40 needs more than the default 32
    h = bond_harmonics(lat, drive, lat.bonds[0])
    assert h.cutoff > 32
    power = float(np.sum(np.abs(h.coefficients) ** 2))
    assert abs(power - 1.0) < 1e-10


def test_lattice_harmonics_share_one_cutoff():
    lat = preset("kagome")
    drive = circular_drive(6.0, 9.0)
    table = lattice_harmonics(lat, drive)
    cutoffs = {h.cutoff for h in table.values()}
    assert len(cutoffs) == 1
    assert set(table) == set(lat.bonds)


def test_harmonics_dimension_mismatch_is_refused():
    lat = preset("chain")
    with pytest.raises(ValidationError):
        bond_harmonics(lat, circular_drive(5.0, 1.0), lat.bonds[0])


def test_circular_drive_shape():
    d = circular_drive(4.0, 2.5)
    t = np.linspace(0, d.period, 50)
    f = np.array([force(d, s) for s in t])
    assert np.allclose(np.hypot(f[:, 0], f[:, 1]), 2.5)


def test_rescale_drive_holds_z_fixed():
    rng = np.random.default_rng(4)
    drive = random_drive(rng, 2, omega=10.0)
    scaled = rescale_drive(drive, 25.0)
    a = np.array([0.4, 0.3])
    # the phase excursion is invariant when amplitudes track omega
    t = np.linspace(0, drive.period, 64)
    s = np.linspace(0, scaled.period, 64)
    assert np.allclose(phase(drive, a, t), phase(scaled, a, s), atol=1e-12)
    assert scaled.omega == 25.0
