import itertools
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from floquet_forge import (
    Bond,
    CutoffTooSmallError,
    DriveSpec,
    Harmonic,
    LatticeSpec,
    ValidationError,
    bloch_hamiltonian_t,
    build_effective_model,
    circular_drive,
    lattice_harmonics,
    linear_drive,
    magnus_commutator_probe,
    phase,
    preset,
    propagate_period,
    rescale_drive,
)
from floquet_forge import PRESET_NAMES
from floquet_forge.floquet import offset_matrices_at_time
from floquet_forge.drive import MAX_CUTOFF, _harmonics_at, _split
from helpers import (
    peierls_lattice,
    random_drive,
    reference_lattice_harmonics,
    strong_drive,
)


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


def test_harmonic_index_refuses_bools_and_non_integers():
    for m in (1.7, 2.0, True, "1"):
        with pytest.raises(ValidationError, match="harmonic index m must be an integer"):
            Harmonic(m, [1.0], [0.0])
    assert type(Harmonic(np.int64(2), [1.0], [0.0]).m) is int


def test_non_finite_drive_input_is_refused():
    with pytest.raises(ValidationError, match="cos_amplitude must be finite"):
        circular_drive(10.0, float("nan"))
    with pytest.raises(ValidationError, match="sin_amplitude must be finite"):
        Harmonic(1, [1.0, 0.0], [0.0, float("inf")])
    for omega in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="omega must be finite"):
            DriveSpec(omega, ())


def test_nan_parseval_tail_fails_the_check():
    # Bond refuses a NaN amplitude, so feed one to the check directly
    with pytest.raises(CutoffTooSmallError, match="nan"):
        _harmonics_at(linear_drive(3.0, [4.0]), np.array([[1.0]]), [float("nan")], 32, np.array([-1]))


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


def test_phase_of_a_displacement_stack_is_each_rows_phase():
    rng = np.random.default_rng(5)
    drive = random_drive(rng, 2)
    stack = rng.normal(size=(4, 2))
    t = np.linspace(0.0, drive.period, 37)
    rows = phase(drive, stack, t)
    assert rows.shape == (4, 37)
    for a, row in zip(stack, rows):
        assert row.tobytes() == phase(drive, a, t).tobytes()
    assert phase(drive, stack, 0.3).shape == (4,)
    assert isinstance(phase(drive, stack[0], 0.3), float)


def test_phase_refuses_a_displacement_of_another_dimension():
    # checked once against the drive, not per harmonic: a scalar is refused too
    drive = circular_drive(10.0, 3.0)
    for a in ([1.0], [1.0, 0.0, 0.0], [[1.0], [2.0]], 1.0):
        with pytest.raises(ValidationError, match=r"^a must end in the drive's 2 axes"):
            phase(drive, a, 0.3)


CHAIN = preset("chain")
# F.a/(m omega) = 1e310 overflows; the second drive overflows at m = 2 only
OVERFLOWING = {
    1: linear_drive(1e-300, [1e10]),
    2: DriveSpec(1e-300, (Harmonic(1, [1e-10], [0.0]), Harmonic(2, [1e10], [0.0]))),
}
PHASE_ENTRY_POINTS = {
    "phase": lambda d: phase(d, [1.0], 0.1),
    "harmonics": lambda d: lattice_harmonics(CHAIN, d),
    "model": lambda d: build_effective_model(CHAIN, d),
    "H(t)": lambda d: bloch_hamiltonian_t(CHAIN, d, [0.3], 0.1),
    "propagator": lambda d: propagate_period(CHAIN, d, [0.3]),
    "offset matrices": lambda d: offset_matrices_at_time(CHAIN, d, 0.1),
    "probe": lambda d: magnus_commutator_probe(CHAIN, d, 0.1, 0.2, (3,)),
}


@pytest.mark.parametrize("m", OVERFLOWING)
@pytest.mark.parametrize("entry", PHASE_ENTRY_POINTS)
def test_an_overflowing_phase_is_refused_naming_the_harmonic(entry, m):
    # it used to give inf, a NaN H(t), a bare LinAlgError from the propagator
    # or, after numpy warnings, a false "cutoff 256 too small: Parseval tail mass nan"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=rf"^harmonic m={m}: bond phase is not finite"):
            PHASE_ENTRY_POINTS[entry](OVERFLOWING[m])


def test_a_phase_whose_time_argument_overflows_is_refused():
    # m omega t beyond the float range: sin(inf) is NaN
    with pytest.raises(ValidationError, match="^harmonic m=1: bond phase is not finite"):
        phase(linear_drive(1e300, [1.0]), [1.0], 1e10)


def test_bond_harmonics_match_quadrature():
    """g^n from the FFT engine vs direct Fourier integrals of j e^{i chi}."""
    lat = preset("zigzag")
    drive = DriveSpec(5.0, (Harmonic(1, [2.0, 1.0], [0.0, 3.0]), Harmonic(3, [1.0, -1.5], [0.5, 0.0])))
    bond = lat.bonds[0]
    h = lattice_harmonics(lat, drive)[bond]
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
    h = lattice_harmonics(lat, drive)[lat.bonds[0]]
    for n in range(-10, 11):
        assert abs(abs(h.coeff(n)) - abs(jv(n, z))) < 1e-12


def test_coefficients_store_symmetric_window():
    lat = preset("chain")
    drive = linear_drive(4.0, [3.0])
    h = lattice_harmonics(lat, drive, cutoff=16)[lat.bonds[0]]
    assert h.cutoff == 16
    assert h.coefficients.shape == (33,)
    pos, neg, zero = _split(h.coefficients[None, :])
    assert pos[0, 2] == h.coeff(3) and neg[0, 2] == h.coeff(-3) and zero[0] == h.coeff(0)
    with pytest.raises(ValidationError):
        h.coeff(17)


def test_explicit_cutoff_too_small_raises():
    lat = preset("chain")
    drive = linear_drive(3.0, [40.0])  # z ~ 13, spectrum reaches past n = 16
    with pytest.raises(CutoffTooSmallError):
        lattice_harmonics(lat, drive, cutoff=8)


def test_explicit_cutoff_is_capped_like_the_automatic_one():
    lat = preset("chain")
    drive = linear_drive(10.0, [13.0])
    a = np.array([[1.0]])
    with pytest.raises(ValidationError, match="cutoff"):
        _harmonics_at(drive, a, [1.0], MAX_CUTOFF + 1, np.array([-1]))
    with pytest.raises(ValidationError, match="cutoff"):
        lattice_harmonics(lat, drive, cutoff=MAX_CUTOFF + 1)
    assert lattice_harmonics(lat, drive, cutoff=MAX_CUTOFF)[lat.bonds[0]].cutoff == MAX_CUTOFF


def test_auto_cutoff_escalates_until_parseval_holds():
    lat = preset("chain")
    drive = linear_drive(3.0, [120.0])  # z = 40 needs more than the default 32
    h = lattice_harmonics(lat, drive)[lat.bonds[0]]
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


def test_linear_drive_refuses_a_non_vector_amplitude_naming_it():
    # not "harmonic m=1: cos_amplitude must be a vector", a field the caller never passed
    for amplitude in (5.0, [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValidationError, match="^amplitude must be a vector, got"):
            linear_drive(10.0, amplitude)


def test_harmonics_dimension_mismatch_is_refused():
    lat = preset("chain")
    with pytest.raises(ValidationError):
        lattice_harmonics(lat, circular_drive(5.0, 1.0))


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


def assert_harmonics_match_reference(lat, drive, cutoff=None):
    got = lattice_harmonics(lat, drive, cutoff)
    want = reference_lattice_harmonics(lat, drive, cutoff)
    assert list(got) == list(want) == list(lat.bonds)
    for b in lat.bonds:
        assert got[b].cutoff == want[b].cutoff
        assert got[b].coefficients.tobytes() == want[b].coefficients.tobytes()
        assert not got[b].coefficients.flags.writeable
    b = lat.bonds[-1]
    # the same bond alone, as a one-row batch
    _, one = _harmonics_at(drive, lat.displacement(b)[None, :], [b.amplitude], cutoff, np.array([-1]))
    assert one[0].tobytes() == got[b].coefficients.tobytes()
    return got[b].cutoff


def test_lattice_harmonics_match_the_per_bond_reference_bit_for_bit():
    rng = np.random.default_rng(61)
    for name in PRESET_NAMES:
        lat = preset(name)
        for _ in range(3):
            assert assert_harmonics_match_reference(lat, random_drive(rng, lat.space_dim)) == 32
        assert assert_harmonics_match_reference(lat, strong_drive(lat, 30.0)) == 64
        assert assert_harmonics_match_reference(lat, random_drive(rng, lat.space_dim), 128) == 128
    # complex amplitudes exercise the batched amplitude multiply
    lat = peierls_lattice(preset("kagome"), [0.7, -1.3])
    assert any(b.amplitude.imag != 0 for b in lat.bonds)
    assert_harmonics_match_reference(lat, random_drive(rng, 2))
    assert_harmonics_match_reference(lat, strong_drive(lat, 30.0))


def test_parseval_failure_names_the_same_first_bond_as_the_per_bond_path():
    lat = preset("lieb")
    drive = strong_drive(lat, 30.0)
    with pytest.raises(CutoffTooSmallError) as got:
        lattice_harmonics(lat, drive, cutoff=16)
    with pytest.raises(CutoffTooSmallError) as want:
        reference_lattice_harmonics(lat, drive, cutoff=16)
    assert str(got.value) == str(want.value)
    assert got.value.tail_mass == want.value.tail_mass
    # a drive beyond the largest cutoff fails the same way in auto mode
    drive = strong_drive(lat, 400.0)
    with pytest.raises(CutoffTooSmallError) as got:
        lattice_harmonics(lat, drive)
    with pytest.raises(CutoffTooSmallError) as want:
        reference_lattice_harmonics(lat, drive)
    assert str(got.value) == str(want.value)
    assert got.value.tail_mass == want.value.tail_mass
    assert "cutoff 256 too small" in str(got.value)
    # the tail itself, to the last bit, at every explicit cutoff that fails
    for name in PRESET_NAMES:
        lat = preset(name)
        for z, cutoff in itertools.product((2.0, 8.0, 30.0), (4, 8, 16, 32)):
            drive = strong_drive(lat, z)
            try:
                reference_lattice_harmonics(lat, drive, cutoff)
            except CutoffTooSmallError as error:
                with pytest.raises(CutoffTooSmallError) as got:
                    lattice_harmonics(lat, drive, cutoff)
                assert got.value.tail_mass == error.tail_mass, (name, z, cutoff)
            else:
                lattice_harmonics(lat, drive, cutoff)


def test_bit_equal_bonds_share_one_spectrum_kept_across_escalation(monkeypatch):
    assert len(preset("kagome")._pairs.distinct) == 6
    assert len(preset("lieb")._pairs.distinct) == 4
    calls = []
    fft = np.fft.fft

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    lat = preset("kagome")
    # escalates 32 -> 64; both cutoffs use 1024 samples, so one FFT serves both
    table = lattice_harmonics(lat, strong_drive(lat, 30.0))
    assert next(iter(table.values())).cutoff == 64
    assert calls == [(6, 1024)]


def _paired_rows(lat):
    """(row, partner) of every pair-table row that shares its partner's exponential."""
    negated = lat._pairs.negated
    return [(r, int(p)) for r, p in enumerate(negated.tolist()) if p >= 0]


def test_every_preset_row_shares_its_negated_partners_exponential():
    # bonds are closed under reversal, so on a preset each class of a
    # displacement pairs with the class of its negation: half of the rows
    for name in PRESET_NAMES:
        table = preset(name)._pairs
        rows = table.displacements[table.distinct]
        paired = _paired_rows(preset(name))
        assert 2 * len(paired) == len(rows), name
        for r, p in paired:
            assert p < r and table.negated[p] == -1
            assert np.array_equal(rows[r], -rows[p])


def test_shared_exponentials_keep_every_bit_where_a_bond_is_left_undriven():
    # a paired row takes the conjugate of its partner's exp(i chi) only where
    # that chi has no exact zero: exp(+-0i) is 1 + 0i, whose conjugate 1 - 0i
    # times an amplitude j - 0i (the reverse of a real j) gives another sign
    # of zero. On a square lattice, (13, -13) leaves the (1, 1) bond exactly
    # undriven, (13, 13) the (1, -1) bond, and a circular drive has chi(0) = 0
    # on the (1, 0) bond; an x-only drive leaves Lieb's vertical bonds undriven
    cases = []
    for amplitudes in ((1.0, 0.5, 2.0), (1.0, 0.6 + 0.8j, 0.3 - 1.1j)):
        # given at (-1, y), so that (1, y) holds the conjugate, as a later row
        square = LatticeSpec(
            2, np.eye(2), [[0.0, 0.0]],
            [Bond(0, 0, offset, j) for offset, j in zip(((-1, -1), (-1, 0), (-1, 1)), amplitudes)],
        )
        assert len(_paired_rows(square)) == 3
        for drive in (linear_drive(10.0, [13.0, -13.0]), linear_drive(10.0, [13.0, 13.0]), circular_drive(10.0, 13.0)):
            cases.append((square, drive))
    cases.append((preset("lieb"), linear_drive(10.0, [13.0, 0.0])))
    for lat, drive in cases:
        chi = phase(drive, lat._pairs.displacements[lat._pairs.distinct], np.arange(1024) * (drive.period / 1024))
        assert any((chi[p] == 0).any() for _, p in _paired_rows(lat))
        assert_harmonics_match_reference(lat, drive)


def test_rows_pair_by_value_where_a_zero_component_differs_in_sign():
    # sites (0, 0) and (0.5, 0): 0.0 - 0.0 gives +0 both ways, so the two
    # hops' displacements are (0.5, 0.0) and (-0.5, 0.0), negations by value
    # but not by bits; they pair, and the shared exponential keeps the bits
    lat = LatticeSpec(
        2, np.eye(2), [[0.0, 0.0], [0.5, 0.0]],
        [Bond(1, 0, (0, 0), 1.0), Bond(0, 1, (1, 0), 1.0), Bond(0, 0, (0, 1), 0.7j)],
    )
    rows = lat._pairs.displacements[lat._pairs.distinct]
    paired = _paired_rows(lat)
    assert any((-rows[p]).tobytes() != rows[r].tobytes() for r, p in paired)
    assert all(np.array_equal(rows[r], -rows[p]) for r, p in paired)
    rng = np.random.default_rng(67)
    for drive in (random_drive(rng, 2), linear_drive(10.0, [0.0, 7.0]), circular_drive(10.0, 9.0)):
        assert_harmonics_match_reference(lat, drive)
