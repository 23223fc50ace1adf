import sys

import numpy as np
import pytest

from floquet_forge import (
    ConvergenceError,
    DriveSpec,
    Gauge,
    Harmonic,
    ValidationError,
    bloch_hamiltonian_t,
    bloch_matrix,
    build_effective_model,
    circular_drive,
    commutator_offsets,
    effective_bloch,
    error_matrix,
    fit_power_law,
    fold,
    gauge_difference_errors,
    linear_drive,
    magnus_commutator_probe,
    match_distance,
    match_permutation,
    offset_matrices_at_time,
    phase,
    preset,
    propagate_period,
    quasienergies_from_propagator,
    rescale_drive,
    reciprocal_vectors,
    scaling_errors,
    translational_identity_check,
    undriven_offsets,
)
from floquet_forge import PRESET_NAMES, floquet, lattice
from floquet_forge.floquet import thread_count
from floquet_forge.lattice import offset_dict
from helpers import random_drive, torus_hamiltonian


def test_fold_lands_in_half_open_window():
    w = 6.0
    x = np.array([0.0, 2.9, 3.0, -3.0, 3.1, 9.0, -8.9])
    f = fold(x, w)
    assert np.all(f > -w / 2) and np.all(f <= w / 2)
    assert np.allclose(fold(f, w), f)
    assert np.allclose(fold(x + 5 * w, w), f)
    assert fold(np.array([-3.0]), w)[0] == 3.0


def test_match_permutation_recovers_shuffle():
    rng = np.random.default_rng(31)
    w = 4.0
    a = rng.uniform(-2, 2, size=6)
    perm = rng.permutation(6)
    b = a[perm] + w * rng.integers(-3, 4, size=6)
    p = match_permutation(a, b, w)
    assert np.allclose(fold(a - b[p], w), 0.0, atol=1e-12)
    assert match_distance(a, b, w) < 1e-12


def test_quasienergies_from_synthetic_propagator():
    rng = np.random.default_rng(32)
    w = 5.0
    T = 2 * np.pi / w
    eps = np.array([-1.7, 0.2, 2.1])
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    V = np.linalg.qr(A)[0]
    U = V @ np.diag(np.exp(-1j * eps * T)) @ V.conj().T
    got = quasienergies_from_propagator(U, w)
    assert np.allclose(np.sort(got), np.sort(eps), atol=1e-12)


def test_undriven_propagation_reproduces_bloch_spectrum():
    lat = preset("kagome")
    drive = DriveSpec(9.0, ())
    k = np.array([0.4, -0.9])
    spec = propagate_period(lat, drive, k)
    bands = np.linalg.eigvalsh(bloch_matrix(undriven_offsets(lat), k, lat.bravais_vectors))
    assert match_distance(spec.quasienergies, fold(bands, 9.0), 9.0) < 1e-9 * 9.0
    assert spec.unitarity_error < 1e-10
    assert spec.step_doubling_change < 1e-9 * 9.0


def test_single_band_quasienergy_equals_time_average():
    """With one site per cell the propagator is an exact phase, so the
    quasienergy is the folded order0 band at machine-level accuracy."""
    rng = np.random.default_rng(33)
    lat = preset("triangular")
    drive = random_drive(rng, 2, omega=4.0)
    model = build_effective_model(lat, drive)
    for _ in range(3):
        k = rng.normal(size=2)
        spec = propagate_period(lat, drive, k)
        e = np.linalg.eigvalsh(effective_bloch(model, k))
        assert match_distance(spec.quasienergies, e, drive.omega) < 1e-9 * drive.omega


def test_propagation_is_periodic_in_k():
    lat = preset("zigzag")
    drive = circular_drive(12.0, 8.0)
    G = reciprocal_vectors(lat)
    k = np.array([0.3, 0.0])
    a = propagate_period(lat, drive, k)
    b = propagate_period(lat, drive, k + G[0])
    assert match_distance(a.quasienergies, b.quasienergies, 12.0) < 1e-10


def test_propagate_validates_inputs(monkeypatch):
    lat = preset("chain")
    drive = linear_drive(5.0, [2.0])
    with pytest.raises(ValidationError):
        propagate_period(lat, drive, np.array([0.1]), steps=100)
    with pytest.raises(ValidationError):
        propagate_period(lat, circular_drive(5.0, 1.0), np.array([0.1]))
    # two bands force genuine non-commuting-step error that one doubling
    # cannot push below 1e-16*omega
    monkeypatch.setattr(floquet, "RICHARDSON_TOL", 1e-16)
    monkeypatch.setattr(floquet, "MAX_STEPS", 1024)
    with pytest.raises(ConvergenceError):
        propagate_period(preset("zigzag"), circular_drive(5.0, 8.0), np.array([0.3, 0.4]))


def test_propagate_refuses_a_start_with_no_doubling_under_the_cap():
    # a start above MAX_STEPS // 2 could only end in a false "did not settle"
    lat, drive, k = preset("chain"), linear_drive(10.0, [13.0]), np.array([0.7])
    for steps in (floquet.MAX_STEPS // 2 + 1, floquet.MAX_STEPS, 10**9):
        with pytest.raises(ValidationError, match="steps"):
            propagate_period(lat, drive, k, steps=steps)
    assert propagate_period(lat, drive, k, steps=floquet.MAX_STEPS // 2).steps == floquet.MAX_STEPS


def test_unrefined_propagation_takes_requested_steps():
    lat = preset("chain")
    drive = linear_drive(7.0, [3.0])
    spec = propagate_period(lat, drive, np.array([0.7]), steps=512, refine=False)
    assert spec.steps == 512
    assert np.isnan(spec.step_doubling_change)


def test_unrefined_propagation_fails_on_nan_unitarity(monkeypatch):
    monkeypatch.setattr(floquet, "_unitarity_error", lambda U: float("nan"))
    with pytest.raises(ConvergenceError, match="unitarity"):
        propagate_period(preset("chain"), linear_drive(7.0, [3.0]), np.array([0.7]), refine=False)


def test_refined_propagation_fails_on_nan_unitarity(monkeypatch):
    # a NaN drift never counts as settled: the step count escalates past the cap
    monkeypatch.setattr(floquet, "_unitarity_error", lambda U: float("nan"))
    monkeypatch.setattr(floquet, "MAX_STEPS", 1024)
    with pytest.raises(ConvergenceError, match="did not settle"):
        propagate_period(preset("chain"), linear_drive(7.0, [3.0]), np.array([0.7]))


def test_cached_bond_factors_reproduce_a_cold_build_bit_for_bit():
    lat = preset("kagome")
    drive = circular_drive(12.0, 18.0)
    twin = circular_drive(12.0, 18.0)  # equal, but a distinct cache key
    k = np.array([0.4, -0.9])
    propagate_period(lat, drive, np.array([1.1, 0.2]))
    info = floquet._integrator_terms.cache_info()
    hit = propagate_period(lat, drive, k)
    assert floquet._integrator_terms.cache_info().misses == info.misses
    miss = propagate_period(lat, twin, k)
    assert floquet._integrator_terms.cache_info().misses > info.misses
    assert np.array_equal(hit.quasienergies, miss.quasienergies)
    assert np.array_equal(hit.propagator, miss.propagator)


def test_warm_cache_still_validates_inputs():
    lat = preset("kagome")
    drive = circular_drive(12.0, 18.0)
    propagate_period(lat, drive, np.array([0.4, -0.9]))
    with pytest.raises(ValidationError, match="Cartesian components"):
        propagate_period(lat, drive, np.array([0.4, -0.9, 0.1]))
    with pytest.raises(ValidationError, match="drive force has 3 components"):
        propagate_period(lat, linear_drive(12.0, [1.0, 2.0, 3.0]), np.array([0.4, -0.9]))


def test_bond_factor_cache_is_bounded_and_thread_safe_over_a_sweep(monkeypatch):
    # more workers than cores, rapid thread switches, and more (drive, steps)
    # keys than cache entries: the pooled sweep must equal a serial one
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)
    ks = [np.array([kx, 0.0]) for kx in (0.5, 1.0, 1.5, 2.0)]
    omegas = [10.0, 20.0, 40.0, 80.0]

    def family(w):
        return rescale_drive(base, w)

    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "1")
    before = floquet._integrator_terms.cache_info()
    serial = error_matrix(lat, family, ks, omegas)
    assert floquet._integrator_terms.cache_info().hits > before.hits
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = error_matrix(lat, family, ks, omegas)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, pooled)
    info = floquet._integrator_terms.cache_info()
    assert 0 < info.currsize <= info.maxsize == 4
    info = lattice._offset_stack.cache_info()
    assert 0 < info.currsize <= info.maxsize == 8


def test_fit_power_law_recovers_exponent():
    w = np.array([10.0, 20.0, 40.0, 80.0])
    fit = fit_power_law(w, 3.0 * w**-2.0)
    assert np.isclose(fit.slope, -2.0, atol=1e-12)
    assert np.isclose(np.exp(fit.intercept), 3.0)
    assert fit.excluded_omegas.size == 0
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)


def test_fit_power_law_excludes_floor_points():
    w = np.array([10.0, 20.0, 40.0, 80.0])
    e = np.array([1e-3, 1e-4, 1e-13, 1e-14])
    with pytest.warns(RuntimeWarning):
        fit = fit_power_law(w, e)
    assert list(fit.excluded_omegas) == [40.0, 80.0]
    assert np.isclose(fit.slope, np.log(1e-4 / 1e-3) / np.log(2.0))
    with pytest.raises(ConvergenceError):
        with pytest.warns(RuntimeWarning):
            fit_power_law(w, np.full(4, 1e-15))


def test_fit_power_law_refuses_bad_omegas_before_fitting():
    # these used to reach LAPACK and fail there with a LinAlgError
    e = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    for bad in (0.0, -10.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="omegas"):
            fit_power_law([bad, 10.0, 20.0, 40.0], e)


def test_fit_power_law_refuses_a_non_finite_error():
    w = np.array([10.0, 20.0, 40.0, 80.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ConvergenceError, match="omega=10 "):
            fit_power_law(w, np.array([bad, 1e-2, 2.5e-3, 6.25e-4]))


def test_error_matrix_shape_and_order():
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    ks = [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    m = error_matrix(lat, family, ks, [40.0, 10.0, 80.0, 20.0], order=1)
    assert m.shape == (4, 2)
    assert np.all(m > 0)
    # rows come back sorted by omega and decay with it
    assert np.all(m[0] > m[-1])


def test_scaling_errors_shares_the_sweep():
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    ks = [np.array([0.5, 0.0])]
    both = scaling_errors(lat, family, ks, [10.0, 20.0, 40.0, 80.0], orders=(0, 1))
    assert set(both) == {0, 1}
    single = error_matrix(lat, family, ks, [10.0, 20.0, 40.0, 80.0], order=1)
    assert np.array_equal(both[1], single.max(axis=1))


def test_sweep_preconditions():
    lat = preset("zigzag")

    def family(w):
        return circular_drive(w, w)

    ks = [np.array([0.0, 0.0])]
    with pytest.raises(ValidationError):
        error_matrix(lat, family, ks, [10.0, 20.0, 40.0])
    with pytest.raises(ValidationError):
        error_matrix(lat, family, ks, [10.0, 20.0, 40.0, 79.0])
    with pytest.raises(ValidationError):
        error_matrix(lat, family, ks, [10.0, 10.0, 40.0, 80.0])

    def broken_family(w):
        return circular_drive(2 * w, w)

    with pytest.raises(ValidationError):
        error_matrix(lat, broken_family, ks, [10.0, 20.0, 40.0, 80.0])


def test_sweeps_parse_gauge_names_and_refuse_other_values():
    lat = preset("zigzag")

    def family(w):
        return circular_drive(w, w)

    ks = [np.array([0.5, 0.0])]
    omegas = [10.0, 20.0, 40.0, 80.0]
    by_name = error_matrix(lat, family, ks, omegas, gauge="floquet")
    assert np.array_equal(by_name, error_matrix(lat, family, ks, omegas, gauge=Gauge.FLOQUET))
    assert not np.array_equal(by_name, error_matrix(lat, family, ks, omegas))
    for bad in ("magnus", 1, None):
        with pytest.raises(ValidationError, match="gauge"):
            error_matrix(lat, family, ks, omegas, gauge=bad)
        with pytest.raises(ValidationError, match="gauge"):
            scaling_errors(lat, family, ks, omegas, gauge=bad)


def test_scaling_fit_bundles_sweep_and_fit():
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    ks = [np.array([0.9, 0.0]), np.array([2.2, 0.0])]
    omegas = [10.0, 20.0, 40.0, 80.0]
    errors = scaling_errors(lat, family, ks, omegas, orders=(1,))
    assert set(errors) == {1}
    assert errors[1].shape == (4,)
    fit = fit_power_law(np.array(omegas), errors[1])
    assert -2.5 < fit.slope < -1.5
    assert np.all(np.abs(fit.residuals) < 0.5)


def test_scaling_fit_on_gauge_difference():
    """The two gauges' truncated spectra approach each other one order faster
    than either approaches the exact spectrum."""
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    from floquet_forge import bz_grid

    ks = bz_grid(lat, 8)
    errs = gauge_difference_errors(lat, family, ks, [10.0, 20.0, 40.0, 80.0])
    fit = fit_power_law(np.array([10.0, 20.0, 40.0, 80.0]), errs)
    assert -2.3 < fit.slope < -1.7


def test_commutator_offsets_structure():
    lat = preset("kagome")
    drive = circular_drive(8.0, 6.0)
    offs = commutator_offsets(lat, drive, 0.3, 1.1)
    table = offset_dict(offs)
    # the commutator of Hermitian operators is anti-Hermitian
    for off, m in table.items():
        rev = tuple(-x for x in off)
        assert rev in table
        assert np.allclose(table[rev], -m.conj().T, atol=1e-13)


def test_commutator_probe_degenerate_cases_are_exact_zeros():
    chain = preset("chain")
    d1 = DriveSpec(5.0, (Harmonic(1, [2.0], [0.7]), Harmonic(2, [1.0], [0.0])))
    assert magnus_commutator_probe(chain, d1, 0.2, 1.9, (5,)) == 0.0
    tri = preset("triangular")
    d2 = circular_drive(5.0, 3.0)
    assert magnus_commutator_probe(tri, d2, 0.4, 1.2, (4, 4)) == 0.0
    kag = preset("kagome")
    d3 = circular_drive(5.0, 3.0)
    assert magnus_commutator_probe(kag, d3, 0.8, 0.8, (4, 4)) == 0.0


def test_commutator_probe_matches_dense_torus_route():
    """Offset-class bracket vs a commutator of dense periodized matrices."""
    kag = preset("kagome")
    drive = circular_drive(7.0, 5.0)
    t1, t2 = 0.25, 1.4
    extents = (4, 4)
    got = magnus_commutator_probe(kag, drive, t1, t2, extents)
    A = torus_hamiltonian(offset_dict(offset_matrices_at_time(kag, drive, t1)), extents, 3)
    B = torus_hamiltonian(offset_dict(offset_matrices_at_time(kag, drive, t2)), extents, 3)
    want = np.abs(A @ B - B @ A).max()
    assert got > 1e-3
    assert abs(got - want) < 1e-12


def test_commutator_probe_validates_torus():
    kag = preset("kagome")
    drive = circular_drive(7.0, 5.0)
    with pytest.raises(ValidationError):
        magnus_commutator_probe(kag, drive, 0.1, 0.9, (4,))
    with pytest.raises(ValidationError):
        magnus_commutator_probe(kag, drive, 0.1, 0.9, (1, 4))


def test_both_torus_checks_apply_one_extent_rule():
    kag = preset("kagome")
    drive = circular_drive(7.0, 5.0)
    C = offset_matrices_at_time(kag, drive, 0.1)
    D = offset_matrices_at_time(kag, drive, 0.9)
    for torus in ((4,), (1, 4), (4, 4, 4)):
        messages = []
        for check in (
            lambda: magnus_commutator_probe(kag, drive, 0.1, 0.9, torus),
            lambda: translational_identity_check(C, D, torus),
        ):
            with pytest.raises(ValidationError, match="torus") as info:
                check()
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_offset_matrices_at_time_match_the_per_bond_route_bit_for_bit():
    # one phase evaluation per bond, as offset_matrices_at_time once did
    rng = np.random.default_rng(41)
    for name in PRESET_NAMES:
        lat = preset(name)
        for _ in range(3):
            drive = random_drive(rng, lat.space_dim, omega=float(rng.uniform(6.0, 15.0)))
            for t in rng.uniform(0.0, drive.period, size=2):
                want = {}
                for b in lat.bonds:
                    chi = float(phase(drive, lat.displacement(b), float(t)))
                    m = want.setdefault(b.cell_offset, np.zeros((lat.basis_count,) * 2, complex))
                    m[b.target_basis, b.source_basis] += b.amplitude * np.exp(1j * chi)
                got = offset_matrices_at_time(lat, drive, float(t))
                assert [om.offset for om in got] == sorted(want)
                for om in got:
                    assert om.matrix.tobytes() == want[om.offset].tobytes()


def test_bloch_hamiltonian_t_is_hermitian_and_periodic():
    lat = preset("lieb")
    rng = np.random.default_rng(34)
    drive = random_drive(rng, 2, omega=9.0)
    k = rng.normal(size=2)
    for t in (0.0, 0.37, 1.1):
        H = bloch_hamiltonian_t(lat, drive, k, t)
        assert np.max(np.abs(H - H.conj().T)) < 1e-13
        HT = bloch_hamiltonian_t(lat, drive, k, t + drive.period)
        assert np.max(np.abs(H - HT)) < 1e-12


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.delenv("FLOQUET_FORGE_THREADS")
    assert thread_count() >= 1
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "many")
    with pytest.raises(ValidationError):
        thread_count()
