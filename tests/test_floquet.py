import inspect
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from floquet_forge import (
    Bond,
    ConvergenceError,
    DriveSpec,
    Gauge,
    Harmonic,
    LatticeSpec,
    ValidationError,
    bloch_hamiltonian_t,
    bloch_matrix,
    build_effective_model,
    bz_grid,
    circular_drive,
    effective_bloch,
    error_matrix,
    fit_power_law,
    fold,
    lattice_harmonics,
    linear_drive,
    magnus_commutator_probe,
    match_distance,
    match_permutation,
    phase,
    preset,
    propagate_period,
    quasienergies_from_propagator,
    rescale_drive,
    reciprocal_vectors,
    scaling_errors,
)
from floquet_forge import PRESET_NAMES, effective, floquet, lattice
from floquet_forge.floquet import offset_matrices_at_time, thread_count
from floquet_forge.lattice import offset_dict
from helpers import (
    bond_blocks,
    commutator_offsets,
    count_bloch_matrices,
    count_propagations,
    from_offset_dict,
    gauge_difference_errors,
    one_drive_exponentials,
    one_pass_time_ordered_product,
    random_drive,
    random_lattice,
    sambe_quasienergies,
    strong_drive,
    torus_hamiltonian,
    translational_identity_check,
    undriven_offsets,
)


def test_fold_lands_in_half_open_window():
    w = 6.0
    x = np.array([0.0, 2.9, 3.0, -3.0, 3.1, 9.0, -8.9])
    f = fold(x, w)
    assert np.all(f > -w / 2) and np.all(f <= w / 2)
    assert np.allclose(fold(f, w), f)
    assert np.allclose(fold(x + 5 * w, w), f)
    assert fold(np.array([-3.0]), w)[0] == 3.0


def test_fold_and_drives_share_one_omega_rule():
    base = circular_drive(10.0, 15.0)
    builds = (
        lambda w: fold([1.0], w),
        lambda w: DriveSpec(w, ()),
        lambda w: circular_drive(w, 1.0),
        lambda w: rescale_drive(base, w),
    )
    for omega in (0.0, -4.0, float("nan"), float("inf")):
        for build in builds:
            with pytest.raises(ValidationError, match="omega must be finite and positive"):
                build(omega)
    # a bool is not a frequency, nor is a string, even one that reads as a number
    for omega in (True, "x", "10", None, [10.0]):
        for build in builds:
            with pytest.raises(ValidationError, match="omega must be a real number"):
                build(omega)
    assert DriveSpec(np.float32(2.5), ()).omega == 2.5


def test_match_permutation_recovers_shuffle():
    rng = np.random.default_rng(31)
    w = 4.0
    a = rng.uniform(-2, 2, size=6)
    perm = rng.permutation(6)
    b = a[perm] + w * rng.integers(-3, 4, size=6)
    p = match_permutation(a, b, w)
    assert np.allclose(fold(a - b[p], w), 0.0, atol=1e-12)
    assert match_distance(a, b, w) < 1e-12


def assignment_costs(rng, n):
    """Square cost matrices of the kinds the matcher meets: random, exactly
    tied small integers, near-degenerate clusters and pairs across the zone
    edge, the last two as circular distances."""
    w = 3.0
    centres = rng.uniform(-1.0, 1.0, size=max(1, n // 2))
    clusters = [rng.choice(centres, n) + rng.normal(scale=1e-14, size=n) for _ in "ab"]
    edge = [rng.choice([-1.0, 1.0], n) * (w / 2 - rng.uniform(0.0, 1e-3, n)) for _ in "ab"]
    return [
        rng.uniform(0.0, 1.0, (n, n)),
        rng.integers(0, 3, (n, n)).astype(float),
        np.abs(fold(clusters[0][:, None] - clusters[1][None, :], w)),
        np.abs(fold(edge[0][:, None] - edge[1][None, :], w)),
    ]


def test_assignment_returns_scipys_permutation():
    # the matcher must break ties as scipy does, so matched distances keep their bits
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(41)
    for n in range(1, 9):
        for _ in range(100):
            for cost in assignment_costs(rng, n):
                rows, cols = linear_sum_assignment(cost)
                assert floquet._assignment(cost.tolist()) == cols.tolist(), cost


def test_assignment_cost_is_the_brute_force_minimum():
    rng = np.random.default_rng(42)
    for n in range(1, 7):
        for _ in range(20):
            for cost in assignment_costs(rng, n):
                cols = floquet._assignment(cost.tolist())
                assert sorted(cols) == list(range(n))
                best = min(
                    math.fsum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                )
                # optimal up to the rounding of the dual updates
                assert math.fsum(cost[i, cols[i]] for i in range(n)) - best <= 1e-14 * n


def test_matching_refuses_non_finite_input():
    nan, inf = float("nan"), float("inf")
    for a, b, omega, name in [
        ([nan, 0.0], [0.0, 1.0], 10.0, "a must be finite"),
        ([0.0, 1.0], [0.0, inf], 10.0, "b must be finite"),
        ([0.0, 1.0], [-inf, 1.0], 10.0, "b must be finite"),
        ([0.0, 1.0], [0.0, 1.0], nan, "omega must be finite and positive"),
        ([0.0, 1.0], [0.0, 1.0], inf, "omega must be finite and positive"),
        ([0.0, 1.0], [0.0, 1.0], 0.0, "omega must be finite and positive"),
        ([0.0, 1.0], [0.0, 1.0], -4.0, "omega must be finite and positive"),
        ([1e308, 0.0], [-1e308, 0.0], 10.0, "overflow"),
        ([], [], 10.0, "empty spectra"),
    ]:
        for match in (match_permutation, match_distance):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValidationError, match=name
            ):
                match(a, b, omega)


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


@pytest.mark.parametrize("U, message", [
    ([1.0, 2.0], r"U must be a square matrix, got shape \(2,\)"),
    ([[1.0, 0.0]], r"U must be a square matrix, got shape \(1, 2\)"),
    (5.0, r"U must be a square matrix, got shape \(\)"),
    (np.eye(2)[None], r"U must be a square matrix, got shape \(1, 2, 2\)"),
    ([[float("nan")]], "U must be finite"),
    ([[1.0, 0.0], [0.0, float("inf")]], "U must be finite"),
], ids=["vector", "row", "scalar", "stack", "nan", "inf"])
def test_quasienergies_refuse_a_propagator_that_is_no_finite_square_matrix(U, message):
    # numpy's eigvals used to raise a bare LinAlgError, or take a stack
    with pytest.raises(ValidationError, match=f"^{message}"):
        quasienergies_from_propagator(U, 10.0)


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
    # a non-finite k fails before any integration, not in eig after a period
    kagome, kagome_drive = preset("kagome"), circular_drive(20.0, 24.0)
    for k in ([float("nan"), 0.1], [0.1, float("-inf")]):
        with pytest.raises(ValidationError, match="k must be finite"):
            propagate_period(kagome, kagome_drive, k)
        with pytest.raises(ValidationError, match="k must be finite"):
            bloch_hamiltonian_t(kagome, kagome_drive, k, 0.3)
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
    twin = circular_drive(12.0, 18.0)  # equal, but a distinct dict key
    k = np.array([0.4, -0.9])
    cold = propagate_period(lat, drive, k)
    terms = {}
    with floquet._sweep_scope(terms):
        propagate_period(lat, drive, np.array([1.1, 0.2]))
        built = set(terms)
        warm = propagate_period(lat, drive, k)
        assert set(terms) == built
        propagate_period(lat, twin, k)
    assert set(terms) - built == {(lat, twin, 512), (lat, twin, 1024)}
    for steps in (512, 1024):
        assert terms[lat, twin, steps] is terms[lat, drive, steps]
    assert warm.quasienergies.tobytes() == cold.quasienergies.tobytes()
    assert warm.propagator.tobytes() == cold.propagator.tobytes()


def test_warm_cache_still_validates_inputs():
    lat = preset("kagome")
    drive = circular_drive(12.0, 18.0)
    with floquet._sweep_scope({}):
        propagate_period(lat, drive, np.array([0.4, -0.9]))
        with pytest.raises(ValidationError, match="Cartesian components"):
            propagate_period(lat, drive, np.array([0.4, -0.9, 0.1]))
        with pytest.raises(ValidationError, match="drive force has 3 components"):
            propagate_period(lat, linear_drive(12.0, [1.0, 2.0, 3.0]), np.array([0.4, -0.9]))


def test_bond_factor_cache_is_bounded_and_thread_safe_over_a_sweep(monkeypatch):
    # more workers than cores and rapid thread switches over one shared
    # dict of integrator terms: the pooled sweep must equal a serial one
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)
    ks = [np.array([kx, 0.0]) for kx in (0.5, 1.0, 1.5, 2.0)]
    omegas = [10.0, 20.0, 40.0, 80.0]

    def family(w):
        return rescale_drive(base, w)

    calls = count_eighs(monkeypatch)
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "1")
    serial = error_matrix(lat, family, ks, omegas)
    assert len(calls) == len(ks) * 2  # one per k and step count
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = error_matrix(lat, family, ks, omegas)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(serial, pooled)
    # two workers building one entry must end up sharing the first
    assert len(calls) == 2 * len(ks) * 2
    assert not vars(floquet._thread)  # no sweep state is left on the thread
    info = lattice._offset_stack.cache_info()
    assert 0 < info.currsize <= info.maxsize == 4


def test_a_sweep_builds_each_drives_phases_once_per_step_count(monkeypatch):
    # the k tasks of a sweep share one dict of integrator terms, however many
    # frequencies it has, and a second sweep starts from nothing; the phases
    # are built once per frequency class (drives 2^e apart at fixed z) and
    # step count, by the class's first drive
    lat = preset("kagome")
    base = circular_drive(10.0, 15.0)
    ks = [np.array([0.4, -0.3]), np.array([1.1, 0.6]), np.array([-0.7, 0.2]), np.array([0.0, 0.9])]
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "1")
    calls = []
    build = floquet._bond_phases

    def counting(spec, drive, times):
        calls.append((drive.omega, len(times)))
        return build(spec, drive, times)

    def family(w):
        return rescale_drive(base, w)

    monkeypatch.setattr(floquet, "_bond_phases", counting)
    cases = [
        ([10.0, 20.0, 40.0, 80.0, 160.0, 320.0], [10.0]),  # one class: 2 builds, not 12
        ([10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0], [10.0, 15.0]),  # two classes: 4 builds
    ]
    eighs = count_eighs(monkeypatch)
    for omegas, firsts in cases:
        once = [(w, 3 * steps) for w in firsts for steps in (512, 1024)]
        calls.clear()
        eighs.clear()
        first = error_matrix(lat, family, ks, omegas)
        assert sorted(calls) == once
        # one eigh per k, class and step count, as when each drive built its own
        assert len(eighs) == len(ks) * len(firsts) * 2
        calls.clear()
        again = error_matrix(lat, family, ks, omegas)
        assert sorted(calls) == once
        assert again.tobytes() == first.tobytes()


def model_bytes(model):
    """Everything a model holds, bytes for arrays: two equal lists mean the
    same bits."""
    blocks = [(om.offset, om.matrix.tobytes()) for om in model.order0 + model.order1]
    return blocks, len(model.order0), model.cutoff, model.omega, model.gauge


def test_a_frequency_class_shares_one_model_and_one_phase_set_bit_for_bit(monkeypatch):
    # drives 2^e apart at fixed z (e = 1..3) make one class: one model build
    # and one phase set serve them all, each with the bits of its own build,
    # on every preset and on random lattices, in both gauges
    rng = np.random.default_rng(91)
    shapes = np.random.default_rng(92)
    builds = []
    build = effective.build_effective_model

    def counting(lat, drive, *args):
        builds.append(drive)
        return build(lat, drive, *args)

    monkeypatch.setattr(effective, "build_effective_model", counting)

    def check(lat, drives, firsts, shared=True):
        for gauge in Gauge:
            builds.clear()
            models = effective._class_models(lat, drives, gauge, None)
            assert builds == firsts
            for drive, model in zip(drives, models):
                assert model_bytes(model) == model_bytes(build(lat, drive, gauge)), (lat, drive.omega, gauge)
        with floquet._sweep_scope({}):
            phases = [floquet._integrator_phases(lat, drive, 512) for drive in drives]
        assert all(p is phases[0] for p in phases) is shared
        for drive, p in zip(drives, phases):  # outside a sweep each drive builds its own
            assert p.tobytes() == floquet._integrator_phases(lat, drive, 512).tobytes()

    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(shapes, dim) for dim in (1, 1, 2, 2, 3, 3)]
    for lat in lattices:
        base = random_drive(rng, lat.space_dim)
        check(lat, [base] + [rescale_drive(base, math.ldexp(base.omega, e)) for e in (1, 2, 3)], [base])

    # outside the class rule or its guard a drive builds its own
    lat = preset("kagome")
    base = circular_drive(10.0, 15.0)
    tripled = rescale_drive(base, 30.0)  # ratio 3
    check(lat, [base, tripled], [base, tripled], shared=False)
    h = rescale_drive(base, 20.0).harmonics[0]
    nudged = DriveSpec(20.0, (Harmonic(1, h.cos_amplitude, [0.0, np.nextafter(h.sin_amplitude[1], 0.0)]),))
    check(lat, [base, nudged], [base, nudged], shared=False)  # one amplitude one ulp off
    faint = circular_drive(10.0, 1e-295)  # products with the displacements below 2^-960
    fainter = rescale_drive(faint, 20.0)
    check(lat, [faint, fainter], [faint, fainter], shared=False)
    # amplitudes near the bottom of Bond's range: order 1 holds subnormal
    # values, where scaling by 2^-e would move bits, so each drive builds
    # its own model; the phases read no amplitude and are still shared
    tiny = LatticeSpec(
        lat.dimension, lat.bravais_vectors, lat.basis_sites,
        tuple(Bond(b.target_basis, b.source_basis, b.cell_offset, 2.0**-508 * b.amplitude) for b in lat.bonds),
    )
    doubled = [base, rescale_drive(base, 20.0), rescale_drive(base, 40.0)]
    check(tiny, doubled, doubled)
    scaled = np.ldexp(build(tiny, base).order1.blocks.view(float), -1).view(complex)
    assert scaled.tobytes() != build(tiny, doubled[1]).order1.blocks.tobytes()


def log_residuals(fit):
    """log(error) minus the fitted line, at each omega the fit kept."""
    return np.log(fit.errors) - (fit.slope * np.log(fit.omegas) + fit.intercept)


def test_fit_power_law_recovers_exponent():
    w = np.array([10.0, 20.0, 40.0, 80.0])
    fit = fit_power_law(w, 3.0 * w**-2.0)
    assert np.isclose(fit.slope, -2.0, atol=1e-12)
    assert np.isclose(np.exp(fit.intercept), 3.0)
    assert fit.excluded_omegas.size == 0
    assert np.allclose(log_residuals(fit), 0.0, atol=1e-12)


def test_fit_power_law_excludes_floor_points():
    w = np.array([10.0, 20.0, 40.0, 80.0])
    e = np.array([1e-3, 1e-4, 1e-13, 1e-14])
    fit = fit_power_law(w, e)
    assert list(fit.excluded_omegas) == [40.0, 80.0]
    assert list(fit.excluded_errors) == [1e-13, 1e-14]
    assert np.isclose(fit.slope, np.log(1e-4 / 1e-3) / np.log(2.0))
    with pytest.raises(ConvergenceError) as info:
        fit_power_law(w, np.full(4, 1e-15))
    assert str(info.value) == (
        "fewer than two sweep points above the error floor at distinct frequencies; "
        "no slope can be fit; at the floor: omega=10 (error 1.00e-15), "
        "omega=20 (error 1.00e-15), omega=40 (error 1.00e-15), omega=80 (error 1.00e-15)"
    )


def test_fit_power_law_needs_two_distinct_frequencies():
    # repeated frequencies used to give a made-up slope (-1.75, -1.5) beside numpy's RankWarning
    with pytest.raises(ConvergenceError, match=r"distinct frequencies; no slope can be fit$"):
        fit_power_law([10.0, 10.0], [1e-3, 1e-4])
    with pytest.raises(ConvergenceError, match=r"at the floor: omega=20 \(error 1.00e-13\)$"):
        fit_power_law([10.0, 10.0, 20.0], [1e-3, 1e-3, 1e-13])
    # replicates that leave two distinct frequencies still fit
    fit = fit_power_law([10.0, 10.0, 20.0, 40.0], [1e-2, 1e-2, 2.5e-3, 1e-13])
    assert np.isclose(fit.slope, -2.0, atol=1e-12)
    assert list(fit.omegas) == [10.0, 10.0, 20.0] and list(fit.excluded_omegas) == [40.0]


def test_fit_power_law_refuses_bad_omegas_before_fitting():
    # these used to reach LAPACK and fail there with a LinAlgError
    e = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    for bad in (0.0, -10.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="omegas"):
            fit_power_law([bad, 10.0, 20.0, 40.0], e)


def test_the_fit_and_the_sweeps_refuse_a_bad_frequency_alike():
    # one frequency rule, drive._check_omega, reads every entry of both lists
    chain = preset("chain")

    def family(w):
        return linear_drive(w, [0.5 * w])

    e = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    for bad in (0.0, -4.0, np.nan, np.inf):
        with pytest.raises(ValidationError) as fit:
            fit_power_law([bad, 20, 40, 80], e)
        with pytest.raises(ValidationError) as sweep:
            error_matrix(chain, family, [[0.1]], [bad, 20.0, 40.0, 80.0])
        assert str(fit.value) == str(sweep.value)
        assert str(fit.value) == f"omegas entry must be finite and positive, got {bad}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_k_tasks_error_reaches_the_sweeps_caller(monkeypatch, threads):
    # _on_pool collects every task's result, so a task's own error raises
    # there, with one worker or more; the settling limits are forced as in
    # the propagator's refusal test above
    monkeypatch.setattr(floquet, "RICHARDSON_TOL", 1e-16)
    monkeypatch.setattr(floquet, "MAX_STEPS", 1024)
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", threads)
    base = circular_drive(5.0, 8.0)
    ks = [np.array([0.3, 0.4]), np.array([0.1, 0.0])]
    with pytest.raises(ConvergenceError, match="did not settle"):
        error_matrix(preset("zigzag"), lambda w: rescale_drive(base, w), ks, [5.0, 10.0, 20.0, 40.0])


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


def test_error_matrix_propagates_a_repeated_k_once(monkeypatch):
    lat = preset("kagome")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    omegas = [10.0, 20.0, 40.0, 80.0]
    a, b = np.array([0.4, -0.3]), np.array([1.1, 0.6])
    distinct = error_matrix(lat, family, [a, b], omegas, order=1)
    calls = count_propagations(monkeypatch)
    m = error_matrix(lat, family, [a, b, a.copy(), b, a], omegas, order=1)
    assert len(calls) == len(omegas) * 2
    for col, src in ((0, 0), (1, 1), (2, 0), (3, 1), (4, 0)):
        assert m[:, col].tobytes() == distinct[:, src].tobytes()


def count_eighs(monkeypatch):
    """Wrap np.linalg.eigh; the returned list gets one entry per call
    (list.append is atomic, so pool threads may share it)."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def isolated_errors(lat, family, ks, omegas):
    """error_matrix at order 1 rebuilt point by point from propagate_period
    calls outside a sweep, where nothing is shared; also {(omega, k index):
    step count reached}."""
    errors, steps = np.zeros((len(omegas), len(ks))), {}
    for iw, w in enumerate(sorted(omegas)):
        drive = family(w)
        model = build_effective_model(lat, drive)
        for ik, k in enumerate(ks):
            spec = propagate_period(lat, drive, k)
            steps[w, ik] = spec.steps
            exact = np.linalg.eigvalsh(effective_bloch(model, k))
            errors[iw, ik] = match_distance(exact, spec.quasienergies, w)
    return errors, steps


@pytest.mark.parametrize(
    "family_name, omegas, sharing",
    [
        # rescale_drive holds z fixed: frequencies a power of two apart share
        ("rescaled", [10.0, 20.0, 40.0, 80.0], [[10.0, 20.0, 40.0, 80.0]]),
        ("rescaled", [10.0, 15.0, 45.0, 90.0], [[10.0], [15.0], [45.0, 90.0]]),
        # a fixed amplitude changes z with omega: no two stacks are bit-equal
        ("fixed", [10.0, 20.0, 40.0, 80.0], [[10.0], [20.0], [40.0], [80.0]]),
        # sharing goes by equal phases, not by neighbours in the grid
        ("rescaled", [10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0], [[10.0, 20.0, 40.0, 80.0], [15.0, 30.0, 60.0]]),
    ],
)
def test_a_sweep_decomposes_each_bit_distinct_stack_once(monkeypatch, family_name, omegas, sharing):
    lat = preset("kagome")
    base = circular_drive(10.0, 15.0)
    families = {"rescaled": lambda w: rescale_drive(base, w), "fixed": lambda w: circular_drive(w, 15.0)}
    family = families[family_name]
    a, b = np.array([0.4, -0.3]), np.array([1.1, 0.6])
    want, steps = isolated_errors(lat, family, [a, b], omegas)
    assert set(steps.values()) == {1024}  # every point takes 512 and 1024 steps
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "2")
    calls = count_eighs(monkeypatch)
    got = error_matrix(lat, family, [a, b, a.copy()], omegas)
    # one eigh per distinct k, run of sharing frequencies and step count
    assert len(calls) == 2 * len(sharing) * 2
    assert got.tobytes() == want[:, [0, 1, 0]].tobytes()


@pytest.mark.parametrize(
    "family_name, omegas, runs",
    [
        ("rescaled", [10.0, 20.0, 40.0, 80.0], 1),
        ("rescaled", [10.0, 15.0, 45.0, 90.0], 3),
        ("fixed", [10.0, 20.0, 40.0, 80.0], 4),
        ("rescaled", [10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0], 2),
    ],
)
def test_a_sweep_forms_the_propagators_of_a_run_of_sharing_drives_at_once(
    monkeypatch, family_name, omegas, runs
):
    lat = preset("kagome")
    base = circular_drive(10.0, 15.0)
    families = {"rescaled": lambda w: rescale_drive(base, w), "fixed": lambda w: circular_drive(w, 15.0)}
    formed, taken = [], []
    form, take = floquet._run_propagators, floquet._propagator

    def forming(w, V, drives, steps):
        U = form(w, V, drives, steps)
        formed.append((drives, steps, U))
        return U

    def taking(lattice, drive, k, steps):
        U = take(lattice, drive, k, steps)
        taken.append((drive, steps, U))
        return U

    monkeypatch.setattr(floquet, "_run_propagators", forming)
    monkeypatch.setattr(floquet, "_propagator", taking)
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "1")
    error_matrix(lat, families[family_name], [np.array([0.4, -0.3]), np.array([1.1, 0.6])], omegas)
    # one call per k, step count (512 and 1024) and run of sharing drives
    assert len(formed) == 2 * 2 * runs
    assert len(taken) == 2 * 2 * len(omegas)
    # every propagator formed, stashed ones included, is taken once, by its
    # own drive's propagate_period call at its step count (all stay alive
    # here, so their addresses tell them apart)
    origin = {U.ctypes.data: (drive, steps) for drives, steps, Us in formed for drive, U in zip(drives, Us)}
    assert len(origin) == len({U.ctypes.data for *_, U in taken}) == len(taken)
    for drive, steps, U in taken:
        assert origin[U.ctypes.data][0] is drive and origin[U.ctypes.data][1] == steps


@pytest.mark.parametrize(
    "omegas", [[10.0, 20.0, 40.0, 80.0], [10.0, 15.0, 45.0, 90.0], [10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 80.0]]
)
@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if preset(n).dimension == 2])
def test_sweeps_on_the_planar_presets_equal_a_point_by_point_rebuild(monkeypatch, name, omegas):
    # batched runs of sharing drives keep the bits of one drive at a time,
    # on one worker and on two
    lat = preset(name)
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    ks = [np.array([0.4, -0.3]), np.array([1.1, 0.6])]
    want, _ = isolated_errors(lat, family, ks, omegas)
    for threads in ("1", "2"):
        monkeypatch.setenv("FLOQUET_FORGE_THREADS", threads)
        assert error_matrix(lat, family, ks, omegas).tobytes() == want.tobytes(), threads


def capture_exponentials(monkeypatch):
    """Wrap floquet._time_ordered_product; the returned list gets the chunks
    of exponentials it is given, in order."""
    chunks = []
    product = floquet._time_ordered_product

    def capturing(given):
        given = list(given)
        chunks.extend(given)
        return product(given)

    monkeypatch.setattr(floquet, "_time_ordered_product", capturing)
    return chunks


def test_batched_exponentials_keep_the_bits_of_one_product_per_drive(monkeypatch):
    # the left factors of G drives go through one (G d x d) @ (d x d) product
    # per node: the BLAS must give the bytes of G separate products, and the
    # batched tree those of one tree per drive
    rng = np.random.default_rng(24)
    chunks = capture_exponentials(monkeypatch)
    steps = 250  # 750 nodes: a chunk of MIN_STEPS and a shorter one
    for d in range(1, 5):
        for G in range(1, 6):
            w = rng.normal(scale=3.0, size=(3 * steps, d))
            V = np.linalg.qr(rng.normal(size=(3 * steps, d, d)) + 1j * rng.normal(size=(3 * steps, d, d)))[0]
            drives = [DriveSpec(float(o), ()) for o in rng.uniform(5.0, 80.0, size=G)]
            chunks.clear()
            U = floquet._run_propagators(w, V, drives, steps)
            got = np.concatenate(chunks)
            assert U.shape == (G, d, d) and got.shape == (3 * steps, G, d, d)
            for g, drive in enumerate(drives):
                want = one_drive_exponentials(w, V, np.tile(floquet._WEIGHTS * (drive.period / steps), steps))
                assert got[:, g].tobytes() == want.tobytes(), (d, G, g)
                assert U[g].tobytes() == one_pass_time_ordered_product(want).tobytes(), (d, G, g)


def test_the_chunked_time_ordered_product_pairs_as_one_tree():
    # MIN_STEPS is a power of two, so chunks of it keep every pairing of one
    # tree over the stack, also when the stack is no multiple of it
    rng = np.random.default_rng(25)
    mats = np.linalg.qr(rng.normal(size=(1600, 3, 3)) + 1j * rng.normal(size=(1600, 3, 3)))[0]
    size = floquet.MIN_STEPS
    for n in range(1, 1601):
        got = floquet._time_ordered_product(mats[s : min(s + size, n)] for s in range(0, n, size))
        assert got.tobytes() == one_pass_time_ordered_product(mats[:n]).tobytes(), n


def test_a_stashed_propagator_serves_only_the_same_lattice_and_k(monkeypatch):
    # a sweep's k task sees one lattice and one k; the stash keys must hold anyway
    lat = preset("kagome")
    heavier = LatticeSpec(
        lat.dimension, lat.bravais_vectors, lat.basis_sites,
        tuple(Bond(b.target_basis, b.source_basis, b.cell_offset, 2.0 * b.amplitude) for b in lat.bonds),
    )
    base = circular_drive(10.0, 15.0)
    drives = [base, rescale_drive(base, 20.0)]  # z fixed: the two share their phases
    a, b = np.array([0.4, -0.3]), np.array([1.1, 0.6])
    # the first call forms and stashes the second drive's propagator at (lat, a)
    points = [(lat, drives[0], a), (lat, drives[1], b), (heavier, drives[1], a), (lat, drives[1], a.copy())]
    want = [propagate_period(spec, drive, k).propagator for spec, drive, k in points]
    calls = count_eighs(monkeypatch)
    terms = {}
    with floquet._sweep_scope(terms, drives):
        got = [propagate_period(spec, drive, k).propagator for spec, drive, k in points]
        assert floquet._thread.stash == {}  # every stashed propagator was taken
    assert not vars(floquet._thread)  # no sweep state is left on the thread
    # the same phase array serves both lattices: only the stash key tells them apart
    assert terms[heavier, drives[1], 512] is terms[lat, drives[1], 512] is terms[lat, drives[0], 512]
    assert len(calls) == 2 * 3  # 512 and 1024 steps; the last point takes the stash
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_propagators_no_drive_takes_go_when_their_k_task_ends(monkeypatch):
    # the strong omega = 10 drive settles at 2048 steps and forms the 2048-step
    # propagators of the three later drives too; they settle at 1024 and never
    # take them. The stash ends with its block, and the sweep dict keeps phases
    lat = preset("kagome", 15.0)
    drives = [rescale_drive(circular_drive(10.0, 15.0), w) for w in (10.0, 20.0, 40.0, 80.0)]
    k = np.array([0.4, -0.3])
    formed, taken = [], []
    form, take = floquet._run_propagators, floquet._propagator

    def forming(w, V, run, steps):
        formed.append((len(run), steps))
        return form(w, V, run, steps)

    def taking(lattice, drive, k, steps):
        taken.append((drive, steps))
        return take(lattice, drive, k, steps)

    monkeypatch.setattr(floquet, "_run_propagators", forming)
    monkeypatch.setattr(floquet, "_propagator", taking)
    terms = {}
    with floquet._sweep_scope(terms, drives):
        steps = [propagate_period(lat, drive, k).steps for drive in drives]
    assert steps == [2048, 1024, 1024, 1024]
    # 12 formed, 9 taken: the later drives' 2048-step propagators are left over
    assert formed == [(4, 512), (4, 1024), (4, 2048)]
    assert len(taken) == 9 and taken.count((drives[0], 2048)) == 1
    assert not [key for key in terms if len(key) == 4]
    assert not vars(floquet._thread)


def test_the_sambe_matrix_gives_the_propagators_quasienergies():
    # a second route to the exact reference: one eigh in the extended space
    # of time-periodic states, with no integrator, harmonics or model
    rng = np.random.default_rng(40)
    cases = [(preset(name), strong_drive(preset(name), z, omega=10.0))
             for name, z in (("kagome", 2.33), ("lieb", 1.84), ("zigzag", 2.4))]
    for dim in (1, 2, 3, 2):
        cases.append((random_lattice(rng, dim), random_drive(rng, dim, omega=10.0)))
    for lat, drive in cases:
        for _ in range(3):
            k = rng.uniform(-np.pi, np.pi, size=lat.space_dim)
            exact = propagate_period(lat, drive, k).quasienergies
            sambe = sambe_quasienergies(lat, drive, k)
            assert match_distance(sambe, exact, drive.omega) <= 1e-9 * drive.omega, (lat, k)
    with pytest.raises(AssertionError, match=r"M = 8 .* at omega=10, k="):
        sambe_quasienergies(*cases[0], np.array([0.4, -0.3]), max_M=8)


def test_sweeps_on_random_lattices_equal_a_point_by_point_rebuild(monkeypatch):
    # the sharing a doubling grid allows must not depend on the geometry
    rng = np.random.default_rng(21)
    omegas = [10.0, 20.0, 40.0, 80.0]
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "2")
    for dim in (1, 2, 1, 2):
        lat = random_lattice(rng, dim)
        base = random_drive(rng, dim, omega=10.0, scale=1.0)
        ks = [rng.uniform(-np.pi, np.pi, size=dim) for _ in range(2)]

        def family(w, base=base):
            return rescale_drive(base, w)

        want, _ = isolated_errors(lat, family, ks, omegas)
        assert error_matrix(lat, family, ks, omegas).tobytes() == want.tobytes()


def test_random_lattices_scale_as_verify_expects():
    # scaling on arbitrary geometries: with the drive's strength held fixed,
    # the error falls at least as fast as verify's one-sided slopes require
    # (order 1 at most -1.7, order 0 at most -0.7) on random non-Bravais
    # lattices of dimension 1 and 2, over a 2x2 zone grid
    from floquet_forge.cli import EXPECTED_SLOPE, SLOPE_MARGIN

    rng = np.random.default_rng(7)
    omegas = [10.0, 20.0, 40.0, 80.0]
    checked = 0
    for dim in itertools.cycle((1, 2)):
        lat = random_lattice(rng, dim)
        if lat.basis_count < 2:
            continue
        base = random_drive(rng, dim, omega=10.0, scale=8.0)
        errors = scaling_errors(
            lat, lambda w: rescale_drive(base, w), bz_grid(lat, 2), omegas, orders=(0, 1)
        )
        for order, errs in errors.items():
            fit = fit_power_law(omegas, errs)
            assert fit.excluded_omegas.size == 0, (lat, order)
            assert fit.slope <= EXPECTED_SLOPE[order] + SLOPE_MARGIN, (lat, order, fit.slope)
        checked += 1
        if checked == 6:
            break


def test_sweeps_reach_every_propagation_through_propagate_period(monkeypatch):
    # the benchmark counts propagations, resolutions and substeps by wrapping
    # propagate_period and reading its steps and refine: an engine path that
    # bypassed it would zero those counts without failing anything
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)
    signature = inspect.signature(propagate_period)
    calls = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments["steps"], bound.arguments["refine"]))
        return propagate_period(*args, **kwargs)

    monkeypatch.setattr(floquet, "propagate_period", counting)
    ks = [np.array([0.5, 0.0]), np.array([1.5, 0.0]), np.array([0.5, 0.0])]
    omegas = [10.0, 20.0, 30.0, 80.0]
    error_matrix(lat, lambda w: rescale_drive(base, w), ks, omegas)
    assert calls == [(floquet.MIN_STEPS, True)] * (len(omegas) * 2)


def test_bloch_matrices_are_reached_through_the_module_attributes(monkeypatch):
    # the benchmark counts bloch_matrix calls by replacing the function where
    # effective_bloch (effective.bloch_matrix) and the comparison core
    # (floquet.bloch_matrix, for order 0 alone) look it up: a path that held
    # its own reference would zero that count without failing anything.
    # effective_bloch makes one call for both orders, so an order-1 sweep
    # reaches effective.bloch_matrix once per model and an order-0 sweep
    # floquet.bloch_matrix once per model
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)
    model = build_effective_model(lat, base)
    omegas = [10.0, 20.0, 40.0, 80.0]
    assert model.order1

    def sweep(order):
        return lambda: error_matrix(lat, lambda w: rescale_drive(base, w), [[0.5, 0.0]], omegas, order)

    for module, call, count in (
        (effective, lambda: effective_bloch(model, [0.5, 0.0]), 1),
        (effective, sweep(1), 4),
        (floquet, sweep(1), 0),
        (floquet, sweep(0), 4),
        (effective, sweep(0), 0),
    ):
        calls = []

        def counting(*args, calls=calls):
            calls.append(args[1])
            return bloch_matrix(*args)

        with monkeypatch.context() as patch:
            patch.setattr(module, "bloch_matrix", counting)
            call()
        assert len(calls) == count, module.__name__


def test_model_harmonics_are_reached_through_the_module_attribute(monkeypatch):
    # the benchmark's drive.* layer times and counts the harmonics where the
    # model builder looks them up (effective.lattice_harmonics): a shortcut to
    # drive._harmonics_at would zero that layer without failing anything. One
    # call per model, also when it escalates the cutoff
    lat = preset("kagome")
    for drive, cutoff in ((circular_drive(10.0, 15.0), 32), (strong_drive(lat, 30.0), 64)):
        calls = []

        def counting(*args, calls=calls):
            calls.append(args[1])
            return lattice_harmonics(*args)

        with monkeypatch.context() as patch:
            patch.setattr(effective, "lattice_harmonics", counting)
            model = build_effective_model(lat, drive)
        assert calls == [drive] and model.cutoff == cutoff


def test_first_occurrences_compare_bits():
    # the points are read float arrays (k_list of a sweep, a k-path's points)
    def first(points):
        return floquet._first_occurrences([np.array(p, dtype=float) for p in points])

    assert first([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0, 1]]) == [0, 1, 0, 0]
    tiny = np.nextafter(1.0, 2.0)
    assert first([[1.0], [tiny], [1.0], [tiny]]) == [0, 1, 0, 1]
    assert first([[1.0, 2.0], [[1.0, 2.0]]]) == [0, 1]


def test_exact_quasienergies_are_periodic_under_reciprocal_vectors():
    rng = np.random.default_rng(47)
    for name in PRESET_NAMES:
        lat = preset(name)
        drive = random_drive(rng, lat.space_dim, omega=float(rng.uniform(8.0, 15.0)), scale=4.0)
        G = reciprocal_vectors(lat)
        k = rng.normal(size=lat.space_dim)
        want = propagate_period(lat, drive, k).quasienergies
        for shift in (*G, -G.sum(axis=0)):
            got = propagate_period(lat, drive, k + shift).quasienergies
            assert match_distance(got, want, drive.omega) <= 1e-9 * drive.omega, name


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


def test_sweeps_refuse_a_drive_family_that_returns_no_drive():
    # not a bare AttributeError on None.omega, which names no argument
    with pytest.raises(ValidationError, match="^drive_family must return a DriveSpec, got None"):
        error_matrix(preset("chain"), lambda w: None, [[0.1]], [10.0, 20.0, 40.0, 80.0])


def test_a_lattice_without_bonds_is_refused_naming_bonds():
    # a geometry without a bond has no dynamics: it used to give an identity
    # propagator and an empty model that every sweep then refused
    for bonds in ((), []):
        with pytest.raises(ValidationError, match="^bonds must hold at least one bond, got none$"):
            LatticeSpec(1, [[1.0]], [[0.0], [0.5]], bonds)


@pytest.mark.parametrize("name, per_model", [("kagome", 2), ("chain", 2)])
def test_each_sweep_point_builds_its_order_0_bloch_matrix_once(monkeypatch, name, per_model):
    # one Bloch call per requested order per model: order 0 alone, and
    # effective_bloch's one call over both orders, also where order 1 is
    # empty (the chain's); each over the stack of distinct k, every one of
    # them exactly once
    lat = preset(name)
    base = circular_drive(10.0, 15.0) if lat.space_dim == 2 else linear_drive(10.0, [15.0])
    ks = [np.full(lat.space_dim, 0.3), np.full(lat.space_dim, -0.7)]
    omegas = [10.0, 20.0, 40.0, 80.0]
    calls = count_bloch_matrices(monkeypatch)
    scaling_errors(lat, lambda w: rescale_drive(base, w), ks + ks[:1], omegas, orders=(0, 1))
    assert len(calls) == per_model * len(omegas)
    for call in calls:
        assert sorted(row.tobytes() for row in call) == sorted(k.tobytes() for k in ks)


def test_times_must_be_finite():
    # a NaN time would give a NaN matrix, and a NaN probe that no bound can fail
    kagome, drive = preset("kagome"), circular_drive(20.0, 24.0)
    for t in (float("nan"), float("inf"), np.float64("-inf")):
        for call in (
            lambda: bloch_hamiltonian_t(kagome, drive, [0.1, 0.2], t),
            lambda: offset_matrices_at_time(kagome, drive, t),
            lambda: magnus_commutator_probe(kagome, drive, t, 0.2, (2, 2)),
        ):
            with pytest.raises(ValidationError, match="^t must be finite"):
                call()


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
    assert np.all(np.abs(log_residuals(fit)) < 0.5)


def test_scaling_fit_on_gauge_difference():
    """The two gauges' truncated spectra approach each other one order faster
    than either approaches the exact spectrum."""
    lat = preset("zigzag")
    base = circular_drive(10.0, 15.0)

    def family(w):
        return rescale_drive(base, w)

    ks = bz_grid(lat, 8)
    errs = gauge_difference_errors(lat, family, ks, [10.0, 20.0, 40.0, 80.0])
    fit = fit_power_law(np.array([10.0, 20.0, 40.0, 80.0]), errs)
    assert -2.3 < fit.slope < -1.7


def test_lieb_truncation_errors_fall_as_one_and_two_powers_of_omega():
    # the third geometry for the two-sided order-0 target: on Lieb, as on
    # kagome, the first-order term moves the bands at O(1/omega)
    lat = preset("lieb")
    z, bond = 1.2, 0.5
    base = circular_drive(10.0, z * 10.0 / bond)
    omegas = [10.0, 20.0, 40.0, 80.0]
    errs = scaling_errors(lat, lambda w: rescale_drive(base, w), bz_grid(lat, 4), omegas)
    assert -1.3 < fit_power_law(omegas, errs[0]).slope < -0.7
    assert -2.3 < fit_power_law(omegas, errs[1]).slope < -1.7


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


def test_commutator_probe_sums_offset_classes_modulo_the_torus():
    # bit for bit the largest entry of the dense periodized commutator
    # classes of the dict-loop oracle, at every extent from the smallest
    # allowed one, where classes alias, to 6 (4 in 3-D), on the presets and
    # on random lattices in 1 to 3 dimensions; equal times and one-site
    # bases give exact zeros
    rng = np.random.default_rng(18)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(rng, dim) for dim in (3, 2, 1) * 2]
    for lat in lattices:
        reach = max(abs(x) for b in lat.bonds for x in b.cell_offset)
        for i in range(3):
            drive = random_drive(rng, lat.space_dim, omega=float(rng.uniform(4.0, 15.0)))
            t1 = float(rng.uniform(0.0, drive.period))
            t2 = t1 if i == 0 else float(rng.uniform(0.0, drive.period))
            table = offset_dict(commutator_offsets(lat, drive, t1, t2))
            for L in range(max(2 * reach, 1), 7 if lat.dimension < 3 else 5):
                extents = (L,) * lat.dimension
                dense = torus_hamiltonian(table, extents, lat.basis_count)
                want = float(np.abs(dense).max())
                got = magnus_commutator_probe(lat, drive, t1, t2, extents)
                assert got == want
                if t1 == t2 or lat.basis_count == 1:
                    assert got == 0.0


def test_commutator_probe_memory_does_not_grow_with_the_torus():
    # the dense (N d)^2 matrix at (32, 32) took 227 MB; once L >= 4m + 1 no
    # class aliases, so the probe equals the (5, 5) one
    kag = preset("kagome")
    drive = circular_drive(7.0, 5.0)
    small = magnus_commutator_probe(kag, drive, 0.25, 1.4, (5, 5))
    tracemalloc.start()
    try:
        large = magnus_commutator_probe(kag, drive, 0.25, 1.4, (32, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert large == small


def test_commutator_probe_is_finite_near_the_top_of_the_amplitude_range():
    # at |j| = 1.2e154, |j|^2 is finite but the bracket's products overflowed
    # (a numpy warning, or NaN); the blocks are scaled by a power of two, which
    # is exact, so the probe is 2^1200 times that of the lattice 2^600 smaller,
    # to the bit, and a bracket beyond the float range is inf
    drive = circular_drive(7.0, 5.0)
    big = magnus_commutator_probe(preset("kagome", 1.2e154), drive, 0.25, 1.4, (4, 4))
    small = magnus_commutator_probe(preset("kagome", math.ldexp(1.2e154, -600)), drive, 0.25, 1.4, (4, 4))
    assert 1e308 < big < math.inf
    assert big == math.ldexp(small, 1200)
    assert magnus_commutator_probe(preset("kagome"), circular_drive(5.0, 10.0), 0.3, 1.0, (4, 4)) > 1.99
    assert magnus_commutator_probe(preset("kagome", 1.2e154), circular_drive(5.0, 10.0), 0.3, 1.0, (4, 4)) == math.inf


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


def test_offset_matrices_at_time_match_a_dict_loop_on_any_lattice():
    # the package places j e^{i chi} through the pair table's one scatter; the
    # tests' own dict loop, bond by bond, must give the same offsets and bits
    rng = np.random.default_rng(43)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(rng, int(rng.integers(1, 4))) for _ in range(12)]
    for lat in lattices:
        drive = random_drive(rng, lat.space_dim, omega=float(rng.uniform(6.0, 15.0)))
        for t in rng.uniform(0.0, drive.period, size=2):
            chis = [float(phase(drive, lat.displacement(b), float(t))) for b in lat.bonds]
            values = [b.amplitude * np.exp(1j * chi) for b, chi in zip(lat.bonds, chis)]
            want = from_offset_dict(bond_blocks(lat, values))
            got = offset_matrices_at_time(lat, drive, float(t))
            assert [om.offset for om in got] == [om.offset for om in want]
            assert all(g.matrix.tobytes() == w.matrix.tobytes() for g, w in zip(got, want))


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
    monkeypatch.setenv("FLOQUET_FORGE_THREADS", "-1")
    with pytest.raises(ValidationError, match="^FLOQUET_FORGE_THREADS must be >= 0, got -1"):
        thread_count()
