import numpy as np
import pytest

from floquet_forge import (
    PRESET_NAMES,
    Bond,
    EffectiveModel,
    Gauge,
    OffsetMatrix,
    ValidationError,
    beta_general,
    beta_static_free,
    bloch_hamiltonian_t,
    bloch_matrix,
    build_effective_model,
    circular_drive,
    effective_bloch,
    lattice_harmonics,
    preset,
    reciprocal_vectors,
    undriven_offsets,
)
from floquet_forge import effective
from floquet_forge.lattice import from_offset_dict, is_hermitian_closed_offsets, offset_dict
from helpers import (
    chiral_two_harmonic,
    composable_pairs,
    peierls_lattice,
    random_drive,
    reference_lattice_harmonics,
    strong_drive,
    two_site_chain,
)


def reference_kahan(values) -> complex:
    """The scalar compensated sum the row kernel replaced."""
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def reference_gauge_coefficient(h) -> complex:
    n = np.arange(1, h.cutoff + 1)
    return reference_kahan(1j * (h.negative() - h.positive()) / n)


def reference_beta_lines(h1, h2, f1, f2) -> complex:
    """One pair's three-line amplitude, as evaluated before the row kernel."""
    w = h1.omega
    n = np.arange(1, h1.cutoff + 1)
    g1p, g1n = h1.positive(), h1.negative()
    g2p, g2n = h2.positive(), h2.negative()
    g1z, g2z = h1.coeff(0), h2.coeff(0)
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    value = reference_kahan((line1 + line2) / (n * w))
    return value + (1j / w) * (f2 * g1z - g2z * f1)


def reference_order1(lattice, harmonics, gauge, omega, prune_tol) -> tuple:
    """The per-pair double loop over composable bonds that order 1 ran before
    the pair table; the row kernel must reproduce it bit for bit."""
    d = lattice.basis_count
    if gauge is Gauge.STATIC_FREE:
        f = {b: reference_gauge_coefficient(harmonics[b]) for b in lattice.bonds}
    else:
        f = {b: 0.0 + 0.0j for b in lattice.bonds}
    table = {}
    for b1 in lattice.bonds:
        for b2 in lattice.bonds:
            if b2.source_basis != b1.target_basis:
                continue
            off = tuple(x + y for x, y in zip(b1.cell_offset, b2.cell_offset))
            m = table.setdefault(off, np.zeros((d, d), dtype=complex))
            m[b2.target_basis, b1.source_basis] += reference_beta_lines(
                harmonics[b1], harmonics[b2], f[b1], f[b2]
            )
    table = effective._symmetrize(table, d)
    threshold = prune_tol * lattice.amplitude_scale() ** 2 / omega
    pruned = {}
    for off, m in table.items():
        m = np.where(np.abs(m) < threshold, 0.0, m) if threshold > 0 else m
        if np.any(m != 0):
            pruned[off] = m
    return from_offset_dict(pruned)


def same_bits(got, want) -> bool:
    return [om.offset for om in got] == [om.offset for om in want] and all(
        g.matrix.tobytes() == w.matrix.tobytes() for g, w in zip(got, want)
    )


def assert_model_matches_reference(lat, drive, cutoff=None):
    harmonics = reference_lattice_harmonics(lat, drive, cutoff)
    used = next(iter(harmonics.values())).cutoff
    for gauge in Gauge:
        model = build_effective_model(lat, drive, gauge, cutoff)
        assert model.cutoff == used
        assert same_bits(model.order0, effective._order0_from_harmonics(lat, harmonics))
        for prune_tol in (effective.DEFAULT_PRUNE_TOL, 0.0):
            want = reference_order1(lat, harmonics, gauge, drive.omega, prune_tol)
            got = build_effective_model(lat, drive, gauge, cutoff, prune_tol).order1
            assert same_bits(got, want)
    return used


def magnus_first_two(lattice, drive, k, n=96):
    """(Omega1 + Omega2)/T of the one-period evolution by Gauss-Legendre
    quadrature: an effective Hamiltonian route that never touches the
    harmonic-series formulas."""
    T = drive.period
    x, wts = np.polynomial.legendre.leggauss(n)
    t1 = 0.5 * T * (x + 1.0)
    w1 = 0.5 * T * wts
    H1 = np.array([bloch_hamiltonian_t(lattice, drive, k, t) for t in t1])
    avg = np.einsum("i,iab->ab", w1, H1) / T
    acc = np.zeros_like(avg)
    for i in range(n):
        t2 = 0.5 * t1[i] * (x + 1.0)
        w2 = 0.5 * t1[i] * wts
        H2 = np.array([bloch_hamiltonian_t(lattice, drive, k, t) for t in t2])
        inner = np.einsum("j,jab->ab", w2, H2)
        acc += w1[i] * (H1[i] @ inner - inner @ H1[i])
    return avg - 0.5j * acc / T


def test_gauge_parse():
    assert Gauge.parse("floquet") is Gauge.FLOQUET
    assert Gauge.parse("static-free") is Gauge.STATIC_FREE
    with pytest.raises(ValidationError):
        Gauge.parse("covariant")


def test_gauge_parse_passes_a_gauge_through_and_refuses_non_names():
    for g in Gauge:
        assert Gauge.parse(g) is g
    assert Gauge.parse(" Static-Free ") is Gauge.STATIC_FREE
    for bad in (3, None, Gauge, b"floquet"):
        with pytest.raises(ValidationError, match="gauge"):
            Gauge.parse(bad)


def test_two_step_amplitude_is_exactly_antisymmetric():
    """Swapping hop order negates the fast-path amplitude bit for bit."""
    rng = np.random.default_rng(8)
    lat = preset("kagome")
    drive = random_drive(rng, 2)
    table = lattice_harmonics(lat, drive)
    for b1, b2 in composable_pairs(lat)[:10]:
        fwd = beta_static_free(table[b1], table[b2])
        rev = beta_static_free(table[b2], table[b1])
        assert fwd + rev == 0.0


def test_general_form_reduces_to_fast_path_in_static_free_gauge():
    rng = np.random.default_rng(9)
    lat = preset("zigzag")
    drive = random_drive(rng, 2)
    table = lattice_harmonics(lat, drive)
    scale = lat.amplitude_scale() ** 2 / drive.omega
    for b1, b2 in composable_pairs(lat)[:6]:
        got = beta_general(lat, drive, Gauge.STATIC_FREE, b1, b2)
        want = beta_static_free(table[b1], table[b2])
        assert abs(got.value - want) < 1e-14 * scale
        assert np.allclose(got.a_i, lat.displacement(b1))
        assert np.allclose(got.a_j, lat.displacement(b2))
        assert got.intermediate_basis == b1.target_basis


def test_beta_rejects_non_composable_bonds():
    lat = preset("kagome")
    drive = circular_drive(10.0, 5.0)
    b1 = lat.bonds[0]
    bad = next(b for b in lat.bonds if b.source_basis != b1.target_basis)
    with pytest.raises(ValidationError):
        beta_general(lat, drive, Gauge.STATIC_FREE, b1, bad)


def test_order0_matches_time_average():
    """order0 is the plain time average of the driven Bloch Hamiltonian."""
    rng = np.random.default_rng(10)
    lat = preset("lieb")
    drive = random_drive(rng, 2, omega=11.0)
    k = rng.normal(size=2)
    H0 = bloch_matrix(build_effective_model(lat, drive).order0, k, lat.bravais_vectors)
    n = 4096
    t = (np.arange(n) + 0.5) * drive.period / n
    avg = sum(bloch_hamiltonian_t(lat, drive, k, s) for s in t) / n
    assert np.max(np.abs(H0 - avg)) < 1e-10


def test_order0_keeps_undriven_sparsity():
    lat = preset("kagome")
    drive = circular_drive(9.0, 4.0)
    bare = offset_dict(undriven_offsets(lat))
    renorm = offset_dict(build_effective_model(lat, drive).order0)
    assert set(bare) == set(renorm)
    for off, m in bare.items():
        assert np.all((m == 0) == (renorm[off] == 0))


def test_bravais_first_order_is_pruned_away():
    rng = np.random.default_rng(12)
    for name in ("chain", "triangular"):
        lat = preset(name)
        drive = random_drive(rng, lat.space_dim)
        assert build_effective_model(lat, drive).order1 == ()


def test_first_order_is_hermitian_closed():
    rng = np.random.default_rng(13)
    for name in ("zigzag", "kagome", "lieb"):
        lat = preset(name)
        drive = random_drive(rng, 2)
        offs = build_effective_model(lat, drive).order1
        assert is_hermitian_closed_offsets(offs, tol=1e-12)


def test_prune_tolerance_scales_the_cut():
    lat = preset("kagome")
    drive = circular_drive(12.0, 8.0)
    assert build_effective_model(lat, drive, prune_tol=np.inf).order1 == ()
    kept = build_effective_model(lat, drive, prune_tol=0.0).order1
    assert kept
    # raw accumulation keeps cancellation residue the default prune removes
    raw = offset_dict(kept)
    assert max(abs(raw[o]).max() for o in raw) > 0


def test_zigzag_first_order_blocks_are_diagonal():
    lat = preset("zigzag")
    drive = chiral_two_harmonic()
    table = offset_dict(build_effective_model(lat, drive).order1)
    assert set(table) == {(-1,), (0,), (1,)}
    for off, m in table.items():
        assert m[0, 1] == 0 and m[1, 0] == 0
        assert np.isclose(m[0, 0], -m[1, 1])
    b1 = beta_general(lat, drive, Gauge.STATIC_FREE, Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), -1.0))
    assert np.isclose(table[(1,)][0, 0], b1.value, atol=1e-15)


def test_floquet_gauge_matches_magnus_exactly():
    """order0+order1 in the gauge anchored at t=0 IS the first two Magnus
    terms of the period propagator, so the harmonic-sum route must agree with
    brute-force nested quadrature at machine precision; the static-free gauge
    differs from those terms by O(1/omega^2)."""
    lat = preset("zigzag")
    k = np.array([0.7, 0.0])
    sf_gaps = []
    for w in (40.0, 80.0):
        drive = chiral_two_harmonic(w)
        want = magnus_first_two(lat, drive, k)
        model = build_effective_model(lat, drive, Gauge.FLOQUET)
        assert np.max(np.abs(effective_bloch(model, k) - want)) < 1e-13
        sf = build_effective_model(lat, drive, Gauge.STATIC_FREE)
        sf_gaps.append(np.max(np.abs(effective_bloch(sf, k) - want)))
    ratio = sf_gaps[0] / sf_gaps[1]
    assert 2.5 < ratio < 6.5


def test_static_free_differs_from_floquet_gauge_at_first_order():
    lat = preset("kagome")
    drive = circular_drive(15.0, 10.0)
    a = build_effective_model(lat, drive, Gauge.STATIC_FREE).order1
    b = build_effective_model(lat, drive, Gauge.FLOQUET).order1
    da, db = offset_dict(a), offset_dict(b)
    assert set(da) == set(db)
    assert max(np.abs(da[o] - db[o]).max() for o in da) > 1e-6


def test_effective_bloch_is_hermitian():
    rng = np.random.default_rng(14)
    lat = preset("kagome")
    model = build_effective_model(lat, random_drive(rng, 2))
    for _ in range(4):
        H = effective_bloch(model, rng.normal(size=2))
        assert np.max(np.abs(H - H.conj().T)) < 1e-14


def test_model_records_escalated_cutoff():
    from floquet_forge import DriveSpec, Harmonic

    lat = two_site_chain()
    # z = 40 on the longer bond overflows the default 32-harmonic window
    drive = DriveSpec(3.0, (Harmonic(1, [200.0], [0.0]),))
    model = build_effective_model(lat, drive)
    assert model.cutoff > 32
    assert model.gauge is Gauge.STATIC_FREE
    assert model.omega == 3.0


def test_models_match_the_per_pair_reference_bit_for_bit():
    rng = np.random.default_rng(71)
    for name in PRESET_NAMES:
        lat = preset(name)
        for _ in range(5):
            assert assert_model_matches_reference(lat, random_drive(rng, lat.space_dim)) == 32


def test_strong_and_explicit_cutoff_models_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(72)
    for name in PRESET_NAMES:
        lat = preset(name)
        assert assert_model_matches_reference(lat, strong_drive(lat, 30.0)) == 64
        assert assert_model_matches_reference(lat, random_drive(rng, lat.space_dim), 128) == 128


def test_complex_amplitude_models_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(73)
    for name, A in (("kagome", [0.7, -1.3]), ("lieb", [0.4, 0.9]), ("zigzag", [1.1, 0.2])):
        lat = peierls_lattice(preset(name), A)
        assert any(b.amplitude.imag != 0 for b in lat.bonds)
        assert assert_model_matches_reference(lat, random_drive(rng, 2)) == 32
        assert assert_model_matches_reference(lat, strong_drive(lat, 30.0)) == 64


def test_two_step_amplitudes_match_the_reference_and_stay_antisymmetric():
    rng = np.random.default_rng(74)
    for name in PRESET_NAMES:
        lat = preset(name)
        drive = random_drive(rng, lat.space_dim)
        table = reference_lattice_harmonics(lat, drive)
        f = {b: reference_gauge_coefficient(h) for b, h in table.items()}
        for b1, b2 in composable_pairs(lat):
            h1, h2 = table[b1], table[b2]
            fast = beta_static_free(h1, h2)
            assert fast.tobytes() == reference_kahan(
                (h1.negative() * h2.positive() - h2.negative() * h1.positive())
                / (np.arange(1, h1.cutoff + 1) * h1.omega)
            ).tobytes()
            assert fast + beta_static_free(h2, h1) == 0.0
        for b1, b2 in composable_pairs(lat)[:4]:
            h1, h2 = table[b1], table[b2]
            for gauge, f1, f2 in ((Gauge.STATIC_FREE, f[b1], f[b2]), (Gauge.FLOQUET, 0j, 0j)):
                got = beta_general(lat, drive, gauge, b1, b2).value
                assert got.tobytes() == reference_beta_lines(h1, h2, f1, f2).tobytes()


def test_gauge_names_are_parsed_and_other_values_refused():
    lat = preset("kagome")
    drive = circular_drive(12.0, 28.8)
    for name, gauge in (("static-free", Gauge.STATIC_FREE), ("Floquet", Gauge.FLOQUET)):
        by_name = build_effective_model(lat, drive, name)
        assert by_name.gauge is gauge
        assert same_bits(by_name.order1, build_effective_model(lat, drive, gauge).order1)
        assert same_bits(
            build_effective_model(lat, drive, name, prune_tol=0.0).order1,
            build_effective_model(lat, drive, gauge, prune_tol=0.0).order1,
        )
    b1, b2 = composable_pairs(lat)[0]
    assert beta_general(lat, drive, "static-free", b1, b2).value == beta_general(
        lat, drive, Gauge.STATIC_FREE, b1, b2
    ).value
    for bad in ("magnus", 3, None, Gauge):
        with pytest.raises(ValidationError, match="gauge"):
            build_effective_model(lat, drive, bad)
        with pytest.raises(ValidationError, match="gauge"):
            build_effective_model(lat, drive, bad, prune_tol=0.0)
        with pytest.raises(ValidationError, match="gauge"):
            beta_general(lat, drive, bad, b1, b2)


def test_effective_models_are_periodic_and_hermitian_closed():
    rng = np.random.default_rng(75)
    for name in PRESET_NAMES:
        lat = preset(name)
        G = reciprocal_vectors(lat)
        for _ in range(2):
            drive = random_drive(rng, lat.space_dim)
            for gauge in Gauge:
                model = build_effective_model(lat, drive, gauge)
                assert is_hermitian_closed_offsets(model.order0, tol=0.0)
                if model.order1:
                    assert is_hermitian_closed_offsets(model.order1, tol=0.0)
                tol = 1e-12 * lat.amplitude_scale()
                for k in rng.normal(scale=2.0, size=(4, lat.space_dim)):
                    shift = G.T @ rng.integers(-3, 4, size=lat.dimension)
                    H = effective_bloch(model, k)
                    assert np.abs(effective_bloch(model, k + shift) - H).max() <= tol
