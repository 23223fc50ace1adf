import hashlib

import numpy as np
import pytest

from floquet_forge import (
    PRESET_NAMES,
    Bond,
    DriveSpec,
    EffectiveModel,
    Gauge,
    Harmonic,
    OffsetMatrix,
    ValidationError,
    beta_static_free,
    bloch_hamiltonian_t,
    bloch_matrix,
    build_effective_model,
    circular_drive,
    effective_bloch,
    lattice_harmonics,
    preset,
    reciprocal_vectors,
)
from floquet_forge import effective
from floquet_forge.floquet import offset_matrices_at_time
from floquet_forge.lattice import (
    from_offset_dict,
    offset_dict,
)
from helpers import (
    beta_general,
    bloch_harmonics,
    chiral_two_harmonic,
    composable_pairs,
    is_hermitian_closed_offsets,
    peierls_lattice,
    random_drive,
    random_lattice,
    reference_lattice_harmonics,
    rotation_gap,
    rotation_map,
    strong_drive,
    two_call_effective_bloch,
    two_pass_row_sums,
    two_pass_two_step,
    two_site_chain,
    undriven_offsets,
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


def reference_window(h) -> tuple:
    """(g^n, g^{-n}) for n = 1..cutoff, sliced from the coefficients here,
    independent of the package's ``drive._split``."""
    c, N = h.coefficients, h.cutoff
    return c[N + 1:], c[N - 1::-1]


def reference_gauge_coefficient(h) -> complex:
    n = np.arange(1, h.cutoff + 1)
    pos, neg = reference_window(h)
    return reference_kahan(1j * (neg - pos) / n)


def reference_beta_lines(h1, h2, f1, f2) -> complex:
    """One pair's three-line amplitude, as evaluated before the row kernel."""
    w = h1.omega
    n = np.arange(1, h1.cutoff + 1)
    g1p, g1n = reference_window(h1)
    g2p, g2n = reference_window(h2)
    g1z, g2z = h1.coeff(0), h2.coeff(0)
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    value = reference_kahan((line1 + line2) / (n * w))
    return value + (1j / w) * (f2 * g1z - g2z * f1)


def reference_symmetrize(table: dict, d: int) -> dict:
    """Hermitian closure offset by offset, as it ran before the blocks were
    stacked: 0.5 * (M_o + M_{-o}^H), a missing block counting as zero."""
    offsets = set(table) | {tuple(-x for x in off) for off in table}
    zero = np.zeros((d, d), dtype=complex)
    return {
        off: 0.5 * (table.get(off, zero) + table.get(tuple(-x for x in off), zero).conj().T)
        for off in sorted(offsets)
    }


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
    table = reference_symmetrize(table, d)
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
        G = np.array([harmonics[b].coefficients for b in lat.bonds])
        assert same_bits(model.order0, effective._order0_from_harmonics(lat, G))
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
    kept = build_effective_model(lat, drive, prune_tol=0.0).order1
    assert kept
    # raw accumulation keeps cancellation residue the default prune removes
    raw = offset_dict(kept)
    assert max(abs(raw[o]).max() for o in raw) > 0
    # NaN or a negative value would skip pruning silently and keep every
    # entry; an infinite one is refused as cross_validate and --prune refuse it
    for bad in (float("nan"), -1.0, -np.inf, np.inf):
        with pytest.raises(ValidationError, match=f"^prune_tol must be finite and >= 0, got {bad}"):
            build_effective_model(lat, drive, prune_tol=bad)
    for bad in ("x", None, True):
        with pytest.raises(ValidationError, match="prune_tol must be a real number"):
            build_effective_model(lat, drive, prune_tol=bad)


ROTATIONS = {
    "hexagonal": (3, lambda sites: sites[0]),
    "kagome": (3, lambda sites: sites.mean(axis=0)),  # centre of the basis triangle
    "lieb": (4, lambda sites: sites[0]),
}


@pytest.mark.parametrize("name", ROTATIONS)
def test_order1_rates_keep_the_rotation_symmetry_of_the_presets(name):
    # a circular drive turned by a lattice rotation is the same drive shifted
    # in time, which the static-free order 1 does not see: the emergent rates
    # map onto each other, B[pi(t), pi(s)](o M + n_t - n_s) = B[t, s](o), for
    # every rotation of the point group about the centre
    lat = preset(name)
    turns, centre = ROTATIONS[name]
    blocks = offset_dict(build_effective_model(lat, circular_drive(10.0, 15.0)).order1)
    for k in range(1, turns):
        rotation = rotation_map(lat, 2 * np.pi * k / turns, centre(lat.basis_sites))
        assert rotation_gap(blocks, *rotation) <= 1e-13, (name, k)
    # an elliptic drive is no longer the same under the rotation, and the
    # rates of the two C3 lattices show it (about 5e-2 and 7e-2)
    if turns == 3:
        elliptic = DriveSpec(10.0, (Harmonic(1, [15.0, 0.0], [0.0, 9.0]),))
        broken = offset_dict(build_effective_model(lat, elliptic).order1)
        rotation = rotation_map(lat, 2 * np.pi / turns, centre(lat.basis_sites))
        assert rotation_gap(broken, *rotation) > 1e-2


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


def commutator_order1(Hm, omega, gauge):
    """First-order term of the high-frequency expansion from the Bloch
    harmonics (Eckardt & Anisimovas, New J. Phys. 17, 093039 (2015), t0 = 0):
    (1/w) sum_{m>=1} [H^(m), H^(-m)]/m in the static-free gauge, plus
    (1/w) sum_{m>=1} ([H^(-m), H^(0)] - [H^(m), H^(0)])/m in the Floquet gauge."""
    N = len(Hm) // 2
    H0 = Hm[N]
    total = np.zeros_like(H0)
    for m in range(1, N + 1):
        P, Q = Hm[N + m], Hm[N - m]
        total += (P @ Q - Q @ P) / m
        if gauge is Gauge.FLOQUET:
            total += ((Q @ H0 - H0 @ Q) - (P @ H0 - H0 @ P)) / m
    return total / omega


def test_order1_equals_the_k_space_commutator_sums_in_both_gauges():
    """An independent route to the first-order model: no pair table, no
    two-step amplitudes, only Bloch harmonics and commutators. Random
    lattices reach pairs that no preset has."""
    rng = np.random.default_rng(81)
    shapes = np.random.default_rng(82)
    lattices = {name: preset(name) for name in PRESET_NAMES}
    lattices.update((f"random {n}", random_lattice(shapes, 1 + n % 3)) for n in range(6))
    for name, lat in lattices.items():
        for _ in range(2):
            drive = random_drive(rng, lat.space_dim)
            ks = rng.uniform(-np.pi, np.pi, size=(3, lat.space_dim))
            tol = 1e-12 * lat.amplitude_scale() ** 2 / drive.omega
            for gauge in Gauge:
                model = build_effective_model(lat, drive, gauge)
                for k, Hm in zip(ks, bloch_harmonics(lat, drive, ks)):
                    H0 = bloch_matrix(model.order0, k, model.bravais_vectors)
                    assert np.abs(H0 - Hm[len(Hm) // 2]).max() <= tol, (name, gauge)
                    shift = effective_bloch(model, k) - H0
                    want = commutator_order1(Hm, drive.omega, gauge)
                    assert np.abs(shift - want).max() <= tol, (name, gauge)


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
            (g1p, g1n), (g2p, g2n) = reference_window(h1), reference_window(h2)
            assert fast.tobytes() == reference_kahan(
                (g1n * g2p - g2n * g1p) / (np.arange(1, h1.cutoff + 1) * h1.omega)
            ).tobytes()
            assert fast + beta_static_free(h2, h1) == 0.0
        for b1, b2 in composable_pairs(lat)[:4]:
            h1, h2 = table[b1], table[b2]
            for gauge, f1, f2 in ((Gauge.STATIC_FREE, f[b1], f[b2]), (Gauge.FLOQUET, 0j, 0j)):
                got = beta_general(lat, drive, gauge, b1, b2).value
                assert got.tobytes() == reference_beta_lines(h1, h2, f1, f2).tobytes()
        # the whole pair table through the one-pass sum, against the two
        # passes (bond rows' gauge terms, then pair rows) it replaced
        G = np.array([table[b].coefficients for b in lat.bonds])
        pairs = lat._pairs
        for gauge in Gauge:
            got = effective._two_step(G, pairs.first, pairs.second, drive.omega, gauge)
            want = two_pass_two_step(G, pairs.first, pairs.second, drive.omega, gauge)
            assert got.tobytes() == want.tobytes(), (name, gauge)
    # blocks of any row count, each summed as if alone
    for rows in ((1,), (3, 5), (2, 0, 7)):
        blocks = [
            rng.normal(size=(r, 33)) * 10.0 ** rng.uniform(-8, 2, size=(r, 33))
            + 1j * rng.normal(size=(r, 33))
            for r in rows
        ]
        want = np.concatenate([two_pass_row_sums(b) for b in blocks])
        assert effective._row_sums(*blocks).tobytes() == want.tobytes()


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
    for bad in ("magnus", 3, None, Gauge):
        with pytest.raises(ValidationError, match="gauge"):
            build_effective_model(lat, drive, bad)
        with pytest.raises(ValidationError, match="gauge"):
            build_effective_model(lat, drive, bad, prune_tol=0.0)


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


def model_drives(dim):
    """{name: drive} with ``dim`` Cartesian components: a circular drive and a
    two-harmonic one (the first ``dim`` components of the planar ones)."""
    return {
        "circular": DriveSpec(12.0, (Harmonic(1, [15.0, 0.0][:dim], [0.0, 15.0][:dim]),)),
        "two-harmonic": DriveSpec(20.0, (
            Harmonic(1, [5.0, 1.0][:dim], [0.5, 4.0][:dim]),
            Harmonic(2, [1.5, -2.0][:dim], [3.0, 0.7][:dim]),
        )),
    }


def _model_digest(model) -> str:
    """SHA-256 over a model's cutoff and, per order, its count, offsets and block bytes."""
    h = hashlib.sha256(repr(model.cutoff).encode())
    for order in (model.order0, model.order1):
        h.update(repr(len(order)).encode())
        for o in order:
            h.update(repr(o.offset).encode())
            h.update(o.matrix.tobytes())
    return h.hexdigest()


MODEL_DIGESTS = {
    ("chain", "circular", "floquet"): "4deafeddfe66608db4d30a212b065c8a19c483f42b5b79238054a2244d595bfa",
    ("chain", "circular", "static-free"): "4deafeddfe66608db4d30a212b065c8a19c483f42b5b79238054a2244d595bfa",
    ("chain", "two-harmonic", "floquet"): "166ebf030c57ce7a182352f172f50fd803224d67b05b3991808cc1f75d88df23",
    ("chain", "two-harmonic", "static-free"): "166ebf030c57ce7a182352f172f50fd803224d67b05b3991808cc1f75d88df23",
    ("hexagonal", "circular", "floquet"): "3699a1c8d5ee5cd710bb7af81d2d8fd0062cfd95c6294312b923066ebb83ad8c",
    ("hexagonal", "circular", "static-free"): "6e616ae849a11040a01776a53d08913c2fc40ed09edc5f6cd23b1df9af111dac",
    ("hexagonal", "two-harmonic", "floquet"): "e00297d3cf7b346459e8770cbdea1bb2a8e2f6f06ac93d2045d6027301725f3b",
    ("hexagonal", "two-harmonic", "static-free"): "7766b9072f0fbf8dd95532e658ef8129c6876c2eaf13b54cf67da694e2d17079",
    ("kagome", "circular", "floquet"): "e17d3777817a4834755eb91f48365a2a76d3b8e73b1d6859069e973a9cbec8f9",
    ("kagome", "circular", "static-free"): "22084c75bbc526602c1699a704f903a763447bfcb0defe0ffa8e5d67cf01300a",
    ("kagome", "two-harmonic", "floquet"): "33eedaa8f1e36007cf8c861f5bd3011045eb05cdada41f36451baf2a91c6036a",
    ("kagome", "two-harmonic", "static-free"): "5b7d22b3eaa6ca3d86bf821cf4cfc98e6999766735ec440ba673daaeab519d04",
    ("lieb", "circular", "floquet"): "9d429c600ae346ee7b8d94e79f8e4cb28ebd81edda2d3ced43047dc0e14cb462",
    ("lieb", "circular", "static-free"): "df9de036e85c5c99f24db3229442d0a4286be4dfafa328afa0931156b067dd50",
    ("lieb", "two-harmonic", "floquet"): "c6702fbdd52bb42fdacafa5696abd2b881179ff2df98669ef4ec01ed9a706ee0",
    ("lieb", "two-harmonic", "static-free"): "b428af5b54707cf910ab180a5b3266724a42a3a5eb380a9dfe9729dd3158da1a",
    ("triangular", "circular", "floquet"): "c703310fa19587961674cb48db646e24cd501c3c1b20cf9b0c45ae3d75296891",
    ("triangular", "circular", "static-free"): "c703310fa19587961674cb48db646e24cd501c3c1b20cf9b0c45ae3d75296891",
    ("triangular", "two-harmonic", "floquet"): "2adb1d884e537e03f677d7b5742116785f487ce0e1d646bf02a1d86e967a955a",
    ("triangular", "two-harmonic", "static-free"): "2adb1d884e537e03f677d7b5742116785f487ce0e1d646bf02a1d86e967a955a",
    ("zigzag", "circular", "floquet"): "44ab1ef355209fbc8c7b0d77e22ffd8a16d7c59e8f07c27d5f3afbd11d4e9f8d",
    ("zigzag", "circular", "static-free"): "e6a4cd7074eae5e3292fc7f21bc1da2b4e348905287560f9922b896704e0eaf1",
    ("zigzag", "two-harmonic", "floquet"): "e25398f9b38c130970656406e10096fa374effad3cd2df8f138b9c8433c54cc1",
    ("zigzag", "two-harmonic", "static-free"): "dfa0167a63db7c50d1dbdca9eec0902111eaae19425b52f27fa0171c4c2b28b5",
}


@pytest.mark.parametrize("name, drive, gauge", sorted(MODEL_DIGESTS))
def test_models_keep_their_bits(name, drive, gauge):
    # the builder's output is pinned to the bit on every preset, so a change
    # in its assembly, closure or pruning that moves any block fails here
    lat = preset(name)
    model = build_effective_model(lat, model_drives(lat.space_dim)[drive], Gauge(gauge))
    assert _model_digest(model) == MODEL_DIGESTS[name, drive, gauge]


def test_package_built_blocks_keep_the_public_contract():
    # both orders and offset_matrices_at_time make their blocks unchecked
    # (OffsetMatrix._trusted); each block is what the public constructor makes
    # of it, to the bit, and neither it nor the stack it views can be written
    rng = np.random.default_rng(59)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(rng, dim) for dim in (1, 1, 2, 2, 3, 3)]
    for n, lat in enumerate(lattices):
        drives = [random_drive(rng, lat.space_dim)]
        if n < len(PRESET_NAMES):
            drives.append(strong_drive(lat, 30.0))
            assert build_effective_model(lat, drives[-1]).cutoff == 64, lat
        blocks = []
        for drive in drives:
            for gauge in Gauge:
                model = build_effective_model(lat, drive, gauge)
                blocks += model.order0 + model.order1
            blocks += offset_matrices_at_time(lat, drive, 0.3 * drive.period)
        for om in blocks:
            again = OffsetMatrix(om.offset, om.matrix)
            assert type(om.offset) is tuple and all(type(x) is int for x in om.offset)
            assert again.offset == om.offset and again.matrix.tobytes() == om.matrix.tobytes()
            assert om.matrix.dtype == np.complex128 and om.matrix.shape == (lat.basis_count,) * 2
            assert not om.matrix.flags.writeable and not om.matrix.base.flags.writeable


def test_effective_bloch_has_the_bits_of_one_call_per_order():
    # one bloch_matrix call over both orders keeps the bits of the two
    # single-set calls it replaced, added in order, on every preset (order 1
    # empty on the Bravais ones) and on random lattices, for one k, a stack
    # and a stack with a repeated k
    rng = np.random.default_rng(51)
    shapes = np.random.default_rng(53)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(shapes, dim) for dim in (1, 1, 2, 2, 3, 3)]
    for n, lat in enumerate(lattices):
        drives = model_drives(lat.space_dim).values() if n < len(PRESET_NAMES) else [random_drive(rng, lat.space_dim)]
        ks = rng.normal(scale=3.0, size=(5, lat.space_dim))
        for drive in drives:
            for gauge in Gauge:
                model = build_effective_model(lat, drive, gauge)
                for k in (ks[0], ks, ks[[0, 3, 1, 3]]):
                    want = two_call_effective_bloch(model, k)
                    got = effective_bloch(model, k)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()
