"""Acceptance suite: one test per shipped guarantee.

Every test prints (and registers for the terminal summary) a single line
stating what was measured against which tolerance, so a full run reads as a
checklist. Randomized checks use fixed seeds.
"""

import numpy as np
import pytest
from scipy.special import jv

from floquet_forge import (
    Bond,
    Gauge,
    beta_static_free,
    build_effective_model,
    bz_grid,
    circular_drive,
    cross_validate,
    effective_bloch,
    enumerate_processes,
    fit_power_law,
    fold,
    lattice_harmonics,
    linear_drive,
    magnus_commutator_probe,
    match_distance,
    preset,
    propagate_period,
    rescale_drive,
    scaling_errors,
    CouplingClass,
)
from floquet_forge.floquet import offset_matrices_at_time
from floquet_forge.lattice import bloch_matrix, offset_dict
from helpers import (
    beta_general,
    chiral_two_harmonic,
    composable_pairs,
    gauge_difference_errors,
    random_drive,
    random_offset_matrices,
    torus_hamiltonian,
    translational_identity_check,
)

DRIVE_Z = 1.5
ZIGZAG_BOND = np.sqrt(0.5)
KAGOME_BOND = 0.5
SWEEP = np.array([10.0, 20.0, 40.0, 80.0])


def circular_family(bond_length):
    """Circular drive with the dimensionless strength z = f0 * bond_length /
    omega held at DRIVE_Z across the frequency sweep."""
    base_w = 10.0
    base = circular_drive(base_w, DRIVE_Z * base_w / bond_length)

    def family(w):
        return rescale_drive(base, w)

    return family


def first_order_shift(lat, family, ks):
    """max over k of the matched distance between the order-0 and the
    order-0+1 spectra, per sweep frequency: how strongly the first-order term
    moves the bands, built from the model's order0/order1 with no propagation."""
    out = np.zeros(len(SWEEP))
    for iw, w in enumerate(SWEEP):
        drive = family(w)
        model = build_effective_model(lat, drive)
        H0, H1 = model.order0, model.order1
        for k in ks:
            h0 = bloch_matrix(H0, k, lat.bravais_vectors)
            h1 = h0 + bloch_matrix(H1, k, lat.bravais_vectors)
            dist = match_distance(np.linalg.eigvalsh(h0), np.linalg.eigvalsh(h1), w)
            out[iw] = max(out[iw], dist)
    return out


def test_criterion_1_bravais_first_order_vanishes(acceptance_record):
    """One-point-basis lattices: first order vanishes and the leading term
    alone already reproduces the exact quasienergies."""
    rng = np.random.default_rng(101)
    tol_entry = 1e-12
    worst_entry = 0.0
    worst_match = 0.0
    for name in ("chain", "triangular"):
        lat = preset(name)
        for _ in range(20):
            drive = random_drive(rng, lat.space_dim, omega=4.0 * lat.amplitude_scale())
            scale = lat.amplitude_scale() ** 2 / drive.omega
            model = build_effective_model(lat, drive, prune_tol=0.0)
            for om in model.order1:
                worst_entry = max(worst_entry, float(np.abs(om.matrix).max()) / scale)
            H0 = model.order0
            for _ in range(2):
                k = rng.normal(size=lat.space_dim)
                spec = propagate_period(lat, drive, k)
                bands = np.linalg.eigvalsh(bloch_matrix(H0, k, lat.bravais_vectors))
                dist = match_distance(spec.quasienergies, bands, drive.omega) / drive.omega
                worst_match = max(worst_match, dist)
    ok = worst_entry < tol_entry and worst_match < 1e-9
    acceptance_record(
        f"criterion 1 (Bravais first order vanishes): {'PASS' if ok else 'FAIL'} - "
        f"max |B| = {worst_entry:.2e} (tol 1e-12 * |j|^2/omega); "
        f"quasienergy vs order0 at omega=4|j|: {worst_match:.2e} (tol 1e-9 * omega)"
    )
    assert worst_entry < tol_entry
    assert worst_match < 1e-9


def test_criterion_2_swap_antisymmetry(acceptance_record):
    """Two-step amplitudes flip sign under hop order reversal, and the
    general three-line form collapses to the fast path without a static
    gauge component."""
    rng = np.random.default_rng(102)
    names = ("chain", "triangular", "zigzag", "hexagonal", "kagome", "lieb")
    worst_anti = 0.0
    worst_gap = 0.0
    for _ in range(200):
        lat = preset(str(rng.choice(names)))
        drive = random_drive(rng, lat.space_dim)
        scale = lat.amplitude_scale() ** 2 / drive.omega
        table = lattice_harmonics(lat, drive)
        pairs = composable_pairs(lat)
        b1, b2 = pairs[int(rng.integers(len(pairs)))]
        fwd = beta_static_free(table[b1], table[b2])
        rev = beta_static_free(table[b2], table[b1])
        worst_anti = max(worst_anti, abs(fwd + rev) / scale)
        gen = beta_general(lat, drive, Gauge.STATIC_FREE, b1, b2).value
        worst_gap = max(worst_gap, abs(gen - fwd))
    ok = worst_anti < 1e-12 and worst_gap < 1e-12
    acceptance_record(
        f"criterion 2 (swap antisymmetry, 200 samples): {'PASS' if ok else 'FAIL'} - "
        f"max |beta_ij + beta_ji| = {worst_anti:.2e} (tol 1e-12 * |j|^2/omega); "
        f"general vs fast path gap = {worst_gap:.2e} (tol 1e-12)"
    )
    assert worst_anti < 1e-12
    assert worst_gap < 1e-12


def test_criterion_3_zigzag_block_structure(acceptance_record):
    """Emergent zig-zag matrices are diagonal with sign-flipped entries, and
    the off-diagonal rate equals the standalone two-step amplitude."""
    lat = preset("zigzag")
    drive = chiral_two_harmonic(20.0)
    scale = lat.amplitude_scale() ** 2 / drive.omega
    tol = 1e-12 * scale
    table = offset_dict(build_effective_model(lat, drive, prune_tol=0.0).order1)
    B0, B1 = table[(0,)], table[(1,)]
    offdiag = max(abs(B0[0, 1]), abs(B0[1, 0]), abs(B1[0, 1]), abs(B1[1, 0]))
    pairing = max(abs(B0[0, 0] + B0[1, 1]), abs(B1[0, 0] + B1[1, 1]))
    standalone = beta_general(
        lat, drive, Gauge.STATIC_FREE, Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), -1.0)
    ).value
    gap = abs(B1[0, 0] - standalone)
    nonvacuous = abs(B0[0, 0]) > 1e3 * tol and abs(B1[0, 0]) > 1e3 * tol
    ok = offdiag < tol and pairing < tol and gap < tol and nonvacuous
    acceptance_record(
        f"criterion 3 (zig-zag diagonal blocks): {'PASS' if ok else 'FAIL'} - "
        f"off-diagonal {offdiag:.2e}, (b,-b) pairing {pairing:.2e}, "
        f"standalone-amplitude gap {gap:.2e} (all tol {tol:.2e})"
    )
    assert offdiag < tol
    assert pairing < tol
    assert gap < tol
    assert nonvacuous


def test_criterion_4_kagome_block_structure(acceptance_record):
    """Kagome: same-sublattice rates cancel destructively (pruned to exact
    zero) and the four distinct blocks carry the expected sparsity pattern
    with conjugation and minus-sign relations between them."""
    lat = preset("kagome")
    drive = circular_drive(20.0, 24.0)
    scale = lat.amplitude_scale() ** 2 / drive.omega
    tol = 1e-12 * scale
    table = offset_dict(build_effective_model(lat, drive).order1)
    B0 = table[(0, 0)]
    B1, B2, B3 = table[(-1, 1)], table[(0, -1)], table[(1, 0)]

    diag_zero = all(B0[i, i] == 0 for i in range(3))
    patterns = {
        "B1": (B1, {(0, 2), (1, 0), (1, 2)}),
        "B2": (B2, {(1, 0), (2, 0), (2, 1)}),
        "B3": (B3, {(0, 1), (0, 2), (2, 1)}),
    }
    pattern_ok = all(
        all(
            (abs(M[i, j]) > 100 * tol) == ((i, j) in live)
            for i in range(3)
            for j in range(3)
            if i != j
        )
        and all(M[i, i] == 0 for i in range(3))
        for M, live in patterns.values()
    )
    b0_full = all(abs(B0[i, j]) > 100 * tol for i in range(3) for j in range(3) if i != j)
    relations = max(
        abs(B3[0, 1] + B0[1, 0]),
        abs(B1[1, 2] + B0[2, 1]),
        abs(B2[2, 0] + B0[0, 2]),
        abs(B2[1, 0] + np.conj(B1[1, 0])),
        abs(B3[2, 1] + np.conj(B2[2, 1])),
        abs(B1[0, 2] + np.conj(B3[0, 2])),
    )
    ok = diag_zero and pattern_ok and b0_full and relations < tol
    acceptance_record(
        f"criterion 4 (kagome destructive interference): {'PASS' if ok else 'FAIL'} - "
        f"same-sublattice entries exactly zero: {diag_zero}; sparsity patterns: "
        f"{pattern_ok}; cross-block sign/conjugation relations {relations:.2e} (tol {tol:.2e})"
    )
    assert diag_zero
    assert b0_full
    assert pattern_ok
    assert relations < tol


def test_criterion_5_lieb_selection(acceptance_record):
    """Lieb lattice: the only symmetry-allowed first-order couplings connect
    the two edge-centre sublattices, and computed models agree."""
    lat = preset("lieb")
    report = enumerate_processes(lat)
    finite = {
        (c.source_basis, c.target_basis, c.offset)
        for c in report.couplings
        if c.verdict is CouplingClass.POTENTIALLY_FINITE
    }
    want_12 = {(1, 2, off) for off in ((0, -1), (0, 0), (1, -1), (1, 0))}
    want = want_12 | {(2, 1, (-o1, -o2)) for _, _, (o1, o2) in want_12}
    exact = finite == want
    rng = np.random.default_rng(105)
    consistent = True
    for _ in range(20):
        model = build_effective_model(lat, random_drive(rng, 2))
        verdict = cross_validate(report, model, strict=False)
        consistent = consistent and verdict.consistent
    ok = exact and consistent
    acceptance_record(
        f"criterion 5 (Lieb selection rules): {'PASS' if ok else 'FAIL'} - "
        f"potentially-finite couplings exactly the edge-to-edge set: {exact}; "
        f"cross-validation over 20 random drives: {consistent}"
    )
    assert exact
    assert consistent


def test_criterion_6_frequency_scaling(acceptance_record):
    """Quasienergy error of the truncated effective model across a frequency
    sweep at fixed drive strength. Truncating at order n bounds the error by
    O(omega^-(n+1)): order 0 alone falls at least as 1/omega, order 0+1 as
    1/omega^2. Zig-zag is held to the order-0 bound, kagome to slope -1."""
    zz = preset("zigzag")
    zz_family = circular_family(ZIGZAG_BOND)
    zz_ks = bz_grid(zz, 16)
    zz_errs = scaling_errors(zz, zz_family, zz_ks, SWEEP, orders=(0, 1))
    kg = preset("kagome")
    kg_family = circular_family(KAGOME_BOND)
    kg_ks = bz_grid(kg, 3)
    kg_errs = scaling_errors(kg, kg_family, kg_ks, SWEEP, orders=(0, 1))
    # Zig-zag: every first-order block is traceless diagonal, diag(b, -b),
    # while the order-0 Bloch matrix is purely off-diagonal, so the first-order
    # term moves the bands only at O(1/omega^2) and the order-0 error falls as
    # 1/omega^2 as well. Only the one-sided bound that `verify` applies
    # (slope <= -1 + 0.3) is promised there. On kagome the first-order term
    # moves the bands at O(1/omega), so the order-0 slope must reach -1.
    rows = [
        ("zig-zag order0-only", zz_errs[0], None, -0.7),
        ("zig-zag order0+order1", zz_errs[1], -2.3, -1.7),
        ("zig-zag first-order shift", first_order_shift(zz, zz_family, zz_ks), -2.3, -1.7),
        ("kagome order0-only", kg_errs[0], -1.3, -0.7),
        ("kagome order0+order1", kg_errs[1], -2.3, -1.7),
        ("kagome first-order shift", first_order_shift(kg, kg_family, kg_ks), -1.3, -0.7),
    ]
    measured = []
    for label, errors, lo, hi in rows:
        slope = fit_power_law(SWEEP, errors).slope
        if lo is None:
            ok, target = slope <= hi, f"bound <= {hi:g}"
        else:
            ok, target = lo < slope < hi, f"target {(lo + hi) / 2:g} +- {(hi - lo) / 2:g}"
        measured.append((f"{label} slope {slope:.3f}", target, ok))
    acceptance_record(
        f"criterion 6 (frequency scaling, z = {DRIVE_Z}): "
        f"{'PASS' if all(ok for *_, ok in measured) else 'FAIL'} - "
        + "; ".join(
            f"{text} ({target}: {'ok' if ok else 'MISSED'})" for text, target, ok in measured
        )
    )
    missed = [f"{text} ({target})" for text, target, ok in measured if not ok]
    assert not missed, "; ".join(missed)


def test_criterion_7_gauge_spectral_agreement(acceptance_record):
    """The two gauge choices change the truncated matrices at first order but
    their spectra agree one order better."""
    lat = preset("zigzag")
    family = circular_family(ZIGZAG_BOND)
    ks = bz_grid(lat, 16)
    errs = gauge_difference_errors(lat, family, ks, SWEEP)
    fit = fit_power_law(SWEEP, errs)
    ok = -2.3 < fit.slope < -1.7
    acceptance_record(
        f"criterion 7 (gauge spectral agreement): {'PASS' if ok else 'FAIL'} - "
        f"spectral gap slope {fit.slope:.3f} (target -2 +- 0.3)"
    )
    assert ok


def test_criterion_8_dynamic_suppression(acceptance_record):
    """At the first root of the zeroth Bessel function the renormalized
    tunneling collapses and the band goes flat."""
    lat = preset("chain")
    omega, z = 10.0, 2.4048
    drive = linear_drive(omega, [z * omega])
    g0 = abs(offset_dict(build_effective_model(lat, drive).order0)[(1,)][0, 0])
    quasis = [
        propagate_period(lat, drive, k).quasienergies[0] for k in bz_grid(lat, 16)
    ]
    bandwidth = max(quasis) - min(quasis)
    ok = g0 < 1e-3 and bandwidth < 0.02 * 4.0
    acceptance_record(
        f"criterion 8 (dynamic suppression at z = {z}): {'PASS' if ok else 'FAIL'} - "
        f"|g0|/|j| = {g0:.2e} (tol 1e-3); quasienergy bandwidth {bandwidth:.2e} "
        f"(tol 0.08 = 2% of the undriven bandwidth)"
    )
    assert g0 < 1e-3
    assert bandwidth < 0.02 * 4.0


def test_criterion_9_translation_identities(acceptance_record):
    """Offset-class algebra: the two-sided product sum equals the commutator
    sum on a torus; the probe is exactly zero for one-point bases and
    generically finite on the kagome lattice."""
    rng = np.random.default_rng(109)
    worst_identity = 0.0
    for _ in range(10):
        dim = int(rng.integers(1, 3))
        block = int(rng.integers(1, 4))
        C = random_offset_matrices(rng, dim, block)
        D = random_offset_matrices(rng, dim, block)
        worst_identity = max(worst_identity, translational_identity_check(C, D, (4,) * dim))

    kag = preset("kagome")
    drive = circular_drive(7.0, 5.0)
    t1, t2, extents = 0.25, 1.4, (4, 4)
    probe = magnus_commutator_probe(kag, drive, t1, t2, extents)
    A = torus_hamiltonian(offset_dict(offset_matrices_at_time(kag, drive, t1)), extents, 3)
    B = torus_hamiltonian(offset_dict(offset_matrices_at_time(kag, drive, t2)), extents, 3)
    route_gap = abs(probe - float(np.abs(A @ B - B @ A).max()))

    chain_probe = magnus_commutator_probe(
        preset("chain"), random_drive(rng, 1), 0.2, 1.1, (5,)
    )
    tri_probe = magnus_commutator_probe(
        preset("triangular"), random_drive(rng, 2), 0.4, 0.9, (4, 4)
    )
    ok = (
        worst_identity < 1e-12
        and route_gap < 1e-12
        and chain_probe == 0.0
        and tri_probe == 0.0
        and probe > 1e-3
    )
    acceptance_record(
        f"criterion 9 (translation identities): {'PASS' if ok else 'FAIL'} - "
        f"identity deviation {worst_identity:.2e} (tol 1e-12); two-route probe gap "
        f"{route_gap:.2e} (tol 1e-12); one-point-basis probes exactly zero: "
        f"{chain_probe == 0.0 and tri_probe == 0.0}; kagome probe {probe:.3f} > 0"
    )
    assert worst_identity < 1e-12
    assert route_gap < 1e-12
    assert chain_probe == 0.0 and tri_probe == 0.0
    assert probe > 1e-3


def test_criterion_10_harmonic_engine(acceptance_record):
    """Fourier engine: certified Parseval closure and Bessel-weight harmonics
    for monochromatic drives up to z = 4, |n| <= 16."""
    lat = preset("chain")
    worst_parseval = 0.0
    worst_bessel = 0.0
    for z in (0.25, 1.0, 2.0, 3.0, 4.0):
        omega = 9.0
        drive = linear_drive(omega, [z * omega])
        h = lattice_harmonics(lat, drive)[lat.bonds[0]]
        power = float(np.sum(np.abs(h.coefficients) ** 2))
        worst_parseval = max(worst_parseval, abs(power - 1.0))
        for n in range(-16, 17):
            worst_bessel = max(worst_bessel, abs(abs(h.coeff(n)) - abs(jv(n, z))))
    rng = np.random.default_rng(110)
    for _ in range(5):
        drive = random_drive(rng, 2, max_harmonics=3)
        zig = preset("zigzag")
        for h in lattice_harmonics(zig, drive).values():
            power = float(np.sum(np.abs(h.coefficients) ** 2))
            worst_parseval = max(worst_parseval, abs(power - 1.0))
    ok = worst_parseval < 1e-10 and worst_bessel < 1e-10
    acceptance_record(
        f"criterion 10 (harmonic engine): {'PASS' if ok else 'FAIL'} - "
        f"Parseval closure {worst_parseval:.2e} (tol 1e-10 relative); "
        f"Bessel-weight agreement {worst_bessel:.2e} (tol 1e-10, |n| <= 16, z <= 4)"
    )
    assert worst_parseval < 1e-10
    assert worst_bessel < 1e-10
