import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from floquet_forge import (
    PRESET_NAMES,
    Bond,
    ConsistencyError,
    CouplingClass,
    DriveSpec,
    EffectiveModel,
    Gauge,
    Harmonic,
    LatticeSpec,
    OffsetMatrix,
    ProcessClass,
    ValidationError,
    build_effective_model,
    circular_drive,
    cross_validate,
    enumerate_processes,
    preset,
)
from floquet_forge import selection
from floquet_forge.lattice import offset_dict
from helpers import ROTATIONS, random_drive, random_lattice, rotation_map


def verdicts(report):
    return {(c.source_basis, c.target_basis, c.offset): c.verdict for c in report.couplings}


def finite_keys(report):
    return {
        key for key, v in verdicts(report).items() if v is CouplingClass.POTENTIALLY_FINITE
    }


def test_bravais_lattices_have_no_surviving_process():
    for name in ("chain", "triangular"):
        report = enumerate_processes(preset(name))
        assert report.couplings  # processes exist, they just all cancel
        assert finite_keys(report) == set()
        for p in report.processes:
            assert p.klass is not ProcessClass.POTENTIALLY_FINITE


def test_double_hop_along_one_bond_is_self_cancelled():
    report = enumerate_processes(preset("chain"))
    doubled = [
        p for p in report.processes if p.total_offset == (2,)
    ]
    assert doubled and all(p.klass is ProcessClass.FORCED_ZERO_SELF for p in doubled)


def test_retraced_hop_counts_as_its_own_reverse():
    report = enumerate_processes(preset("chain"))
    retraced = [p for p in report.processes if p.total_offset == (0,)]
    assert retraced
    for p in retraced:
        assert np.allclose(np.asarray(p.a_j), -np.asarray(p.a_i))
        assert p.klass is ProcessClass.FORCED_ZERO_SELF


def test_zigzag_survivors_are_intra_sublattice():
    report = enumerate_processes(preset("zigzag"))
    assert finite_keys(report) == {
        (0, 0, (-1,)), (0, 0, (0,)), (0, 0, (1,)),
        (1, 1, (-1,)), (1, 1, (0,)), (1, 1, (1,)),
    }


def test_kagome_survivors_are_inter_sublattice():
    report = enumerate_processes(preset("kagome"))
    fin = finite_keys(report)
    assert len(fin) == 24
    assert all(s != t for s, t, _ in fin)
    zeros = verdicts(report)
    forced = {k for k, v in zeros.items() if v is CouplingClass.FORCED_ZERO}
    assert len(forced) == 15
    assert all(s == t for s, t, _ in forced)


def test_lieb_finite_couplings_are_edge_to_edge_only():
    """Next-nearest tunneling emerges only between the two edge-centre sites."""
    report = enumerate_processes(preset("lieb"))
    want_12 = {(1, 2, off) for off in ((0, -1), (0, 0), (1, -1), (1, 0))}
    want_21 = {(2, 1, tuple(-x for x in off)) for _, _, off in want_12}
    assert finite_keys(report) == want_12 | want_21


def test_couplings_list_only_reachable_pairs():
    report = enumerate_processes(preset("zigzag"))
    for c in report.couplings:
        assert c.processes
        for p in c.processes:
            assert (p.source_basis, p.target_basis, p.total_offset) == (
                c.source_basis, c.target_basis, c.offset,
            )
    survivors = [p for c in report.couplings for p in c.survivors()]
    assert all(p.klass is ProcessClass.POTENTIALLY_FINITE for p in survivors)


def test_same_displacement_different_amplitude_is_refused():
    spec = LatticeSpec(
        1,
        [[1.0]],
        [[0.0], [0.5]],
        (Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), 0.7)),
    )
    with pytest.raises(ValidationError, match="displacement"):
        enumerate_processes(spec)


def test_cross_validate_accepts_computed_models():
    rng = np.random.default_rng(21)
    for name in ("zigzag", "kagome", "lieb"):
        lat = preset(name)
        report = enumerate_processes(lat)
        model = build_effective_model(lat, random_drive(rng, 2))
        verdict = cross_validate(report, model)
        assert verdict.consistent and not verdict.violations


def test_cross_validate_flags_a_doctored_model():
    lat = preset("kagome")
    report = enumerate_processes(lat)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 0.05  # diagonal entries are forced zero on the kagome lattice
    model = EffectiveModel(
        order0=(),
        order1=(OffsetMatrix((0, 0), bad),),
        gauge=Gauge.STATIC_FREE,
        omega=20.0,
        bravais_vectors=lat.bravais_vectors,
        amplitude_scale=1.0,
        cutoff=32,
    )
    with pytest.raises(ConsistencyError):
        cross_validate(report, model)
    verdict = cross_validate(report, model, strict=False)
    assert not verdict.consistent
    assert any("(0, 0)" in v for v in verdict.violations)


def test_cross_validate_flags_a_nan_forced_zero_block():
    lat = preset("kagome")
    report = enumerate_processes(lat)
    bad = np.full((3, 3), np.nan, dtype=complex)
    model = EffectiveModel(
        order0=(),
        order1=(OffsetMatrix((0, 0), bad),),
        gauge=Gauge.STATIC_FREE,
        omega=20.0,
        bravais_vectors=lat.bravais_vectors,
        amplitude_scale=1.0,
        cutoff=32,
    )
    verdict = cross_validate(report, model, strict=False)
    assert not verdict.consistent
    assert any("(0, 0)" in v for v in verdict.violations)
    with pytest.raises(ConsistencyError):
        cross_validate(report, model)


def test_cross_validate_at_zero_prune_tol_tolerates_only_rounding_noise():
    lat = preset("lieb")
    report = enumerate_processes(lat)
    # order 1 leaves |B| ~ 1e-35 in a forced-zero coupling of this model
    model = build_effective_model(lat, circular_drive(20.0, 24.0), prune_tol=0.0)
    assert cross_validate(report, model, prune_tol=0.0).consistent
    # an entry far above rounding but far below the default threshold still fails
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 0] = 1e-12 * model.amplitude_scale**2 / model.omega
    doctored = EffectiveModel(
        order0=model.order0,
        order1=(OffsetMatrix((0, 0), bad),),
        gauge=model.gauge,
        omega=model.omega,
        bravais_vectors=model.bravais_vectors,
        amplitude_scale=model.amplitude_scale,
        cutoff=model.cutoff,
    )
    assert cross_validate(report, doctored).consistent
    verdict = cross_validate(report, doctored, prune_tol=0.0, strict=False)
    assert not verdict.consistent and "0->0 at offset (0, 0)" in verdict.violations[0]


def test_cross_validate_refuses_a_prune_tol_that_is_not_finite_and_non_negative():
    lat = preset("lieb")
    model = build_effective_model(lat, random_drive(np.random.default_rng(3), 2, omega=15.0))
    report = enumerate_processes(lat)
    assert cross_validate(report, model, prune_tol=0.5).consistent
    for bad in (np.inf, -1.0, np.nan, "x", None, True):
        with pytest.raises(ValidationError, match="prune_tol"):
            cross_validate(report, model, prune_tol=bad)


def test_repeat_enumeration_returns_the_cached_read_only_report():
    lat = preset("kagome")
    report = enumerate_processes(lat)
    assert enumerate_processes(lat) is report
    for p in report.processes:
        for a in (p.a_i, p.a_j):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


def test_refused_specs_raise_again_on_a_repeat_call():
    mixed = LatticeSpec(
        1, [[1.0]], [[0.0], [0.5]], (Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), 0.7))
    )
    for _ in range(2):
        with pytest.raises(ValidationError, match="displacement"):
            enumerate_processes(mixed)


def test_report_and_pair_caches_stay_bounded_under_threads():
    # more lattices than report cache entries, through more workers than
    # cores with rapid thread switches: every report and model equals the
    # serial reference
    names = ("zigzag", "kagome", "lieb")
    count = 3 * selection._process_report.cache_info().maxsize
    lattices = [preset(names[i % 3]) for i in range(count)]
    drive = random_drive(np.random.default_rng(5), 2)

    def task(lat):
        report = enumerate_processes(lat)
        model = build_effective_model(lat, drive)
        verdicts = [(c.source_basis, c.target_basis, c.offset, c.verdict)
                    for c in report.couplings]
        return verdicts, [om.matrix.tobytes() for om in model.order1]

    want = [task(preset(names[i % 3])) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(task, lattices, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # each lattice keeps its own pair table; the reports are the cache left
    info = selection._process_report.cache_info()
    assert 0 < info.currsize <= info.maxsize == 8


def generic_drive(rng, lat, omega=10.0):
    """Harmonics m = 1, 2, 3, each with random cos and sin directions, a
    random phase and a strength of 1-2 omega over the longest bond: no
    symmetry of the drive sends a coupling to zero."""
    reach = max(np.linalg.norm(lat.displacement(b)) for b in lat.bonds)
    harmonics = []
    for m in (1, 2, 3):
        u, v = rng.normal(size=(2, lat.space_dim))
        f, phi = rng.uniform(1.0, 2.0) * omega / reach, rng.uniform(0.0, 2.0 * np.pi)
        harmonics.append(Harmonic(m, f * np.cos(phi) * u / np.linalg.norm(u),
                                  f * np.sin(phi) * v / np.linalg.norm(v)))
    return DriveSpec(omega, tuple(harmonics))


def test_every_potentially_finite_coupling_is_finite_under_a_generic_drive():
    # converse of the forward test: a classifier that calls a coupling
    # potentially finite must see it reach 1e-6 |j|^2 / omega under at least
    # one of three generic drives, on the presets and on random lattices
    rng = np.random.default_rng(27)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(rng, 1 + n % 3) for n in range(30)]
    checked = refused = 0
    for lat in lattices:
        try:
            finite = finite_keys(enumerate_processes(lat))
        except ValidationError as error:
            assert "amplitude is not a function of displacement" in str(error)
            refused += 1
            continue
        largest = dict.fromkeys(finite, 0.0)
        for _ in range(3):
            drive = generic_drive(rng, lat)
            scale = lat.amplitude_scale() ** 2 / drive.omega
            for off, m in offset_dict(build_effective_model(lat, drive, prune_tol=0).order1).items():
                for key in largest:
                    if key[2] == off:
                        largest[key] = max(largest[key], abs(m[key[1], key[0]]) / scale)
        assert all(v >= 1e-6 for v in largest.values()), [k for k, v in largest.items() if v < 1e-6]
        checked += len(largest)
    assert refused and checked > 300


def test_report_and_order1_read_the_same_pair_table():
    rng = np.random.default_rng(31)
    checked = 0
    for name in PRESET_NAMES:
        lat = preset(name)
        report = enumerate_processes(lat)
        assert len(report.processes) == len(lat._pairs.first)
        finite = finite_keys(report)
        for gauge in Gauge:
            blocks = build_effective_model(lat, random_drive(rng, lat.space_dim), gauge).order1
            for off, m in offset_dict(blocks).items():
                for t, s in zip(*np.nonzero(m)):
                    assert (int(s), int(t), off) in finite
                    checked += 1
    assert checked > 0


def test_random_lattices_keep_every_forced_zero_or_are_refused_by_name():
    # forward: no coupling that geometry forces to zero carries order 1 on
    # any geometry; Bravais: one site per cell leaves order 1 empty; a spec
    # whose amplitude is no function of the displacement is refused, naming
    # the two bonds that share one
    rng = np.random.default_rng(26)
    refused = bravais = 0
    for n in range(30):
        dim = 1 + n % 3
        lat = random_lattice(rng, dim)
        try:
            report = enumerate_processes(lat)
        except ValidationError as error:
            clashes = [
                (b1, b2)
                for i, b1 in enumerate(lat.bonds)
                for b2 in lat.bonds[i + 1 :]
                if np.allclose(lat.displacement(b1), lat.displacement(b2)) and b1.amplitude != b2.amplitude
            ]
            assert any(b1._label() in str(error) and b2._label() in str(error) for b1, b2 in clashes)
            refused += 1
            continue
        for gauge in Gauge:
            model = build_effective_model(lat, random_drive(rng, dim), gauge)
            assert cross_validate(report, model, strict=True).consistent
            if lat.basis_count == 1:
                assert model.order1 == ()
                bravais += 1
    assert refused and bravais


def rotation_mismatches(lattice, site, shift, M) -> list:
    """The couplings (s, t, o) of ``lattice`` whose image under a rotation,
    (site[s], site[t], o @ M + shift[t] - shift[s]), is missing or differs
    in verdict or in the multiset of its process classes."""
    classes = {
        (c.source_basis, c.target_basis, c.offset): (c.verdict, Counter(p.klass for p in c.processes))
        for c in enumerate_processes(lattice).couplings
    }
    bad = []
    for (s, t, o), value in classes.items():
        image = (site[s], site[t], tuple((np.array(o) @ M + shift[t] - shift[s]).tolist()))
        if classes.get(image) != value:
            bad.append((s, t, o))
    return bad


@pytest.mark.parametrize("name", ROTATIONS)
def test_rotation_related_couplings_are_classified_alike(name):
    # geometry alone decides the classification, so a rotation of the
    # lattice onto itself maps each coupling onto one with the same verdict
    # and the same process classes
    lat = preset(name)
    turns, centre = ROTATIONS[name]
    assert enumerate_processes(lat).couplings
    for k in range(1, turns):
        rotation = rotation_map(lat, 2 * np.pi * k / turns, centre(lat.basis_sites))
        assert rotation_mismatches(lat, *rotation) == [], (name, k)


def test_a_lattice_without_the_rotation_symmetry_shows_mismatched_couplings():
    # kagome without its bond pair 0 <- 1 at (1, 0): the rotation still maps
    # the sites onto themselves, but not the bonds, and the check sees it
    kagome = preset("kagome")
    dropped = {(0, 1, (1, 0)), (1, 0, (-1, 0))}
    bonds = [b for b in kagome.bonds if (b.target_basis, b.source_basis, b.cell_offset) not in dropped]
    assert len(bonds) == len(kagome.bonds) - 2
    lat = LatticeSpec(2, kagome.bravais_vectors, kagome.basis_sites, bonds)
    count = len(enumerate_processes(lat).couplings)
    for k in (1, 2):
        rotation = rotation_map(lat, 2 * np.pi * k / 3, lat.basis_sites.mean(axis=0))
        # 12 of the 27 couplings at each turn
        assert len(rotation_mismatches(lat, *rotation)) > count // 3, k
