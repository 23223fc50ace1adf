import numpy as np
import pytest

from floquet_forge import (
    Bond,
    ConsistencyError,
    CouplingClass,
    EffectiveModel,
    Gauge,
    LatticeSpec,
    OffsetMatrix,
    ProcessClass,
    ValidationError,
    build_effective_model,
    close_hermitian,
    cross_validate,
    enumerate_processes,
    preset,
)
from helpers import random_drive


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
    spec = close_hermitian(
        LatticeSpec(
            1,
            [[1.0]],
            [[0.0], [0.5]],
            (Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), 0.7)),
        )
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
