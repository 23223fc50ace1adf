import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from floquet_forge import (
    PRESET_NAMES,
    Bond,
    DriveSpec,
    Gauge,
    Geometry,
    Harmonic,
    LatticeSpec,
    OffsetMatrix,
    ValidationError,
    beta_static_free,
    bloch_hamiltonian_t,
    bloch_matrix,
    build_effective_model,
    bz_grid,
    circular_drive,
    classify_geometry,
    cross_validate,
    effective_bloch,
    enumerate_processes,
    error_matrix,
    fit_power_law,
    fold,
    lattice_harmonics,
    linear_drive,
    magnus_commutator_probe,
    match_distance,
    match_permutation,
    named_kpath,
    phase,
    preset,
    propagate_period,
    quasienergies_from_propagator,
    reciprocal_vectors,
    scaling_errors,
)
from floquet_forge import lattice
from floquet_forge.floquet import offset_matrices_at_time
from floquet_forge.lattice import (
    _PairTable,
    from_offset_dict,
    offset_dict,
)
from floquet_forge.serialization import json_text
from helpers import (
    composable_pairs,
    is_hermitian_closed_offsets,
    random_drive,
    random_lattice,
    random_offset_matrices,
    translational_identity_check,
    undriven_offsets,
)


def reference_bloch(offsets, k, bravais_vectors):
    """The per-offset loop ``bloch_matrix`` evaluated before its offset
    stack was cached; the cached form must reproduce it bit for bit."""
    table = offset_dict(offsets)
    A = np.atleast_2d(np.asarray(bravais_vectors, dtype=float))
    k = np.asarray(k, dtype=float)
    d = next(iter(table.values())).shape[0]
    H = np.zeros((d, d), dtype=complex)
    for off, m in sorted(table.items()):
        R = np.asarray(off, dtype=float) @ A
        H = H + np.exp(1j * float(k @ R)) * m
    return H


def test_bond_normalizes_and_validates():
    b = Bond(1, 0, [2, -1], -1)
    assert b.cell_offset == (2, -1)
    assert isinstance(b.amplitude, complex)
    with pytest.raises(ValidationError):
        Bond(-1, 0, (0,), 1.0)
    with pytest.raises(ValidationError):
        Bond(1, 0, (0,), 0.0)
    # a zero-displacement self-loop is an on-site energy, not a tunneling bond
    with pytest.raises(ValidationError):
        Bond(0, 0, (0, 0), 1.0)


def test_integer_fields_refuse_bools_and_non_integers():
    for build in (
        lambda: Bond(True, 0, (1,), -1.0),
        lambda: Bond(0, 1.5, (1,), -1.0),
        lambda: Bond(0, 0, (1.5,), -1.0),
        lambda: Bond(0, 0, (np.True_,), -1.0),
        lambda: LatticeSpec(True, [[1.0]], [[0.0]], ()),
        lambda: LatticeSpec(1.0, [[1.0]], [[0.0]], ()),
    ):
        with pytest.raises(ValidationError, match="must be an integer"):
            build()
    # numpy integers are integers, stored as plain ints
    b = Bond(np.int64(1), np.int32(0), (np.int64(-1),), -1.0)
    assert [type(x) for x in (b.target_basis, b.source_basis, *b.cell_offset)] == [int] * 3
    assert type(LatticeSpec(np.int64(1), [[1.0]], [[0.0]], ()).dimension) is int


KAGOME = preset("kagome")
CHAIN = preset("chain")
DRIVE = circular_drive(20.0, 24.0)
OMEGAS = [10.0, 20.0, 40.0, 80.0]


def _chain_family(w):
    return linear_drive(w, [w])


CHAIN_OFFSETS = undriven_offsets(CHAIN)
KAGOME_MODEL = build_effective_model(KAGOME, DRIVE)


# every integer argument the package reads, by the field its message names
INTEGER_ARGUMENTS = {
    "cutoff": lambda v: lattice_harmonics(KAGOME, DRIVE, cutoff=v),
    "steps": lambda v: propagate_period(KAGOME, DRIVE, [0.1, 0.2], steps=v),
    "order": lambda v: error_matrix(CHAIN, _chain_family, [[0.1]], OMEGAS, order=v),
    "orders entry": lambda v: scaling_errors(CHAIN, _chain_family, [[0.1]], OMEGAS, orders=(0, v)),
    "per_segment": lambda v: named_kpath(preset("lieb"), "GX", v),
    "per_axis": lambda v: bz_grid(KAGOME, v),
    "offset entry": lambda v: OffsetMatrix((v, 0), np.eye(2)),
    "torus extent": lambda v: magnus_commutator_probe(KAGOME, DRIVE, 0.1, 0.2, (v, 4)),
}


@pytest.mark.parametrize("value", [0.5, True])
@pytest.mark.parametrize("field", INTEGER_ARGUMENTS)
def test_every_integer_argument_refuses_bools_and_non_integers(field, value):
    # one rule, lattice._integer: no argument truncates 0.5 to 0 or reads True as 1
    with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
        INTEGER_ARGUMENTS[field](value)


# every real or complex argument the package reads: (the field its message
# names, a call that puts the value in that field)
REAL_ARGUMENTS = {
    "bond amplitude": ("bond amplitude", lambda v: Bond(0, 0, (1,), v)),
    "bravais_vectors": ("bravais_vectors", lambda v: LatticeSpec(1, [v], [[0.0]], ())),
    "basis_sites": ("basis_sites", lambda v: LatticeSpec(1, [[1.0]], [v], ())),
    "cos_amplitude": ("cos_amplitude", lambda v: Harmonic(1, [v], [0.0])),
    "sin_amplitude": ("sin_amplitude", lambda v: Harmonic(1, [0.0], [v])),
    "offset matrix": (r"offset \(0,\): matrix", lambda v: OffsetMatrix((0,), [[v]])),
    "preset amplitude": ("bond amplitude", lambda v: preset("chain", v)),
    "f0": ("f0", lambda v: circular_drive(10.0, v)),
    "linear amplitude": ("amplitude", lambda v: linear_drive(10.0, [v])),
    "k": ("k", lambda v: propagate_period(KAGOME, DRIVE, [v, 0.2])),
    "sweep k": ("k", lambda v: error_matrix(CHAIN, _chain_family, [[v]], OMEGAS)),
    "sweep omega": (
        "omegas entry",
        lambda v: scaling_errors(CHAIN, _chain_family, [[0.1]], [v, 20.0, 40.0, 80.0]),
    ),
    "t": ("t", lambda v: bloch_hamiltonian_t(KAGOME, DRIVE, [0.1, 0.2], v)),
    "offsets t": ("t", lambda v: offset_matrices_at_time(KAGOME, DRIVE, v)),
    "omega": ("omega", lambda v: DriveSpec(v, ())),
    "fold values": ("values", lambda v: fold([1.5, v], 10.0)),
    "match_permutation a": ("a", lambda v: match_permutation([v, 0.2], [0.1, 0.2], 10.0)),
    "match_permutation b": ("b", lambda v: match_permutation([0.1, 0.2], [0.1, v], 10.0)),
    "match_distance a": ("a", lambda v: match_distance([v, 0.2], [0.1, 0.2], 10.0)),
    "match_distance b": ("b", lambda v: match_distance([0.1, 0.2], [0.1, v], 10.0)),
    "propagator": ("U", lambda v: quasienergies_from_propagator([[v]], 10.0)),
    "phase a": ("a", lambda v: phase(DRIVE, [v, 0.0], 0.1)),
    "phase t": ("t", lambda v: phase(DRIVE, [1.0, 0.0], [0.1, v])),
    "bloch bravais_vectors": ("bravais_vectors", lambda v: bloch_matrix(CHAIN_OFFSETS, [0.1], [[v]])),
    "bloch k": ("k", lambda v: bloch_matrix(CHAIN_OFFSETS, [v], [[1.0]])),
    "effective k": ("k", lambda v: effective_bloch(KAGOME_MODEL, [0.1, v])),
    "fit omegas": (
        "omegas",
        lambda v: fit_power_law([v, 20.0, 40.0, 80.0], [1.0, 0.5, 0.25, 0.125]),
    ),
    "fit errors": (
        "errors",
        lambda v: fit_power_law([10.0, 20.0, 40.0, 80.0], [v, 0.5, 0.25, 0.125]),
    ),
}


@pytest.mark.parametrize("value", [True, "1", np.array([True])], ids=["True", "str", "bool array"])
@pytest.mark.parametrize("argument", REAL_ARGUMENTS)
def test_every_real_argument_refuses_bools_and_strings(argument, value):
    # one type test, lattice._numbers (_real is its 0-d case): no argument reads True as 1 or "1" as 1.0
    field, call = REAL_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=rf"\b{field} must be [a-z ]*numbers?, got"):
        call(value)


def test_numpy_scalars_and_numeric_arrays_are_read_as_numbers():
    assert Bond(0, 0, (1,), np.int64(-1)).amplitude == -1
    assert Bond(0, 0, (1,), np.float32(0.5)).amplitude == 0.5
    assert Bond(0, 0, (1,), np.complex128(1 - 2j)).amplitude == 1 - 2j
    assert preset("chain", np.float32(-0.5)).bonds[0].amplitude == -0.5
    lat = LatticeSpec(1, np.array([[2]]), np.array([[0.0], [0.5]], dtype=np.float32), ())
    assert lat.bravais_vectors.tolist() == [[2.0]] and lat.basis_sites.tolist() == [[0.0], [0.5]]
    h = Harmonic(1, np.array([1, 2]), [np.float32(0.5), np.int64(3)])
    assert h.cos_amplitude.tolist() == [1.0, 2.0] and h.sin_amplitude.tolist() == [0.5, 3.0]
    assert OffsetMatrix((0,), np.eye(2, dtype=int)).matrix.tolist() == np.eye(2).tolist()
    assert circular_drive(10.0, np.int64(3)).harmonics[0].cos_amplitude.tolist() == [3.0, 0.0]
    assert linear_drive(10.0, np.array([2])).harmonics[0].cos_amplitude.tolist() == [2.0]
    # the widest integers numpy holds, read as floats
    assert DriveSpec(2**64 - 1, ()).omega == float(2**64 - 1)
    assert circular_drive(10.0, -(2**63)).harmonics[0].cos_amplitude.tolist() == [-(2.0**63), 0.0]
    # the same bits as from plain floats
    H = bloch_hamiltonian_t(KAGOME, DRIVE, np.array([1, 0]), np.float32(0.25))
    assert np.array_equal(H, bloch_hamiltonian_t(KAGOME, DRIVE, [1.0, 0.0], 0.25))
    got = error_matrix(CHAIN, _chain_family, np.array([[0]]), np.array([10, 20, 40, 80]))
    assert np.array_equal(got, error_matrix(CHAIN, _chain_family, [[0.0]], OMEGAS))


UNREPRESENTABLE = {
    "bond amplitude": lambda v: Bond(0, 0, (1,), v),
    "f0": lambda v: circular_drive(10.0, v),
    "omega": lambda v: DriveSpec(v, ()),
    "values": lambda v: fold([v], 10.0),
}


@pytest.mark.parametrize(
    "value",
    [10**30, Fraction(1, 2), 10**400, 2**64, -(2**63) - 1],
    ids=["1e30", "Fraction", "1e400", "2**64", "-2**63-1"],
)
@pytest.mark.parametrize("field", UNREPRESENTABLE)
def test_numbers_numpy_cannot_hold_are_refused_alike(field, value):
    # beyond 64 bits or not a numpy number at all: one refusal everywhere,
    # never a bare OverflowError from float()
    with pytest.raises(ValidationError, match=rf"^{field} must be (a )?(real|complex) numbers?, got"):
        UNREPRESENTABLE[field](value)
    with pytest.raises(ValidationError, match="^omega must be a real number, got"):
        fold([1.0], value)


SEQUENCE_ARGUMENTS = {
    "bond cell_offset": lambda: Bond(0, 0, 5, 1.0),
    "bonds": lambda: LatticeSpec(1, [[1.0]], [[0.0]], 5),
    "harmonics": lambda: DriveSpec(10.0, 5),
    "offset": lambda: OffsetMatrix(3, [[1.0]]),
    "torus": lambda: magnus_commutator_probe(KAGOME, DRIVE, 0.1, 0.2, 4),
    "orders": lambda: scaling_errors(CHAIN, _chain_family, [[0.1]], OMEGAS, orders=1),
    "k_set": lambda: error_matrix(CHAIN, _chain_family, 3, OMEGAS),
    "omegas": lambda: error_matrix(CHAIN, _chain_family, [[0.1]], 10),
}


@pytest.mark.parametrize("field", SEQUENCE_ARGUMENTS)
def test_non_sequences_are_refused_naming_the_field(field):
    # a bare TypeError ('int' object is not iterable) would name no field
    with pytest.raises(ValidationError, match=f"^{field} must be a sequence, got"):
        SEQUENCE_ARGUMENTS[field]()


def _chain_harmonics(omega=10.0, cutoff=None):
    return lattice_harmonics(CHAIN, linear_drive(omega, [5.0]), cutoff)[CHAIN.bonds[0]]


# refusal branches the other tables do not reach: (a call, the start of its message)
REFUSALS = {
    "dimension 4": (lambda: LatticeSpec(4, np.eye(4), [[0.0] * 4], ()), "dimension must be 1, 2 or 3"),
    "fewer axes than the dimension": (
        lambda: LatticeSpec(2, [[1.0], [2.0]], [[0.0]], ()),
        "bravais vectors live in fewer Cartesian dimensions",
    ),
    "basis coordinates": (
        lambda: LatticeSpec(1, [[1.0, 0.0]], [[0.0]], ()),
        "basis sites have 1 coordinates, bravais vectors have 2",
    ),
    # not numpy's reshape error once a propagation stacks zero-site blocks
    "no basis site": (
        lambda: LatticeSpec(1, [[1.0]], np.zeros((0, 1)), ()),
        "basis_sites must hold at least one site, got none",
    ),
    "non-Bond entry": (lambda: LatticeSpec(1, [[1.0]], [[0.0]], (5,)), "bonds must be Bond instances"),
    "basis index": (
        lambda: LatticeSpec(1, [[1.0]], [[0.0]], (Bond(1, 0, (1,), -1.0),)),
        r"bond \(1<-0, offset=\(1,\)\): basis index out of range",
    ),
    "non-square block": (
        lambda: OffsetMatrix((0,), [[1.0, 2.0]]),
        r"offset \(0,\): matrix must be square, got \(1, 2\)",
    ),
    "mixed block sizes": (
        lambda: bloch_matrix((OffsetMatrix((0,), np.eye(1)), OffsetMatrix((1,), np.eye(2))), [0.1], [[1.0]]),
        "inconsistent matrix sizes in offset set",
    ),
    "2-D harmonic amplitude": (
        lambda: Harmonic(1, [[1.0]], [[0.0]]),
        "harmonic m=1: cos_amplitude must be a vector",
    ),
    "non-Harmonic entry": (lambda: DriveSpec(10.0, (5,)), "harmonics must be Harmonic instances"),
    "beta omega": (
        lambda: beta_static_free(_chain_harmonics(), _chain_harmonics(omega=12.0)),
        "harmonic sets have different omega: 10.0 vs 12.0",
    ),
    "beta cutoff": (
        lambda: beta_static_free(_chain_harmonics(), _chain_harmonics(cutoff=40)),
        "harmonic sets have different cutoff: 32 vs 40",
    ),
    "match shapes": (
        lambda: match_permutation([0.1, 0.2], [0.1], 10.0),
        r"cannot match spectra of shapes \(2,\) and \(1,\)",
    ),
    "fit shapes": (
        lambda: fit_power_law([10.0, 20.0, 40.0], [1.0, 0.5]),
        "omegas and errors must be 1d arrays of equal length",
    ),
    "empty k_set": (lambda: error_matrix(CHAIN, _chain_family, [], OMEGAS), "k_set must be nonempty"),
    "orders (2,)": (
        lambda: scaling_errors(CHAIN, _chain_family, [[0.1]], OMEGAS, orders=(2,)),
        r"orders must be a subset of \(0, 1\), got \(2,\)",
    ),
    "per_segment 0": (lambda: named_kpath(preset("lieb"), "GX", 0), "per_segment must be >= 1, got 0"),
    "per_axis 0": (lambda: bz_grid(KAGOME, 0), "per_axis must be >= 1, got 0"),
    "unserializable": (lambda: json_text({"x": object()}), "cannot serialize object to JSON"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_their_cause(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValidationError, match=f"^{message}"):
        call()


def test_bond_conjugate_is_involution():
    b = Bond(2, 1, (1, -3), 0.5 + 0.25j)
    rev = b.conjugate()
    assert rev.target_basis == 1 and rev.source_basis == 2
    assert rev.cell_offset == (-1, 3)
    assert rev.amplitude == np.conj(b.amplitude)
    assert rev.conjugate() == b


def test_lattice_rejects_degenerate_geometry():
    with pytest.raises(ValidationError):
        LatticeSpec(2, [[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]], ())
    with pytest.raises(ValidationError):
        LatticeSpec(1, [[1.0]], [[0.0], [0.0]], ())
    with pytest.raises(ValidationError):
        LatticeSpec(2, [[1.0, 0.0]], [[0.0, 0.0]], ())
    # offset length must match the lattice dimension
    with pytest.raises(ValidationError):
        LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1, 0), 1.0),))


def test_non_finite_lattice_input_is_refused():
    with pytest.raises(ValidationError, match="basis_sites must be finite"):
        LatticeSpec(1, [[1.0, 0.0]], [[0.0, 0.0], [0.5, float("nan")]], ())
    with pytest.raises(ValidationError, match="bravais_vectors must be finite"):
        LatticeSpec(2, [[1.0, 0.0], [0.0, float("inf")]], [[0.0, 0.0]], ())


NOT_NORMAL = r"\|amplitude\|\^2 must be a finite normal float"


@pytest.mark.parametrize("amplitude, message", [
    (float("nan"), "amplitude must be finite"),
    (complex(1.0, float("inf")), "amplitude must be finite"),
    # |j|^2 enters the Parseval tail and the pruning thresholds: beyond about
    # 1.3e154 it overflows, below about 1.5e-154 it loses digits or vanishes
    (1e160, NOT_NORMAL),
    (-1e-200, NOT_NORMAL),
    (1e-160, NOT_NORMAL),
    (1.4e-154, NOT_NORMAL),
    (1.35e154, NOT_NORMAL),
    (1e-160j, NOT_NORMAL),
    (complex(1.7e308, 1.7e308), NOT_NORMAL),
])
def test_bond_amplitude_must_be_finite_with_a_normal_square(amplitude, message):
    with pytest.raises(ValidationError, match=rf"^bond \(0<-0, offset=\(1,\)\): {message}"):
        Bond(0, 0, (1,), amplitude)


@pytest.mark.parametrize("amplitude", [1e-150, 1.6e-154, -1e150, 1.3e154, 1.6e-154j])
def test_amplitudes_near_the_ends_of_the_range_give_a_checked_model(amplitude):
    # the zig-zag chain has a first-order term, so the Parseval tail, the
    # pruning threshold and the cross-check's threshold all see |j|^2
    lat = preset("zigzag", amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = build_effective_model(lat, circular_drive(10.0, 15.0))
        assert cross_validate(enumerate_processes(lat), model).consistent


def test_ragged_or_nested_rows_are_refused_naming_the_field():
    # numpy used to escape with "setting an array element with a sequence"
    with pytest.raises(ValidationError, match="bravais_vectors must be equal-length rows"):
        LatticeSpec(2, [[1.0, 0.0], [0.0]], [[0.0, 0.0]], ())
    with pytest.raises(ValidationError, match="basis_sites must be equal-length rows"):
        LatticeSpec(1, [[1.0, 0.0]], [[0.0, 0.0], [0.5]], ())
    with pytest.raises(ValidationError, match="bravais_vectors must be real numbers"):
        LatticeSpec(1, [["x", 0.0]], [[0.0, 0.0]], ())
    # rows of rows used to be accepted as a 3d array
    with pytest.raises(ValidationError, match="bravais_vectors must be equal-length rows"):
        LatticeSpec(1, [[[1.0]]], [[0.0]], ())
    with pytest.raises(ValidationError, match="basis_sites must be equal-length rows"):
        LatticeSpec(1, [[1.0]], [[[0.0]]], ())


def test_lattice_arrays_are_read_only():
    lat = preset("chain")
    with pytest.raises(ValueError):
        lat.bravais_vectors[0, 0] = 2.0
    with pytest.raises(ValueError):
        lat.basis_sites[0, 0] = 2.0


def test_displacement_combines_offset_and_basis():
    lat = preset("zigzag")
    a1 = lat.displacement(Bond(1, 0, (0,), -1.0))
    a2 = lat.displacement(Bond(0, 1, (1,), -1.0))
    assert np.allclose(a1, [0.5, 0.5])
    assert np.allclose(a2, [0.5, -0.5])


def test_lattice_spec_adds_reverses_once():
    spec = LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), -1.0),))
    assert spec.bonds == (Bond(0, 0, (-1,), -1.0), Bond(0, 0, (1,), -1.0))
    again = LatticeSpec(1, [[1.0]], [[0.0]], spec.bonds)
    assert again.bonds == spec.bonds
    # a closed list is only sorted, by (target, source, offset); exact
    # duplicates collapse
    bonds = (Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), 0.5j), Bond(1, 0, (-1,), -0.5j))
    unsorted = LatticeSpec(1, [[1.0]], [[0.0], [0.5]], bonds + (Bond(0, 1, (0,), -1.0),) + bonds)
    assert unsorted.bonds == (
        Bond(0, 1, (0,), -1.0),
        Bond(0, 1, (1,), 0.5j),
        Bond(1, 0, (-1,), -0.5j),
        Bond(1, 0, (0,), -1.0),
    )


def test_lattice_spec_rejects_conflicting_amplitudes():
    for second, message in (
        (Bond(0, 0, (-1,), 0.5), "conflicts with its reverse"),
        (Bond(0, 0, (1,), 0.5), "conflicting duplicate"),
    ):
        with pytest.raises(ValidationError, match=message):
            LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), -1.0), second))


def test_open_bond_lists_are_closed_for_every_entry_point():
    # one bond given; every entry point sees the closed spec's two bonds
    spec = LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (1,), -1.0),))
    closed = LatticeSpec(1, [[1.0]], [[0.0]], (Bond(0, 0, (-1,), -1.0), Bond(0, 0, (1,), -1.0)))
    drive = linear_drive(10.0, [5.0])
    k = np.array([0.3])
    assert list(lattice_harmonics(spec, drive)) == list(closed.bonds)
    for open_set, closed_set in (
        (undriven_offsets(spec), undriven_offsets(closed)),
        (build_effective_model(spec, drive).order0, build_effective_model(closed, drive).order0),
    ):
        assert [(om.offset, om.matrix.tobytes()) for om in open_set] == [
            (om.offset, om.matrix.tobytes()) for om in closed_set
        ]
    assert propagate_period(spec, drive, k).quasienergies.tobytes() == (
        propagate_period(closed, drive, k).quasienergies.tobytes()
    )
    assert [(c.offset, c.verdict, len(c.processes)) for c in enumerate_processes(spec).couplings] == [
        (c.offset, c.verdict, len(c.processes)) for c in enumerate_processes(closed).couplings
    ]


def test_geometry_classification_counts_basis_sites():
    assert classify_geometry(preset("chain")) is Geometry.BRAVAIS
    assert classify_geometry(preset("triangular")) is Geometry.BRAVAIS
    assert classify_geometry(preset("zigzag")) is Geometry.NON_BRAVAIS
    assert classify_geometry(preset("kagome")) is Geometry.NON_BRAVAIS


def test_offset_dict_roundtrips_and_rejects_duplicates():
    a = OffsetMatrix((0, 1), np.eye(2))
    b = OffsetMatrix((1, 0), 2 * np.eye(2))
    table = offset_dict((a, b))
    assert set(table) == {(0, 1), (1, 0)}
    back = {om.offset: om.matrix for om in from_offset_dict(table)}
    assert np.allclose(back[(1, 0)], 2 * np.eye(2))
    with pytest.raises(ValidationError, match="duplicate"):
        offset_dict((a, OffsetMatrix((0, 1), 2 * np.eye(2))))


def test_hermitian_closure_of_offsets():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    open_set = (OffsetMatrix((1,), m),)
    assert not is_hermitian_closed_offsets(open_set)
    closed = open_set + (OffsetMatrix((-1,), m.conj().T),)
    assert is_hermitian_closed_offsets(closed)
    assert is_hermitian_closed_offsets(())
    nan = m.copy()
    nan[0, 0] = np.nan
    assert not is_hermitian_closed_offsets((OffsetMatrix((1,), nan), OffsetMatrix((-1,), nan.conj().T)))
    # a deviation of tol * (1 -+ 1e-12) times the largest entry sits just
    # inside or just outside the tolerance, also below 1
    for tol in (1e-9, 1e-6):
        for size in (0.5, 4.0):
            edge = tol * size
            for factor, closed in ((1 - 1e-12, True), (1 + 1e-12, False)):
                partner = size * m.conj().T
                partner[0, 0] = edge * factor
                offsets = (OffsetMatrix((1,), size * m), OffsetMatrix((-1,), partner))
                assert is_hermitian_closed_offsets(offsets, tol) is closed, (tol, size, factor)
                if tol != 1e-9:
                    continue
                # bloch_matrix's own check has the one tolerance 1e-9
                if closed:
                    assert bloch_matrix(offsets, [0.3], [[1.0]]).shape == (2, 2)
                else:
                    with pytest.raises(ValidationError, match="^offset set is not Hermitian-closed$"):
                        bloch_matrix(offsets, [0.3], [[1.0]])
    # tiny entries are held to their own scale, so 1e-12 against 3e-12 is not
    # closed (an absolute floor would let a non-Hermitian 1x1 through), and an
    # all-zero set is closed exactly
    tiny = (OffsetMatrix((1,), [[1e-12]]), OffsetMatrix((-1,), [[3e-12]]))
    assert not is_hermitian_closed_offsets(tiny)
    with pytest.raises(ValidationError, match="^offset set is not Hermitian-closed$"):
        bloch_matrix(tiny, [0.3], [[1.0]])
    zeros = (OffsetMatrix((1,), np.zeros((2, 2))), OffsetMatrix((-1,), np.zeros((2, 2))))
    assert is_hermitian_closed_offsets(zeros)
    assert not bloch_matrix(zeros, [0.3], [[1.0]]).any()


def test_undriven_chain_band_minimum():
    lat = preset("chain")
    H = bloch_matrix(undriven_offsets(lat), np.array([0.0]), lat.bravais_vectors)
    assert H.shape == (1, 1)
    assert np.allclose(H[0, 0], -2.0)


def test_bloch_matrix_is_hermitian_and_periodic():
    lat = preset("kagome")
    offs = undriven_offsets(lat)
    rng = np.random.default_rng(11)
    G = reciprocal_vectors(lat)
    for _ in range(5):
        k = rng.normal(size=2)
        H = bloch_matrix(offs, k, lat.bravais_vectors)
        assert np.allclose(H, H.conj().T, atol=1e-14)
        H2 = bloch_matrix(offs, k + G.T @ rng.integers(-2, 3, size=2), lat.bravais_vectors)
        assert np.allclose(H, H2, atol=1e-12)


def test_bloch_matrix_refuses_an_empty_offset_set():
    with pytest.raises(ValidationError, match="empty"):
        bloch_matrix((), np.array([0.3]), [[1.0]])
    # order 1 of a one-point basis is empty; its Bloch matrix is refused by name
    lat = preset("chain")
    empty = build_effective_model(lat, linear_drive(10.0, [5.0])).order1
    assert empty == ()
    with pytest.raises(ValidationError, match="empty"):
        bloch_matrix(empty, np.array([0.3]), lat.bravais_vectors)


def test_bloch_matrix_matches_the_per_offset_loop_bit_for_bit():
    rng = np.random.default_rng(41)
    for name in ("zigzag", "hexagonal", "kagome", "lieb"):
        lat = preset(name)
        for gauge in Gauge:
            model = build_effective_model(lat, random_drive(rng, lat.space_dim), gauge)
            for offsets in (model.order0, model.order1):
                assert offsets
                for k in rng.normal(scale=3.0, size=(12, lat.space_dim)):
                    want = reference_bloch(offsets, k, lat.bravais_vectors).tobytes()
                    for given in (offsets, list(offsets)):
                        assert bloch_matrix(given, k, lat.bravais_vectors).tobytes() == want


def test_bloch_matrix_keeps_the_scalar_bits_and_signed_zeros_on_every_preset():
    rng = np.random.default_rng(43)
    shapes = np.random.default_rng(45)
    lattices = [preset(name) for name in PRESET_NAMES]
    lattices += [random_lattice(shapes, dim) for dim in (1, 2, 2, 3)]
    for lat in lattices:
        ks = [np.zeros(lat.space_dim), -np.zeros(lat.space_dim)]
        ks += list(rng.normal(scale=3.0, size=(6, lat.space_dim)))
        ks.append(ks[2].copy())
        ks[-1][0] = -0.0
        d, origin = lat.basis_count, (0,) * lat.dimension
        # an all -0.0 on-site block: the sum from +0 gives +0 everywhere, a
        # sum that starts at the first term would keep -0.0
        sets = [undriven_offsets(lat), (OffsetMatrix(origin, np.full((d, d), -0.0 + 0j)),)]
        sets.append(tuple(OffsetMatrix(o.offset, -0.0 * o.matrix) for o in sets[0]))
        for gauge in Gauge:
            model = build_effective_model(lat, random_drive(rng, lat.space_dim), gauge)
            sets += [o for o in (model.order0, model.order1) if o]
        for offsets in sets:
            want = [reference_bloch(offsets, k, lat.bravais_vectors).tobytes() for k in ks]
            for k, w in zip(ks, want):
                assert bloch_matrix(offsets, k, lat.bravais_vectors).tobytes() == w
            # the k stack: every matrix with the bits of its k alone
            stack = bloch_matrix(offsets, np.array(ks), lat.bravais_vectors)
            assert stack.shape == (len(ks), d, d) and stack.base is None  # not a view of the partial sums
            assert [H.tobytes() for H in stack] == want


def test_vecdot_rounds_like_the_per_row_dot():
    # bloch_matrix, drive.phase and the propagator's H(t) take k . R and
    # a . R for many rows at once with np.vecdot because it runs the same
    # per-row kernel as one np.dot per row; a numpy that changes this
    # breaks the bit-for-bit tests above, and this test names the cause
    rng = np.random.default_rng(44)
    for dim in (1, 2, 3):
        for _ in range(200):
            rows = rng.normal(scale=10.0, size=(5, dim))
            v = rng.normal(scale=10.0, size=dim)
            want = np.array([np.dot(v, r) for r in rows])
            assert np.vecdot(rows, v).tobytes() == want.tobytes()


def test_bloch_matrix_refuses_a_bad_k_or_geometry():
    with pytest.raises(ValidationError, match=r"^k must have 1 Cartesian components, got shape \(2,\)"):
        bloch_matrix(CHAIN_OFFSETS, [0.1, 0.2], [[1.0]])
    with pytest.raises(ValidationError, match="^k must have 2 Cartesian components"):
        effective_bloch(KAGOME_MODEL, [0.1])
    with pytest.raises(ValidationError, match=r"^k must be finite, got \[nan\]"):
        bloch_matrix(CHAIN_OFFSETS, [float("nan")], [[1.0]])
    with pytest.raises(ValidationError, match="^bravais_vectors must be 1 rows"):
        bloch_matrix(CHAIN_OFFSETS, [0.1], [[1.0], [2.0]])
    # a stack is rows of k; only bloch_matrix and effective_bloch take one
    with pytest.raises(ValidationError, match=r"^k must have 1 Cartesian components, got shape \(3, 2\)"):
        bloch_matrix(CHAIN_OFFSETS, np.zeros((3, 2)), [[1.0]])
    with pytest.raises(ValidationError, match=r"^k must have 1 Cartesian components, got shape \(2, 2, 1\)"):
        bloch_matrix(CHAIN_OFFSETS, np.zeros((2, 2, 1)), [[1.0]])
    with pytest.raises(ValidationError, match=r"^k must be finite, got \[\[0.1\], \[inf\]\]"):
        effective_bloch(build_effective_model(CHAIN, _chain_family(10.0)), [[0.1], [np.inf]])
    with pytest.raises(ValidationError, match=r"^k must have 2 Cartesian components, got shape \(1, 2\)"):
        propagate_period(KAGOME, DRIVE, [[0.1, 0.2]])
    assert bloch_matrix(CHAIN_OFFSETS, np.zeros((0, 1)), [[1.0]]).shape == (0, 1, 1)


def test_bloch_matrix_refuses_a_non_finite_offset_set():
    # a NaN block compares false with everything: closure must not pass on it
    nan_set = (OffsetMatrix((1,), [[np.nan]]), OffsetMatrix((-1,), [[np.nan]]))
    assert not is_hermitian_closed_offsets(nan_set)
    with pytest.raises(ValidationError, match=r"^offset \(-1,\): matrix must be finite"):
        bloch_matrix(nan_set, [0.3], [[1.0]])
    inf_set = (OffsetMatrix((0,), [[np.inf]]),)
    with pytest.raises(ValidationError, match="must be finite"):
        bloch_matrix(inf_set, [0.3], [[1.0]])


def test_bloch_matrix_errors_are_not_cached():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    open_set = (OffsetMatrix((1,), m),)
    for _ in range(2):
        with pytest.raises(ValidationError, match="empty"):
            bloch_matrix((), np.array([0.3]), [[1.0]])
        with pytest.raises(ValidationError, match="not Hermitian-closed"):
            bloch_matrix(open_set, np.array([0.3]), [[1.0]])


_NOT_OFFSET_SETS = {
    "dict": ({(1,): [[1.0]], (-1,): [[1.0]]}, r"^offsets must be OffsetMatrix entries or sets of them, got 1$"),
    "array entry": ([np.eye(1)], r"^offsets must be OffsetMatrix entries or sets of them, got array\(\[1\.\]\)$"),
    "number rows": ([[1.0]], r"^offsets must be OffsetMatrix entries or sets of them, got 1.0$"),
    "None": (None, r"^offsets must be a sequence, got None$"),
    "unequal lengths": (
        (OffsetMatrix((1,), [[1.0]]), OffsetMatrix((-1, 0), [[1.0]])),
        r"^offsets must all have one length, got lengths \[1, 2\]$",
    ),
    "unequal lengths across sets": (
        ((OffsetMatrix((0,), [[1.0]]),), (OffsetMatrix((0, 0), [[1.0]]),)),
        r"^offsets must all have one length, got lengths \[1, 2\]$",
    ),
    "block sizes across sets": (
        ((OffsetMatrix((0,), np.eye(1)),), (OffsetMatrix((0,), np.eye(2)),)),
        "^inconsistent matrix sizes in offset set$",
    ),
    "empty tuple of sets": ((), "^offset set is empty: offsets need at least one block"),
    "tuple of empty sets": (((), ()), "^offset set is empty: offsets need at least one block"),
}


@pytest.mark.parametrize("case", _NOT_OFFSET_SETS)
def test_bloch_matrix_refuses_what_is_not_an_offset_set_by_name(case):
    # refused with a ValidationError naming offsets, not with a bare
    # AttributeError, an unhashable TypeError from the cache or the wrong
    # closure message
    offsets, message = _NOT_OFFSET_SETS[case]
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValidationError, match=message):
            bloch_matrix(offsets, [0.3], [[1.0]])


def test_offset_stack_cache_is_bounded_and_thread_safe():
    # more keys than entries (each set with two Bravais bases, which key
    # apart), evaluated by more workers than cores with rapid thread
    # switches: every result equals the serial reference
    lat = preset("kagome")
    sets = [undriven_offsets(lat) for _ in range(3 * lattice._offset_stack.cache_info().maxsize)]
    bases = [lat.bravais_vectors, 2.0 * lat.bravais_vectors]
    ks = np.random.default_rng(2).normal(size=(6, 2))
    want = [[reference_bloch(s, k, bases[i % 2]) for k in ks] for i, s in enumerate(sets)]

    def task(i):
        return [bloch_matrix(sets[i], k, bases[i % 2]) for k in ks]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(task, range(len(sets)), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for g, w in zip(got, want):
        assert all(np.array_equal(a, b) for a, b in zip(g, w))
    info = lattice._offset_stack.cache_info()
    assert 0 < info.currsize <= info.maxsize == 4


class _Reads:
    """A pair table that records which of its fields are read."""

    def __init__(self, table):
        self.table, self.fields = table, set()

    def __getattr__(self, name):
        self.fields.add(name)
        return getattr(self.table, name)


def _same(a, b) -> bool:
    """Equal pair-table fields: tuples entry by entry, arrays by dtype, shape and bytes."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def test_pair_table_lists_composable_pairs_in_double_loop_order(monkeypatch):
    # a lattice builds its one pair table at construction, and every reader
    # (harmonics, order 1, selection rules, H(t), offset matrices) reads that
    # one, building none of its own
    builds = []
    build = lattice._pair_table
    monkeypatch.setattr(lattice, "_pair_table", lambda spec: builds.append(spec) or build(spec))
    for name in PRESET_NAMES:
        builds.clear()
        lat = preset(name)
        assert builds == [lat]
        table = lat._pairs
        fresh = build(lat)
        for field in _PairTable.__dataclass_fields__:
            assert _same(getattr(table, field), getattr(fresh, field)), field
        reads = _Reads(table)
        object.__setattr__(lat, "_pairs", reads)
        drive = linear_drive(10.0, np.linspace(1.0, 2.0, lat.space_dim))
        k = np.linspace(0.3, -0.4, lat.space_dim)
        for field, call in (
            ("distinct", lambda: lattice_harmonics(lat, drive)),
            ("total_index", lambda: build_effective_model(lat, drive)),
            ("bond_index", lambda: build_effective_model(lat, drive)),
            ("first", lambda: enumerate_processes(lat)),
            ("distinct_of", lambda: bloch_hamiltonian_t(lat, drive, k, 0.3)),
            ("distinct_of", lambda: offset_matrices_at_time(lat, drive, 0.3)),
            ("bond_index", lambda: offset_matrices_at_time(lat, drive, 0.3)),
        ):
            reads.fields.clear()
            call()
            assert field in reads.fields, (name, field)
        assert builds == [lat]
        index = {b: i for i, b in enumerate(lat.bonds)}
        pairs = composable_pairs(lat)
        assert [(index[b1], index[b2]) for b1, b2 in pairs] == list(
            zip(table.first.tolist(), table.second.tolist())
        )
        for p, (b1, b2) in enumerate(pairs):
            total = tuple(x + y for x, y in zip(b1.cell_offset, b2.cell_offset))
            assert table.totals[table.total_index[p]] == total
            assert (table.source[p], table.target[p]) == (b1.source_basis, b2.target_basis)
        # both offset lists are sorted and closed under negation, which reverses them
        for offsets in (table.totals, table.offsets):
            assert list(offsets) == sorted(set(offsets))
            assert [tuple(-x for x in off) for off in reversed(offsets)] == list(offsets)
        assert list(table.offsets) == sorted({b.cell_offset for b in lat.bonds})
        rows, targets, sources = table.bond_index
        for i, b in enumerate(lat.bonds):
            assert table.displacements[i].tobytes() == lat.displacement(b).tobytes()
            first = lat.bonds[table.distinct[table.distinct_of[i]]]
            assert lat.displacement(first).tobytes() == lat.displacement(b).tobytes()
            assert first.amplitude == b.amplitude
            assert (table.offsets[rows[i]], targets[i], sources[i]) == (
                b.cell_offset, b.target_basis, b.source_basis
            )
        for field in ("displacements", "distinct", "distinct_of", "first", "second",
                      "source", "target", "total_index"):
            assert not getattr(table, field).flags.writeable, field
        for index in table.bond_index:
            assert index.dtype == np.intp and len(index) == len(lat.bonds)
            assert not index.flags.writeable
    bare = LatticeSpec(1, [[1.0]], [[0.0], [0.5]], ())._pairs
    assert bare.offsets == bare.totals == ()
    assert [(len(a), a.dtype, a.flags.writeable) for a in bare.bond_index] == [(0, np.intp, False)] * 3


def test_reciprocal_vectors_are_dual():
    for name in ("chain", "triangular", "kagome", "zigzag"):
        lat = preset(name)
        G = reciprocal_vectors(lat)
        # duality holds within the span of the Bravais vectors
        assert np.allclose(lat.bravais_vectors @ G.T, 2 * np.pi * np.eye(lat.dimension))


def test_translational_identity_on_random_tables():
    rng = np.random.default_rng(23)
    for _ in range(8):
        dim = int(rng.integers(1, 3))
        block = int(rng.integers(1, 4))
        C = random_offset_matrices(rng, dim, block)
        D = random_offset_matrices(rng, dim, block)
        dev = translational_identity_check(C, D, (4,) * dim)
        assert dev < 1e-12


def test_translational_identity_validates_extents():
    rng = np.random.default_rng(5)
    C = random_offset_matrices(rng, 2, 2, reach=2)
    D = random_offset_matrices(rng, 2, 2, reach=2)
    with pytest.raises(ValidationError):
        translational_identity_check(C, D, (3, 3))
    with pytest.raises(ValidationError):
        translational_identity_check(C, D, (4, 4, 4))


def test_random_lattices_are_drawn_for_every_seed_and_dimension():
    # a one-site chain has one bond class (+1 and -1 are one bond and its
    # reverse), fewer than the count + 1 the helper asks for elsewhere
    for seed in range(40):
        for dim in (1, 2, 3):
            lat = random_lattice(np.random.default_rng(seed), dim)
            d = lat.basis_count
            assert lat.dimension == lat.space_dim == dim and 1 <= d <= 3
            # the Hermitian closure holds each drawn bond and its reverse
            assert len(lat.bonds) == 2 * min(d + 1, (d * d * 3**dim - d) // 2)
