"""Shared builders for randomized test inputs, a propagation counter, and
the oracles the tests check the package against."""

from collections import namedtuple

import numpy as np

from floquet_forge import (
    Bond,
    DriveSpec,
    Gauge,
    Harmonic,
    LatticeSpec,
    bloch_matrix,
    build_effective_model,
    effective,
    effective_bloch,
    floquet,
    fold,
    lattice_harmonics,
    match_distance,
    propagate_period,
)
from floquet_forge.drive import _harmonics_at, _split
from floquet_forge.effective import _two_step
from floquet_forge.lattice import (
    _torus_extents,
    from_offset_dict,
    offset_dict,
)


def random_drive(rng, dim, omega=None, max_harmonics=3, scale=3.0):
    """Multi-harmonic drive with random harmonic indices and amplitudes."""
    w = float(omega) if omega is not None else float(rng.uniform(4.0, 30.0))
    count = int(rng.integers(1, max_harmonics + 1))
    ms = rng.choice(np.arange(1, 6), size=count, replace=False)
    hs = tuple(
        Harmonic(int(m), rng.normal(scale=scale, size=dim), rng.normal(scale=scale, size=dim))
        for m in sorted(ms)
    )
    return DriveSpec(w, hs)


def random_lattice(rng, dim):
    """Lattice of dimension ``dim`` with skewed Bravais vectors, 1-3 basis
    sites and bonds to offsets in {-1, 0, 1}, some with complex amplitudes."""
    A = np.diag(rng.uniform(0.8, 1.4, size=dim)) + np.triu(rng.uniform(-0.4, 0.4, (dim, dim)), 1)
    count = int(rng.integers(1, 4))
    sites = rng.uniform(0.0, 1.0, (count, dim)) @ A
    keys = set()
    bonds = []
    # (t, s, offset) and its reverse are one class; a one-site chain has only one
    classes = (count * count * 3**dim - count) // 2
    while len(bonds) < min(count + 1, classes):
        t, s = (int(x) for x in rng.integers(0, count, size=2))
        offset = tuple(int(x) for x in rng.integers(-1, 2, size=dim))
        if (t == s and not any(offset)) or (t, s, offset) in keys:
            continue
        keys |= {(t, s, offset), (s, t, tuple(-x for x in offset))}
        amplitude = rng.uniform(0.5, 1.5)
        if rng.random() < 0.5:
            amplitude *= np.exp(1j * rng.uniform(0.0, np.pi))
        bonds.append(Bond(t, s, offset, amplitude))
    return LatticeSpec(dim, A, sites, tuple(bonds))


def is_hermitian_closed_offsets(offsets, tol: float = 1e-9) -> bool:
    """Whether every block has a partner at the negated offset equal to its
    conjugate transpose, within ``tol`` times the largest entry. A set with a
    NaN block is not closed; an empty or all-zero one is."""
    table = offset_dict(offsets)
    if not table:
        return True
    where = {off: n for n, off in enumerate(table)}
    neg = [where.get(tuple(-x for x in off)) for off in table]
    if None in neg:
        return False
    mats = np.array(list(table.values()))
    scale = float(np.abs(mats).max())
    # NaN compares false: not closed
    return bool(np.abs(mats[neg] - mats.conj().transpose(0, 2, 1)).max() <= tol * scale)


def composable_pairs(lattice):
    """All ordered bond pairs (b1, b2) where b2 starts where b1 ends."""
    return [
        (b1, b2)
        for b1 in lattice.bonds
        for b2 in lattice.bonds
        if b2.source_basis == b1.target_basis
    ]


def chiral_two_harmonic(omega=20.0):
    """A planar two-harmonic drive with no time-reversal-like symmetry.

    Unlike a circular monochromatic force it leaves none of the first-order
    amplitudes accidentally real, imaginary or zero, so structural checks on
    the emergent matrices are non-vacuous.
    """
    return DriveSpec(
        omega,
        (
            Harmonic(1, [5.0, 1.0], [0.5, 4.0]),
            Harmonic(2, [1.5, -2.0], [3.0, 0.7]),
        ),
    )


def two_site_chain(j2=0.7):
    """Minimal non-Bravais spec: a 1d chain with alternating bond amplitudes."""
    return LatticeSpec(
        dimension=1,
        bravais_vectors=[[1.0]],
        basis_sites=[[0.0], [0.4]],
        bonds=(Bond(1, 0, (0,), -1.0), Bond(0, 1, (1,), j2)),
    )


def bloch_harmonics(lattice, drive, ks):
    """Fourier components H^(m)(k) = sum_b exp(i k.R_b) g_b^m of the Bloch
    Hamiltonian H(t, k) = sum_m H^(m)(k) exp(i m omega t), for m in [-N, N]
    at the package's harmonic cutoff N, with R_b the bond's cell offset in
    Cartesian coordinates (the convention of bloch_matrix). Shape
    (len(ks), 2N+1, d, d), indexed by m + N along the second axis."""
    harmonics = lattice_harmonics(lattice, drive)
    cutoff = next(iter(harmonics.values())).cutoff
    ks = np.asarray(ks, dtype=float)
    d = lattice.basis_count
    H = np.zeros((len(ks), 2 * cutoff + 1, d, d), dtype=complex)
    for b, h in harmonics.items():
        R = np.asarray(b.cell_offset, dtype=float) @ lattice.bravais_vectors
        H[:, :, b.target_basis, b.source_basis] += np.exp(1j * (ks @ R))[:, None] * h.coefficients
    return H


def torus_hamiltonian(table, extents, block):
    """Dense periodized matrix, built with plain index loops: the tests' one
    dense torus, an independent route to the package's offset-class sums."""
    from itertools import product

    cells = list(product(*[range(L) for L in extents]))
    where = {c: i for i, c in enumerate(cells)}
    n = len(cells)
    M = np.zeros((n * block, n * block), dtype=complex)
    for ci in cells:
        i = where[ci]
        for off, m in table.items():
            cj = tuple((a - o) % L for a, o, L in zip(ci, off, extents))
            j = where[cj]
            M[i * block:(i + 1) * block, j * block:(j + 1) * block] += m
    return M


def random_offset_matrices(rng, dim, block, count=3, reach=1):
    """Random translationally invariant operator as an offset table."""
    table = {}
    for _ in range(count):
        off = tuple(int(x) for x in rng.integers(-reach, reach + 1, size=dim))
        m = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        table[off] = table.get(off, 0) + m
    from floquet_forge import OffsetMatrix

    return tuple(OffsetMatrix(o, m) for o, m in sorted(table.items()))


def rotation_map(spec, angle, centre) -> tuple:
    """A rotation R by ``angle`` about the point ``centre`` of a planar
    lattice, as a map of the lattice onto itself: (site, shift, M), where
    basis site i goes to basis site site[i] in the cell shift[i] and a cell
    offset o goes to o @ M. Raises AssertionError if R does not map the
    Bravais lattice or the sites onto themselves."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])
    A = spec.bravais_vectors
    inverse = np.linalg.inv(A)

    def cells(v):
        """The integer lattice coordinates of Cartesian v, or None."""
        x = np.asarray(v) @ inverse
        n = np.rint(x)
        return n.astype(int) if np.abs(x - n).max() < 1e-9 else None

    M = cells(A @ R.T)
    assert M is not None, "the rotation does not map the Bravais lattice onto itself"
    site, shift = [], []
    for r in spec.basis_sites:
        image = centre + (r - centre) @ R.T
        hits = [(j, n) for j, q in enumerate(spec.basis_sites) if (n := cells(image - q)) is not None]
        assert len(hits) == 1, f"site {r} has no image among the basis sites"
        site.append(hits[0][0])
        shift.append(hits[0][1])
    return site, shift, M


def rotation_gap(blocks: dict, site, shift, M) -> float:
    """Largest |B[site[t], site[s]](o @ M + shift[t] - shift[s]) - B[t, s](o)|
    over the entries of the offset blocks {o: B(o)} (a missing block counts
    as zero), relative to their largest entry."""
    zero = np.zeros_like(next(iter(blocks.values())))
    top = max(np.abs(m).max() for m in blocks.values())
    gap = 0.0
    for o, m in blocks.items():
        for t, s in np.ndindex(m.shape):
            image = tuple((np.array(o) @ M + shift[t] - shift[s]).tolist())
            gap = max(gap, abs(blocks.get(image, zero)[site[t], site[s]] - m[t, s]))
    return gap / top


def peierls_lattice(lattice, vector_potential):
    """The lattice with every bond amplitude j multiplied by exp(i A.a) for
    its displacement a: complex amplitudes that still depend on the bond only
    through its displacement, and a closed bond list."""
    A = np.asarray(vector_potential, dtype=float)
    half = []
    for b in lattice.bonds:
        reverse = (b.source_basis, b.target_basis, tuple(-x for x in b.cell_offset))
        if (b.target_basis, b.source_basis, b.cell_offset) < reverse:
            phase = np.exp(1j * float(A @ lattice.displacement(b)))
            half.append(Bond(b.target_basis, b.source_basis, b.cell_offset, b.amplitude * phase))
    return LatticeSpec(lattice.dimension, lattice.bravais_vectors, lattice.basis_sites, half)


def strong_drive(lattice, z, omega=15.0):
    """Monochromatic drive whose longest bond sees the dimensionless strength z."""
    reach = max(np.linalg.norm(lattice.displacement(b)) for b in lattice.bonds)
    f0 = z * omega / reach
    if lattice.space_dim == 1:
        return DriveSpec(omega, (Harmonic(1, [f0], [0.0]),))
    return DriveSpec(omega, (Harmonic(1, [f0, 0.0], [0.0, f0]),))


def reference_phase(drive, a, t):
    """chi_a(t) for one displacement, one harmonic at a time."""
    w = drive.omega
    chi = np.zeros_like(t)
    for h in drive.harmonics:
        ca = float(h.cos_amplitude @ a) / (h.m * w)
        sa = float(h.sin_amplitude @ a) / (h.m * w)
        chi = chi + ca * np.sin(h.m * w * t) - sa * np.cos(h.m * w * t)
    return chi


def reference_harmonics_strict(drive, a, amplitude, cutoff):
    """The per-bond harmonics path that ran before bonds were batched: one
    phase evaluation and one FFT per bond. The batched form must reproduce
    it bit for bit, errors included."""
    from floquet_forge import CutoffTooSmallError, ValidationError
    from floquet_forge.drive import PARSEVAL_TOL, _default_samples

    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    n_s = _default_samples(cutoff)
    t = np.arange(n_s) * (drive.period / n_s)
    g = amplitude * np.exp(1j * reference_phase(drive, a, t))
    spectrum = np.fft.fft(g) / n_s
    idx = np.arange(-cutoff, cutoff + 1) % n_s
    coefficients = spectrum[idx]
    power = float(np.sum(np.abs(coefficients) ** 2))
    tail = abs(power - abs(amplitude) ** 2) / abs(amplitude) ** 2
    if not (tail <= PARSEVAL_TOL):
        raise CutoffTooSmallError(
            f"cutoff {cutoff} too small: Parseval tail mass {tail:.3e} "
            f"exceeds {PARSEVAL_TOL:.1e}",
            tail,
        )
    return coefficients


def reference_lattice_harmonics(lattice, drive, cutoff=None):
    """{bond: BondHarmonics} through the per-bond path, escalating the shared
    cutoff 32, 64, ..., 256 as before."""
    from floquet_forge import BondHarmonics, CutoffTooSmallError

    def build(n):
        out = {}
        for b in lattice.bonds:
            a = lattice.displacement(b)
            out[b] = BondHarmonics(
                b, a, drive.omega, n, reference_harmonics_strict(drive, a, b.amplitude, n)
            )
        return out

    if cutoff is not None:
        return build(cutoff)
    n = 32
    while True:
        try:
            return build(n)
        except CutoffTooSmallError:
            if n >= 256:
                raise
            n *= 2


def count_propagations(monkeypatch):
    """Wrap propagate_period where the comparison core behind the sweeps and
    ``cli bands`` calls it; the returned list gets each call's k
    (list.append is atomic, so pool threads may share it)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return propagate_period(*args, **kwargs)

    monkeypatch.setattr(floquet, "propagate_period", counting)
    return calls


def count_bloch_matrices(monkeypatch):
    """Wrap bloch_matrix where the comparison core and ``effective_bloch``
    look it up; the returned list gets each call's k as a (n_k, dim) float
    array, one row for a single k."""
    calls = []

    def counting(offsets, k, bravais_vectors):
        calls.append(np.array(k, dtype=float, ndmin=2))
        return bloch_matrix(offsets, k, bravais_vectors)

    monkeypatch.setattr(floquet, "bloch_matrix", counting)
    monkeypatch.setattr(effective, "bloch_matrix", counting)
    return calls


def single_set_bloch(offsets, k, bravais_vectors):
    """The single-set kernel of ``bloch_matrix`` before it took a tuple of
    sets, without its cache or checks: the set's offsets ascending, led by a
    zero offset with a zero block, R = offsets @ A, one vecdot, exp and
    multiply over (k, offset), and one ordered add.accumulate."""
    table = offset_dict(offsets)
    keys = sorted(table)
    offs = np.array([(0,) * len(keys[0])] + keys, dtype=float)
    mats = np.array([np.zeros_like(table[keys[0]])] + [table[off] for off in keys])
    k = np.array(k, dtype=float)
    terms = np.exp(1j * np.vecdot(offs @ np.array(bravais_vectors, dtype=float), k[..., None, :]))
    terms = terms[..., None, None] * mats
    return np.ascontiguousarray(np.add.accumulate(terms, axis=-3, out=terms)[..., -1, :, :])


def two_call_effective_bloch(model, k):
    """``effective_bloch`` as it was: one single-set call per order, added
    (order 1 only where the model has one)."""
    H = single_set_bloch(model.order0, k, model.bravais_vectors)
    if model.order1:
        H = H + single_set_bloch(model.order1, k, model.bravais_vectors)
    return H


def bond_blocks(spec, values) -> dict:
    """{cell offset: block}, with each bond's value (one per bond, in bond
    order) added at (target, source) of its offset's block, in bond order:
    a dict loop, independent of the package's pair-table scatter."""
    d = spec.basis_count
    table = {}
    for b, value in zip(spec.bonds, values):
        m = table.setdefault(b.cell_offset, np.zeros((d, d), dtype=complex))
        m[b.target_basis, b.source_basis] += value
    return table


def undriven_offsets(spec):
    """The bare tunneling matrices J_offset of the static Hamiltonian."""
    return from_offset_dict(bond_blocks(spec, [b.amplitude for b in spec.bonds]))


# one evaluated two-step process: first hop a_i, second hop a_j through the
# named intermediate basis site
TwoStepAmplitude = namedtuple("TwoStepAmplitude", "a_i a_j intermediate_basis value")


def beta_general(lattice, drive, gauge, bond1, bond2):
    """Two-step amplitude for hopping along ``bond1`` then ``bond2`` (they
    must compose), all three lines of the general expression in ``gauge``:
    the model builder's kernel on a one-pair stack, a second route to
    ``beta_static_free``."""
    a = np.array([lattice.displacement(bond1), lattice.displacement(bond2)])
    _, G = _harmonics_at(drive, a, [bond1.amplitude, bond2.amplitude], None)
    value = _two_step(G, np.array([0]), np.array([1]), drive.omega, gauge)[0]
    return TwoStepAmplitude(a[0], a[1], bond1.target_basis, value)


def two_pass_row_sums(terms):
    """The compensated (Kahan) row sum in the form that took one pass per
    block of rows, allocating each step: the reference for the one-pass
    ``effective._row_sums``."""
    s = np.zeros(len(terms), dtype=complex)
    c = np.zeros_like(s)
    for column in terms.T:
        y = column - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def two_pass_two_step(G, first, second, omega, gauge):
    """``effective._two_step`` as it ran with two compensated sums, one over
    the bond rows' gauge terms and one over the pair rows' lines one and
    two; the one-pass kernel must reproduce it bit for bit."""
    pos, neg, zero = _split(G)
    n = np.arange(1, pos.shape[1] + 1)
    if gauge is Gauge.STATIC_FREE:
        f = two_pass_row_sums(1j * (neg - pos) / n)
    else:
        f = [0.0 + 0.0j] * len(G)
    g1p, g1n, g1z = pos[first], neg[first], zero[first, None]
    g2p, g2n, g2z = pos[second], neg[second], zero[second, None]
    line1 = g2p * g1n - g2n * g1p
    line2 = (g2n - g2p) * g1z - g2z * (g1n - g1p)
    sums = two_pass_row_sums((line1 + line2) / (n * omega))
    gz = [complex(z) for z in zero]
    iw = 1j / omega
    return np.array(
        [
            s + iw * (f[j] * gz[i] - gz[j] * f[i])
            for s, i, j in zip(sums, first.tolist(), second.tolist())
        ],
        dtype=complex,
    )


def gauge_difference_errors(lattice, drive_family, k_set, omegas):
    """max over k of the matched distance between the two gauges' effective
    spectra, per sweep frequency. No propagation involved; the difference
    shrinks one order faster than the truncation itself."""
    out = np.zeros(len(omegas))
    for iw, w in enumerate(omegas):
        drive = drive_family(w)
        mf = build_effective_model(lattice, drive, Gauge.FLOQUET)
        ms = build_effective_model(lattice, drive, Gauge.STATIC_FREE)
        out[iw] = max(
            match_distance(
                np.linalg.eigvalsh(effective_bloch(mf, k)),
                np.linalg.eigvalsh(effective_bloch(ms, k)),
                w,
            )
            for k in k_set
        )
    return out


def translational_identity_check(C, D, torus):
    """Max deviation between the two-sided sum and the commutator sum.

    For translationally invariant C and D on a torus,
    sum_l (C_il D_lj - D_il C_lj) equals sum_l [C_il, D_lj] for all cells
    (i, j); this evaluates both sides on the given torus extents (read by
    the package's torus rule) and returns the largest elementwise modulus of
    the difference.
    """
    tC, tD = offset_dict(C), offset_dict(D)
    d = next(iter(tC.values())).shape[0]
    extents = _torus_extents(torus, len(next(iter(tC))), list(tC) + list(tD))
    Cf = torus_hamiltonian(tC, extents, d)
    Df = torus_hamiltonian(tD, extents, d)
    n = Cf.shape[0] // d
    lhs = Cf @ Df - Df @ Cf
    # Commutator side: blockwise sum_l C_il D_lj - D_lj C_il. The first term
    # is the (i, j) block of C @ D; the second needs the swapped block order.
    C4 = Cf.reshape(n, d, n, d)
    D4 = Df.reshape(n, d, n, d)
    swapped = np.einsum("lajc,iclb->iajb", D4, C4).reshape(n * d, n * d)
    rhs = Cf @ Df - swapped
    return float(np.abs(lhs - rhs).max())


def one_drive_exponentials(w, V, factors):
    """exp(-i factor * H) for a stack of Hermitian matrices H = V diag(w)
    V^H, one drive at a time: the reference for the batched exponentials of
    ``floquet._run_propagators``."""
    ph = np.exp(-1j * factors[:, None] * w)
    return (V * ph[:, None, :]) @ np.conj(np.swapaxes(V, 1, 2))


def one_pass_time_ordered_product(mats):
    """mats[-1] @ ... @ mats[0] by one pairwise tree over the whole stack:
    the reference for the chunked ``floquet._time_ordered_product``."""
    arr = mats
    while arr.shape[0] > 1:
        m = arr.shape[0] // 2
        head = np.matmul(arr[1 : 2 * m : 2], arr[0 : 2 * m : 2])
        arr = head if arr.shape[0] % 2 == 0 else np.concatenate([head, arr[-1:]])
    return arr[0]


def sambe_quasienergies(lattice, drive, k, M=8, max_M=32):
    """Quasienergies at k from the Floquet matrix in Sambe space (Shirley,
    Phys. Rev. 138, B979 (1965); Sambe, Phys. Rev. A 7, 2203 (1973)): a
    route to the exact reference that shares H(t) with the propagator but
    not its integrator, nor the harmonics or the model.

    N = 8M samples of ``floquet._hamiltonian_stack`` over one period give,
    by one ifft, the blocks H^(l) of H(t) = sum_l H^(l) exp(-i l omega t),
    and K_mn = H^(n-m) + m omega delta_mn for |m|, |n| <= M has one eigh.
    The d eigenvectors with the most weight in the m = 0 block give the
    folded quasienergies. M grows from ``M`` in steps of 4 while their norm
    in the |m| > M - r blocks is above 1e-6, with r the drive's
    highest harmonic: H(t) couples blocks r apart, so a tail can skip the
    |m| = M blocks. Past ``max_M`` an AssertionError names the point."""
    k = np.asarray(k, dtype=float)
    d = lattice.basis_count
    reach = max((h.m for h in drive.harmonics), default=1)
    edge = np.inf
    for M in range(M, max_M + 1, 4):
        N = 8 * M
        times = np.arange(N) * (drive.period / N)
        samples = floquet._hamiltonian_stack(lattice, k, floquet._bond_phases(lattice, drive, times))
        H = np.fft.ifft(samples, axis=0)  # H[l % N] = H^(l)
        m = np.arange(-M, M + 1)
        K = H[(m[None, :] - m[:, None]) % N].transpose(0, 2, 1, 3).reshape(len(m) * d, -1)
        K += np.diag(np.repeat(m * drive.omega, d))
        energies, vectors = np.linalg.eigh(K)
        weight = np.abs(vectors.reshape(len(m), d, -1)) ** 2
        keep = np.argsort(weight[M].sum(axis=0))[-d:]
        edge = float(np.sqrt(weight[np.abs(m) > M - reach][:, :, keep].sum(axis=(0, 1))).max())
        if edge <= 1e-6:
            return np.sort(fold(energies[keep], drive.omega))
    raise AssertionError(
        f"Sambe matrix not converged by M = {max_M} (edge weight {edge:.1e} > 1e-06) "
        f"at omega={drive.omega:g}, k={k.tolist()}"
    )
