"""The three closed-loop workloads: inputs from a seed, one item, one gate.

Each workload builds a fixed list of items from its seed. A run cycles
through that list, one item at a time (closed loop, one client), so a slow
program receives less work rather than a queue. Every item's output goes
through a correctness gate; on the default seed the gate also compares
against ``reference.json``, recorded from the seed commit with
``record.py``.

The package is reached only through attribute lookups on the imported
modules (``ff.build_effective_model``, ``cli.main``) at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

DEFAULT_SEED = 0
OMEGAS = (10.0, 20.0, 40.0, 80.0)
# cli verify's one-sided test: slope <= expected + 0.3.
SLOPE_LIMITS = {0: -0.7, 1: -1.7}
SLOPE_REF_TOL = 5e-4  # recorded slopes agree to 3 decimals
SPECTRUM_REF_TOL = 1e-10  # times |j|, which is 1 for every preset here
HERMITIAN_TOL = 1e-12


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _bond_length(lattice):
    return max(float(np.linalg.norm(lattice.displacement(b))) for b in lattice.bonds)


class Sweep:
    """Exact-reference frequency sweep of one lattice per item.

    Orders (0, 1), the 4x4 ``bz_grid`` (16 k) and omegas 10/20/40/80 make 64
    (omega, k) propagations per item, single-threaded. Items alternate kagome
    and Lieb, both with a circular drive at seeded z in [1.0, 2.5]. Zig-zag is
    left out: its order-0 slope is -2 by geometry, not -1.

    ``scaling_errors`` runs on the four 4-point quarters of the grid in turn
    and the item takes the maximum over them, which equals one call on all 16
    points bit for bit; the host-speed probe can then run every half second.
    """

    name = "sweep"
    threads = "1"
    grid = 4
    quarters = 4
    presets = ("kagome", "lieb")

    def __init__(self, ff, seed, workdir):
        self.ff = ff
        rng = _rng(seed, 1)
        self.lattices = {n: ff.preset(n) for n in self.presets}
        self.kpoints = {n: ff.bz_grid(lat, self.grid) for n, lat in self.lattices.items()}
        self.bond = {n: _bond_length(lat) for n, lat in self.lattices.items()}
        self.items = [{"preset": n, "z": float(rng.uniform(1.0, 2.5))} for n in self.presets]
        self.points = len(OMEGAS) * self.grid ** 2

    def warm_up(self):
        for n, lat in self.lattices.items():
            drive = self.ff.circular_drive(OMEGAS[0], self.bond[n] * OMEGAS[0])
            self.ff.build_effective_model(lat, drive)
            self.ff.propagate_period(lat, drive, self.kpoints[n][1])

    def run(self, i, tick):
        item = self.items[i]
        n = item["preset"]
        strength = item["z"] / self.bond[n]
        ff = self.ff

        def family(w):
            return ff.circular_drive(w, strength * w)

        errors = {o: np.zeros(len(OMEGAS)) for o in (0, 1)}
        for ks in np.array_split(self.kpoints[n], self.quarters):
            part = ff.scaling_errors(self.lattices[n], family, ks, OMEGAS, orders=(0, 1))
            for o in (0, 1):
                errors[o] = np.maximum(errors[o], part[o])
            tick()
        return errors

    @staticmethod
    def slopes(errors):
        x = np.log(np.asarray(OMEGAS))
        return [float(np.polyfit(x, np.log(errors[o]), 1)[0]) for o in (0, 1)]

    def summary(self, out):
        return np.concatenate([out[0], out[1]])

    def check(self, i, out, ref):
        for o in (0, 1):
            e = out[o]
            if e.shape != (len(OMEGAS),) or not np.all(np.isfinite(e)) or not np.all(e > 0):
                return f"order {o} errors not finite and positive: {e}"
        slopes = self.slopes(out)
        for o, s in enumerate(slopes):
            if not s <= SLOPE_LIMITS[o]:
                return f"order {o} slope {s:.3f} above {SLOPE_LIMITS[o]}"
        if ref is not None:
            want = ref["items"][i]
            if want["preset"] != self.items[i]["preset"] or want["z"] != self.items[i]["z"]:
                return f"item {i} inputs differ from the reference: {self.items[i]} vs {want}"
            for o, (s, r) in enumerate(zip(slopes, want["slopes"])):
                if not abs(s - r) <= SLOPE_REF_TOL:
                    return f"order {o} slope {s:.6f} differs from reference {r:.6f}"
        return None

    def record(self, outs):
        return {"items": [dict(item, slopes=self.slopes(out),
                               errors=[out[0].tolist(), out[1].tolist()])
                          for item, out in zip(self.items, outs)]}

    def shape(self):
        return {
            "presets": list(self.presets),
            "bonds": {n: len(lat.bonds) for n, lat in self.lattices.items()},
            "d": {n: lat.basis_count for n, lat in self.lattices.items()},
            "k_count": self.grid ** 2,
            "omegas": list(OMEGAS),
            "orders": [0, 1],
            "start_steps": 512,
            "z": [item["z"] for item in self.items],
            "points_per_item": self.points,
            "calls_per_item": self.quarters,
        }


class Scan:
    """Drive-parameter scan with no propagation: one drive per item.

    An item builds the effective model, enumerates and cross-validates the
    selection rules, and diagonalizes the effective Bloch matrix on the 4x4
    ``bz_grid``. Presets go round robin over zig-zag, hexagonal, kagome and
    Lieb; omega is in [5, 40]. In every block of ten items exactly one, at a
    seeded position, is a strong circular drive with z in [24, 44], which
    escalates the harmonic cutoff from 32 to 64 (z from 22 to 48 does on every
    preset); the others have 1-3 harmonics with z up to 3 each and mostly stay
    at 32 (three harmonics at once can need 64).
    """

    name = "scan"
    threads = "1"
    grid = 4
    presets = ("zigzag", "hexagonal", "kagome", "lieb")
    blocks = 4
    block = 10

    def __init__(self, ff, seed, workdir):
        self.ff = ff
        rng = _rng(seed, 2)
        self.lattices = {n: ff.preset(n) for n in self.presets}
        self.kpoints = {n: ff.bz_grid(lat, self.grid) for n, lat in self.lattices.items()}
        bond = {n: _bond_length(lat) for n, lat in self.lattices.items()}
        self.items = []
        for b in range(self.blocks):
            strong_at = int(rng.integers(self.block))
            for j in range(self.block):
                n = self.presets[len(self.items) % len(self.presets)]
                omega = float(rng.uniform(5.0, 40.0))
                if j == strong_at:
                    f0 = float(rng.uniform(24.0, 44.0)) * omega / bond[n]
                    harmonics = [(1, [f0, 0.0], [0.0, f0])]
                else:
                    count = int(rng.integers(1, 4))
                    harmonics = []
                    for m in sorted(int(x) for x in rng.choice([1, 2, 3], count, replace=False)):
                        a, c = rng.normal(size=2), rng.normal(size=2)
                        z = float(rng.uniform(0.3, 3.0))
                        scale = z * m * omega / (bond[n] * max(np.linalg.norm(a), np.linalg.norm(c)))
                        harmonics.append((m, (scale * a).tolist(), (scale * c).tolist()))
                self.items.append({"preset": n, "omega": omega, "harmonics": harmonics,
                                   "strong": j == strong_at})
        self.drives = [
            ff.DriveSpec(it["omega"], [ff.Harmonic(m, a, c) for m, a, c in it["harmonics"]])
            for it in self.items
        ]
        self.points = 1

    def warm_up(self):
        self.run(0, lambda: None)

    def run(self, i, tick):
        ff = self.ff
        n = self.items[i]["preset"]
        lattice = self.lattices[n]
        model = ff.build_effective_model(lattice, self.drives[i])
        report = ff.enumerate_processes(lattice)
        verdict = ff.cross_validate(report, model, strict=False)
        blochs = [ff.effective_bloch(model, k) for k in self.kpoints[n]]
        spectra = np.array([np.linalg.eigvalsh(H) for H in blochs])
        return {"cutoff": model.cutoff, "verdict": verdict, "blochs": blochs, "spectra": spectra}

    def summary(self, out):
        return out["spectra"]

    def check(self, i, out, ref):
        if not out["verdict"].consistent:
            return f"cross_validate inconsistent: {out['verdict'].violations[:1]}"
        for H in out["blochs"]:
            if not np.abs(H - H.conj().T).max() <= HERMITIAN_TOL * max(1.0, np.abs(H).max()):
                return "effective Bloch matrix is not Hermitian"
        if not np.all(np.isfinite(out["spectra"])):
            return "non-finite effective spectrum"
        if ref is not None:
            want = ref["items"][i]
            if want["inputs"] != _jsonable(self.items[i]):
                return f"item {i} inputs differ from the reference"
            diff = np.abs(out["spectra"] - np.asarray(want["spectra"])).max()
            if not diff <= SPECTRUM_REF_TOL:
                return f"spectra differ from the reference by {diff:.3e}"
        return None

    def record(self, outs):
        return {"items": [{"inputs": _jsonable(item), "cutoff": out["cutoff"],
                           "spectra": out["spectra"].tolist()}
                          for item, out in zip(self.items, outs)]}

    def shape(self):
        return {
            "presets": list(self.presets),
            "bonds": {n: len(lat.bonds) for n, lat in self.lattices.items()},
            "d": {n: lat.basis_count for n, lat in self.lattices.items()},
            "k_count": self.grid ** 2,
            "omegas": [round(it["omega"], 6) for it in self.items],
            "strong_items": [i for i, it in enumerate(self.items) if it["strong"]],
            "items_per_cycle": len(self.items),
        }


def _jsonable(obj):
    """Round-trip through the JSON types the reference file stores."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


CONFIG_TEMPLATE = """\
[lattice]
dimension = 1
bravais = [[1.0, 0.0]]
basis = [[0.0, 0.0], [0.5, 0.5]]
bond = {{to = 1, from = 0, offset = [0], amplitude_re = -1.0}}
bond = {{to = 0, from = 1, offset = [1], amplitude_re = -1.0}}

[drive]
omega = 12.5
harmonic = {{m = 1, a = [{a1!r}, 0.0], b = [0.0, {a1!r}]}}
harmonic = {{m = 2, a = [{a2x!r}, {a2y!r}]}}
"""

CLI_FILES = (
    "bands.csv", "verify.csv", "verify.json", "effective.json",
    "selection.json", "selection.txt", "fourier.csv",
)


class Cli:
    """An in-process CLI session: one item is one pass over five calls.

    ``bands`` on kagome (GMKG, 8 points per leg), ``verify`` on zig-zag over
    omegas 10/20/40/80, ``effective`` from a config file with an explicit
    zig-zag lattice and the README's two-harmonic drive, ``selection-rules``
    on Lieb with a drive, and ``fourier`` on the chain. The default seed uses
    the README's amplitudes; other seeds scale each call's amplitude by a
    seeded factor in [0.85, 1.15]. Thread count is the CLI default (auto).
    """

    name = "cli"
    threads = None

    def __init__(self, ff, seed, workdir):
        self.ff = ff
        from floquet_forge import cli
        self.cli = cli
        rng = _rng(seed, 3)
        f = [1.0] * 5 if seed == DEFAULT_SEED else [float(x) for x in rng.uniform(0.85, 1.15, 5)]
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        config = os.path.join(workdir, "zigzag.cfg")
        with open(config, "w", newline="") as fh:
            fh.write(CONFIG_TEMPLATE.format(a1=6.0 * f[2], a2x=1.0 * f[2], a2y=0.5 * f[2]))
        self.factors = f
        self.argvs = [
            ["bands", "--preset", "kagome", "--omega", "25", "--circular", repr(30.0 * f[0]),
             "--kpath", "GMKG", "--kpoints", "8"],
            ["verify", "--preset", "zigzag", "--omega", "10", "--circular", repr(21.2 * f[1]),
             "--omegas", "10,20,40,80"],
            ["effective", "--config", config],
            ["selection-rules", "--preset", "lieb", "--omega", "20", "--circular", repr(24.0 * f[3])],
            ["fourier", "--preset", "chain", "--omega", "10", "--linear", repr(13.0 * f[4])],
        ]
        self.items = [{"argvs": self.argvs}]
        self.points = 1
        self.warm_dir = os.path.join(workdir, "warm")

    def _call(self, argv, outdir):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv + ["--output", outdir])
        return code, sink.getvalue()

    def warm_up(self):
        self._call(self.argvs[2], self.warm_dir)
        self._call(self.argvs[4], self.warm_dir)

    def run(self, i, tick):
        out = []
        for argv in self.argvs:
            out.append(self._call(argv, self.out))
            tick()
        return out

    def digests(self):
        out = {}
        for name in CLI_FILES:
            with open(os.path.join(self.out, name), "rb") as fh:
                data = fh.read()
            out[name] = hashlib.sha256(data).hexdigest()
        return out

    def summary(self, out):
        return self.digests()

    def check(self, i, out, ref):
        for argv, (code, text) in zip(self.argvs, out):
            if code != 0:
                return f"{argv[0]} exited {code}: {text.strip()[-200:]}"
        if ref is not None:
            got = self.digests()
            for name, digest in ref["digests"].items():
                if got.get(name) != digest:
                    return f"{name} differs from the reference digest"
        return None

    def record(self, outs):
        return {"argvs": self.argvs, "digests": self.digests()}

    def shape(self):
        lattices = {"bands": "kagome", "verify": "zigzag", "effective": "zigzag (config)",
                    "selection-rules": "lieb", "fourier": "chain"}
        info = {}
        for name, preset in lattices.items():
            lat = self.ff.preset(preset.split()[0])
            info[name] = {"preset": preset, "bonds": len(lat.bonds), "d": lat.basis_count}
        ff = self.ff
        return {
            "calls": info,
            "bands_k_count": len(ff.named_kpath(ff.preset("kagome"), "GMKG", 8).points),
            "verify_k_count": len(ff.named_kpath(ff.preset("zigzag"), None, 4).points),
            "verify_omegas": [10.0, 20.0, 40.0, 80.0],
            "start_steps": 512,
            "amplitude_factors": self.factors,
        }


WORKLOADS = {w.name: w for w in (Sweep, Scan, Cli)}
