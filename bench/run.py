"""Benchmark of floquet-forge: the sweep, scan and cli workloads.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of the traced run. The line before it is a JSON
report with the environment, the workload shape and every metric measured.
``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints a table. See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so pool threads x BLAS threads
# stays at or below the core count.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120
# Program time is cut into slices of at least SLICE_S, each followed by the
# host-speed probe; PROBE_REF_S is the probe's time on a quiet host.
SLICE_S = 0.25
PROBE_REF_S = 0.005

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

_PROBE_MATRICES = None


def host_probe():
    """Seconds for a fixed mix of small numpy linear algebra and Python
    arithmetic, independent of floquet_forge.

    The development host's speed moves by up to 2x within seconds and
    between minutes as other tenants load the shared cores. Dividing each
    slice of program time by the probe time measured right after it removes
    most of that motion; the probe never changes between commits.
    """
    global _PROBE_MATRICES
    if _PROBE_MATRICES is None:
        rng = np.random.default_rng(0)
        a = rng.normal(size=(96, 3, 3)) + 1j * rng.normal(size=(96, 3, 3))
        _PROBE_MATRICES = a + a.conj().transpose(0, 2, 1)
    h = _PROBE_MATRICES
    start = time.perf_counter()
    for _ in range(12):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-0.1j * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        while u.shape[0] > 1:
            u = u[1::2] @ u[0::2]
        np.linalg.eigvals(u[0])
        sum(i * i for i in range(2000))
    return time.perf_counter() - start


class Clock:
    """Times program calls in slices, probing the host after each slice.

    A workload calls ``tick`` between the program calls of one item so that
    long items are cut too; probe time is never counted as program time.
    """

    def __init__(self):
        self.slices = []  # (program seconds, probe seconds)
        self._pending = 0.0
        self._start = None
        self.item_seconds = 0.0

    def start(self):
        self.item_seconds = 0.0
        self._start = time.perf_counter()

    def tick(self):
        self._lap()
        if self._pending >= SLICE_S:
            self.flush()
        self._start = time.perf_counter()

    def stop(self):
        """End of an item: returns its program seconds, then probes the host
        if the slice is long enough."""
        self._lap()
        self._start = None
        if self._pending >= SLICE_S:
            self.flush()
        return self.item_seconds

    def flush(self):
        if self._pending > 0:
            self.slices.append((self._pending, host_probe()))
            self._pending = 0.0

    def _lap(self):
        elapsed = time.perf_counter() - self._start
        self._pending += elapsed
        self.item_seconds += elapsed

    def program_seconds(self):
        return sum(p for p, _ in self.slices)

    def reference_seconds(self):
        """Program time rescaled to the quiet-host probe time."""
        return sum(p * PROBE_REF_S / c for p, c in self.slices)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, a set-up child failed)."""


def import_package():
    """Import floquet_forge from this checkout's src/ only."""
    init = SRC / "floquet_forge" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no floquet_forge package under {SRC}")
    sys.path.insert(0, str(SRC))
    import floquet_forge
    if Path(floquet_forge.__file__).resolve() != init.resolve():
        raise BenchError(f"floquet_forge imported from {floquet_forge.__file__}, not {init}")
    return floquet_forge


def percentile(values, q):
    """The q-th percentile (q in 1..99) of the values, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "floquet_forge").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def platform_fingerprint():
    """What decides the last bits of BLAS and FFT results on this host."""
    import scipy
    from numpy._core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "cpu_features": sorted(k for k, v in __cpu_features__.items() if v),
    }


def environment(seed, threads):
    from floquet_forge.floquet import thread_count
    fp = platform_fingerprint()
    return {
        "nproc": NPROC,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "pool_threads": thread_count(),
        "busy_threads_within_nproc": thread_count() <= NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": fp["numpy"],
        "scipy": fp["scipy"],
        "openblas": fp["blas"],
        "FLOQUET_FORGE_THREADS": threads,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def load_reference(workload, seed):
    """The recorded outputs that apply to this run, or None."""
    import workloads
    if seed != workloads.DEFAULT_SEED or not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None:
        return None
    if workload == "cli" and ref.get("platform") != platform_fingerprint():
        # Bytes are promised stable for one version on one platform; another
        # BLAS kernel or SIMD width may move the last printed digit.
        return None
    return ref


def set_threads(value):
    if value is None:
        os.environ.pop("FLOQUET_FORGE_THREADS", None)
    else:
        os.environ["FLOQUET_FORGE_THREADS"] = value


class Loop:
    """Runs whole passes over a workload's items and gates every output."""

    def __init__(self, wl, ref):
        self.wl = wl
        self.ref = ref
        self.clock = Clock()
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.errors = []
        self.run_errors = []

    def cycle(self):
        """One pass; returns (points that passed the gate, program seconds)."""
        points, busy = 0, 0.0
        clock = self.clock
        for i in range(len(self.wl.items)):
            self.attempted += 1
            clock.start()
            try:
                out = self.wl.run(i, clock.tick)
            except Exception as exc:  # an item that raises is a failed item
                busy += clock.stop()
                self._fail(i, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = clock.stop()
            busy += elapsed
            self.latencies.append(elapsed)

            error = self.wl.check(i, out, self.ref)
            if error is None:
                summary = self.wl.summary(out)
                if not _same(self.first.setdefault(i, summary), summary):
                    error = "output differs from this item's first output in the run"
            if error is None:
                points += self.wl.points
            else:
                self._fail(i, error)
        return points, busy

    def _fail(self, i, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"item {i}: {message}")


def _same(a, b):
    if isinstance(a, dict):
        return a == b
    return np.array_equal(a, b)


def measure_setup(args):
    """(start -> ready, probe seconds) for fresh processes set up in turn."""
    times = []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=str(ROOT)) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            probe = child.stdout.readline()
            try:
                _, err = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise BenchError("set-up child timed out") from None
        if child.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up child failed: {err.strip()[-500:]}")
        times.append((ready - start, float(probe)))
    return times


def run_untraced(loop, seconds):
    """Whole passes until the deadline (at least one)."""
    points = 0
    deadline = time.perf_counter() + seconds
    while True:
        points += loop.cycle()[0]
        if time.perf_counter() >= deadline:
            break
    loop.clock.flush()
    clock = loop.clock
    info = {
        "items_per_s": points / clock.program_seconds(),
        "items_timed": len(loop.latencies),
        "item_p50_ms": 1e3 * statistics.median(loop.latencies),
        "item_p90_ms": 1e3 * percentile(loop.latencies, 90),
        "program_seconds": clock.program_seconds(),
        "slices": len(clock.slices),
        "probe_ms_median": 1e3 * statistics.median(c for _, c in clock.slices),
    }
    return {"items_per_ref_s": points / clock.reference_seconds()}, info


def run_traced(loop, seconds, ff):
    """Alternate an untraced and a traced pass over the same items."""
    import tracing
    names = {tracing.fingerprint(ff.preset(n)): n for n in ff.PRESET_NAMES}
    cycles = []
    plain = [0, 0.0]
    traced = [0, 0.0]
    cutoffs = set()
    deadline = time.perf_counter() + seconds
    while True:
        p, b = loop.cycle()
        plain[0] += p
        plain[1] += b
        with tracing.Tracer(ff, names) as tracer:
            p, b = loop.cycle()
        traced[0] += p
        traced[1] += b
        spans = tracer.take()
        cycles.append(tracing.layer_metrics(spans, b))
        cutoffs.update(tracing.cutoffs_seen(spans))
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for key in cycles[0]:
        values = [c[key] for c in cycles]
        if tracing.LAYER_UNITS[key] in ("count", "B"):
            if len(set(values)) != 1:
                loop.run_errors.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = values[0]
        elif key.endswith("_max"):
            metrics[key] = max(values)
        else:
            metrics[key] = statistics.fmean(values)
    metrics["trace.items_per_s"] = traced[0] / traced[1]
    metrics["trace.untraced_items_per_s"] = plain[0] / plain[1]
    metrics["trace.overhead_share"] = 1.0 - traced[0] * plain[1] / (traced[1] * plain[0])
    info = {"traced_passes": len(cycles), "cutoffs_seen": sorted(cutoffs)}
    return metrics, info


@contextlib.contextmanager
def prepared(name, seed):
    """Set-up as timed by ``setup_s``: package, inputs, threads, warm-up.
    Yields (package, workload); removes the work directory afterwards."""
    import workloads
    ff = import_package()
    wl_class = workloads.WORKLOADS[name]
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    try:
        if wl_class.threads == "1":
            # One core for the program's worker and the probe alike, so the
            # probe measures the core the work ran on.
            os.sched_setaffinity(0, {min(cpus)})
        wl = wl_class(ff, seed, str(workdir))
        set_threads(wl_class.threads)
        wl.warm_up()
        yield ff, wl
    finally:
        os.sched_setaffinity(0, cpus)
        set_threads(None)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()


def run_workload(name, seed, seconds, traced, setup_times=None, reference=True):
    """One run in this process. Returns the result and the report."""
    import tracing
    with prepared(name, seed) as (ff, wl):
        ref = load_reference(name, seed) if reference is True else reference
        loop = Loop(wl, ref)
        if traced:
            metrics, info = run_traced(loop, seconds, ff)
            units = tracing.LAYER_UNITS
        else:
            metrics, info = run_untraced(loop, seconds)
            metrics["setup_s"] = statistics.median(
                t * PROBE_REF_S / probe for t, probe in setup_times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
        result = {
            "correct": loop.failed == 0 and not loop.run_errors,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        report = {
            "workload": name,
            "trace": int(traced),
            "environment": environment(seed, os.environ.get("FLOQUET_FORGE_THREADS", "auto")),
            "shape": wl.shape(),
            "run": info,
            "fail_share": loop.failed / loop.attempted,
            "errors": loop.errors + loop.run_errors,
            "reference_checked": ref is not None,
            "setup_runs": None if setup_times is None else [
                {"seconds": t, "probe_s": probe} for t, probe in setup_times],
        }
        return result, report


def setup_only(args):
    with prepared(args.workload, args.seed):
        print("ready", flush=True)
    print(repr(host_probe()), flush=True)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    rows = []
    for name in ("sweep", "scan", "cli"):
        for traced in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                                  timeout=CHILD_TIMEOUT_S + 10 * args.seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={traced} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            rows.append((name, traced, report, result))
    for name, traced, report, result in rows:
        print(f"== {name} ({'traced' if traced else 'untraced'}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"fail_share={report['fail_share']:g} run={report['run']}")
        for key, m in result["metrics"].items():
            print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
    return 0 if all(r[3]["correct"] for r in rows) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "scan", "cli", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.setup_only:
            setup_only(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        import_package()
        setup_times = None if args.trace else measure_setup(args)
        result, report = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), setup_times)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
