"""Spans around the public functions of every floquet_forge module.

The tracer replaces each public function (a name in a module's ``__all__``)
wherever a module of the package holds a reference to it, so calls made
through ``floquet.propagate_period``, ``cli.propagate_period`` or
``effective.lattice_harmonics`` are all seen. Nothing in the package is
edited; leaving the context manager restores every attribute.

A span is (id, parent id, function name, start, end, info). Its parent is the
innermost open span on the same thread; a span opened on a worker thread with
nothing open there takes the innermost open span of the thread that
installed the tracer, which is the sweep or CLI call that fed the pool. Self
time is the span's duration minus the union of its children's intervals, so
children running in parallel on pool threads are not subtracted twice.
"""

from __future__ import annotations

import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict

PACKAGE = "floquet_forge"
MODULES = (
    "cli", "config", "drive", "effective", "floquet", "kpath",
    "lattice", "presets", "selection", "serialization",
)

SWEEPS = ("floquet.scaling_errors", "floquet.error_matrix")
MATCH = ("floquet.match_distance", "floquet.match_permutation")
KPATH = ("kpath.named_kpath", "kpath.bz_grid")
WRITES = ("serialization.write_json", "serialization.write_csv")
CLI_COMMANDS = {
    "bands": "cli.bands_ms",
    "verify": "cli.verify_ms",
    "effective": "cli.effective_ms",
    "selection-rules": "cli.selection_ms",
    "fourier": "cli.fourier_ms",
}
POINT_PRESETS = ("kagome", "lieb", "zigzag")
BUILD_PRESETS = ("kagome", "lieb", "zigzag", "hexagonal")
DEFAULT_CUTOFF = 32
EXPONENTIALS_PER_STEP = 3

# Per-layer metrics of one traced cycle, with units. Times are milliseconds
# per cycle; counts are per cycle and repeat exactly for a given seed.
LAYER_UNITS = {
    "drive.harmonics_ms": "ms",
    "drive.harmonics_calls": "count",
    "drive.cutoff_escalations": "count",
    "drive.fft_useful_ratio": "ratio",
    "effective.build_self_ms": "ms",
    "effective.build_calls": "count",
    "effective.us_per_pair": "us",
    "effective.ms_per_build.kagome": "ms",
    "effective.ms_per_build.lieb": "ms",
    "effective.ms_per_build.zigzag": "ms",
    "effective.ms_per_build.hexagonal": "ms",
    "effective.bloch_self_ms": "ms",
    "lattice.bloch_matrix_ms": "ms",
    "lattice.bloch_matrix_calls": "count",
    "lattice.us_per_bloch": "us",
    "selection.enumerate_ms": "ms",
    "selection.cross_validate_ms": "ms",
    "floquet.propagate_self_ms": "ms",
    "floquet.propagate_ms": "ms",
    "floquet.propagate_calls": "count",
    "floquet.propagate_share": "ratio",
    "floquet.ms_per_point.kagome": "ms",
    "floquet.ms_per_point.lieb": "ms",
    "floquet.ms_per_point.zigzag": "ms",
    "floquet.resolutions": "count",
    "floquet.useful_resolution_ratio": "ratio",
    "floquet.substeps": "count",
    "floquet.eig_ms": "ms",
    "floquet.match_ms": "ms",
    "floquet.match_calls": "count",
    "floquet.sweep_self_ms": "ms",
    "floquet.pool_efficiency": "ratio",
    "cli.bands_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.effective_ms": "ms",
    "cli.selection_ms": "ms",
    "cli.fourier_ms": "ms",
    "cli.self_ms": "ms",
    "cli.bands_pool_efficiency": "ratio",
    "serialization.write_ms": "ms",
    "serialization.bytes": "B",
    "config.load_ms": "ms",
    "kpath.ms": "ms",
    "floquet.unitarity_max": "1",
    "floquet.doubling_change_max": "1",
    "trace.wall_ms": "ms",
    "trace.attributed_share": "ratio",
    "trace.items_per_s": "1/s",
    "trace.untraced_items_per_s": "1/s",
    "trace.overhead_share": "ratio",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "floquet.propagate_calls",
    "floquet.resolutions",
    "floquet.substeps",
    "lattice.bloch_matrix_calls",
    "drive.cutoff_escalations",
    "serialization.bytes",
)


_SIGNATURES = {}


def _bound(fn, args, kwargs):
    """Arguments of one call by parameter name, defaults filled in."""
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _threads():
    from floquet_forge import floquet
    fn = floquet.thread_count
    return getattr(fn, "__wrapped__", fn)()


class Tracer:
    """Context manager that wraps the package's public functions.

    ``lattice_names`` maps a lattice fingerprint (see :func:`fingerprint`) to
    a preset name so per-point propagation cost can be split by lattice.
    """

    def __init__(self, package, lattice_names):
        self._package = package
        self._lattice_names = lattice_names
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patched = []
        self.spans = []

    def __enter__(self):
        modules = [self._package] + [
            __import__(f"{PACKAGE}.{m}", fromlist=["_"]) for m in MODULES
        ]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{name}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        self._main_stack = self._stack()
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        info_of = _INFO.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                try:
                    parent = main[-1] if main else None
                except IndexError:
                    parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = info_of(tracer, fn, args, kwargs, result) if info_of else None
            tracer.spans.append((sid, parent, name, start, end, info))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def fingerprint(lattice):
    return (lattice.dimension, lattice.basis_count, len(lattice.bonds))


def composable_pairs(lattice):
    return sum(
        1 for b1 in lattice.bonds for b2 in lattice.bonds
        if b2.source_basis == b1.target_basis
    )


def _harmonics_info(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    cutoff = next(iter(result.values())).cutoff if result else DEFAULT_CUTOFF
    auto = a["cutoff"] is None
    escalations = int(round(math.log2(cutoff / DEFAULT_CUTOFF))) if auto else 0
    return {"escalations": escalations, "cutoff": cutoff}


def _build_info(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"pairs": composable_pairs(a["lattice"]), "cutoff": result.cutoff,
            "lattice": tracer._lattice_names.get(fingerprint(a["lattice"]))}


def _propagate_info(tracer, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    start = int(a["steps"])
    resolutions, substeps, s = 0, 0, start
    while True:
        resolutions += 1
        substeps += s * EXPONENTIALS_PER_STEP
        if s >= result.steps or not a["refine"]:
            break
        s *= 2
    return {
        "lattice": tracer._lattice_names.get(fingerprint(a["lattice"])),
        "resolutions": resolutions,
        "substeps": substeps,
        "unitarity": float(result.unitarity_error),
        "doubling": float(result.step_doubling_change),
    }


def _sweep_info(tracer, fn, args, kwargs, result):
    return {"threads": _threads()}


def _write_info(tracer, fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _cli_info(tracer, fn, args, kwargs, result):
    argv = _bound(fn, args, kwargs)["argv"] or []
    info = {"command": argv[0] if argv else None}
    if info["command"] == "bands":
        info["threads"] = _threads()
    return info


_INFO = {
    "drive.lattice_harmonics": _harmonics_info,
    "effective.build_effective_model": _build_info,
    "floquet.propagate_period": _propagate_info,
    "floquet.scaling_errors": _sweep_info,
    "floquet.error_matrix": _sweep_info,
    "serialization.write_json": _write_info,
    "serialization.write_csv": _write_info,
    "cli.main": _cli_info,
}


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _pool_efficiency(parents, propagates):
    """Busy propagation time over threads x propagation-phase wall."""
    busy = wall = 0.0
    for sid, threads in parents:
        mine = propagates.get(sid, [])
        if not mine:
            continue
        start = min(s for s, _ in mine)
        end = max(e for _, e in mine)
        busy += sum(e - s for s, e in mine)
        wall += min(threads, len(mine)) * (end - start)
    return busy / wall if wall > 0 else 0.0


def layer_metrics(spans, wall_s):
    """Aggregate one cycle's spans into the per-layer metrics (no trace.*
    rates, which the caller adds)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)

    def self_time(s):
        lo, hi = s[3], s[4]
        covered = [(max(c[3], lo), min(c[4], hi)) for c in children[s[0]]]
        return (hi - lo) - _union_length([iv for iv in covered if iv[1] > iv[0]])

    def has_ancestor_in(s, names):
        p = s[1]
        while p is not None and p in by_id:
            if by_id[p][2] in names:
                return True
            p = by_id[p][1]
        return False

    def outer(names):
        return [s for s in spans if s[2] in names and not has_ancestor_in(s, names)]

    def incl_ms(names):
        return 1e3 * sum(s[4] - s[3] for s in outer(names))

    def self_ms(names):
        return 1e3 * sum(self_time(s) for s in spans if s[2] in names)

    def named(name):
        return [s for s in spans if s[2] == name]

    m = {}
    harm = named("drive.lattice_harmonics")
    esc = sum(s[5]["escalations"] for s in harm)
    m["drive.harmonics_ms"] = incl_ms(("drive.lattice_harmonics",))
    m["drive.harmonics_calls"] = len(harm)
    m["drive.cutoff_escalations"] = esc
    m["drive.fft_useful_ratio"] = len(harm) / (len(harm) + esc) if harm else 0.0

    builds = named("effective.build_effective_model")
    pairs = sum(s[5]["pairs"] for s in builds)
    m["effective.build_self_ms"] = self_ms(("effective.build_effective_model",))
    m["effective.build_calls"] = len(builds)
    m["effective.us_per_pair"] = 1e3 * m["effective.build_self_ms"] / pairs if pairs else 0.0
    for name in BUILD_PRESETS:
        mine = [s for s in builds if s[5]["lattice"] == name]
        m[f"effective.ms_per_build.{name}"] = (
            1e3 * sum(s[4] - s[3] for s in mine) / len(mine) if mine else 0.0
        )
    m["effective.bloch_self_ms"] = self_ms(("effective.effective_bloch",))

    bloch = named("lattice.bloch_matrix")
    m["lattice.bloch_matrix_ms"] = incl_ms(("lattice.bloch_matrix",))
    m["lattice.bloch_matrix_calls"] = len(bloch)
    m["lattice.us_per_bloch"] = 1e3 * m["lattice.bloch_matrix_ms"] / len(bloch) if bloch else 0.0

    m["selection.enumerate_ms"] = incl_ms(("selection.enumerate_processes",))
    m["selection.cross_validate_ms"] = incl_ms(("selection.cross_validate",))

    props = named("floquet.propagate_period")
    resolutions = sum(s[5]["resolutions"] for s in props)
    m["floquet.propagate_self_ms"] = self_ms(("floquet.propagate_period",))
    m["floquet.propagate_ms"] = incl_ms(("floquet.propagate_period",))
    m["floquet.propagate_calls"] = len(props)
    m["floquet.propagate_share"] = m["floquet.propagate_ms"] / (1e3 * wall_s) if wall_s > 0 else 0.0
    for name in POINT_PRESETS:
        mine = [s for s in props if s[5]["lattice"] == name]
        m[f"floquet.ms_per_point.{name}"] = (
            1e3 * sum(s[4] - s[3] for s in mine) / len(mine) if mine else 0.0
        )
    m["floquet.resolutions"] = resolutions
    m["floquet.useful_resolution_ratio"] = len(props) / resolutions if resolutions else 0.0
    m["floquet.substeps"] = sum(s[5]["substeps"] for s in props)
    m["floquet.eig_ms"] = incl_ms(("floquet.quasienergies_from_propagator",))
    m["floquet.match_ms"] = incl_ms(MATCH)
    m["floquet.match_calls"] = len(outer(MATCH))
    m["floquet.sweep_self_ms"] = self_ms(SWEEPS)

    prop_by_parent = defaultdict(list)
    for s in props:
        prop_by_parent[s[1]].append((s[3], s[4]))
    sweeps = [(s[0], s[5]["threads"]) for s in spans if s[2] in SWEEPS]
    m["floquet.pool_efficiency"] = _pool_efficiency(sweeps, prop_by_parent)

    mains = named("cli.main")
    for command, key in CLI_COMMANDS.items():
        m[key] = 1e3 * sum(s[4] - s[3] for s in mains if s[5]["command"] == command)
    m["cli.self_ms"] = self_ms(("cli.main",))
    bands = [(s[0], s[5]["threads"]) for s in mains if s[5]["command"] == "bands"]
    m["cli.bands_pool_efficiency"] = _pool_efficiency(bands, prop_by_parent)

    m["serialization.write_ms"] = incl_ms(WRITES)
    m["serialization.bytes"] = sum(s[5]["bytes"] for s in spans if s[2] in WRITES)
    m["config.load_ms"] = incl_ms(("config.load_config",))
    m["kpath.ms"] = incl_ms(KPATH)

    m["floquet.unitarity_max"] = max((s[5]["unitarity"] for s in props), default=0.0)
    m["floquet.doubling_change_max"] = max(
        (s[5]["doubling"] for s in props if not math.isnan(s[5]["doubling"])), default=0.0
    )

    m["trace.wall_ms"] = 1e3 * wall_s
    roots = [(s[3], s[4]) for s in spans if s[1] is None]
    m["trace.attributed_share"] = _union_length(roots) / wall_s if wall_s > 0 else 0.0
    return m


def cutoffs_seen(spans):
    return sorted({s[5]["cutoff"] for s in spans if s[2] == "drive.lattice_harmonics"})
