"""Every exported name resolves, and each module exports only what it defines."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import floquet_forge

MODULES = [
    importlib.import_module(f"floquet_forge.{m.name}")
    for m in pkgutil.iter_modules(floquet_forge.__path__)
]


def _defined(module) -> set:
    """Top-level names a module's own source binds by def, class or assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_exports_resolve_to_module_exports():
    exported = floquet_forge.__all__
    assert len(set(exported)) == len(exported)
    from_modules = {n for mod in MODULES for n in getattr(mod, "__all__", ())}
    for name in exported:
        assert hasattr(floquet_forge, name), name
        assert name in from_modules or name == "__version__", name


def test_public_api_is_pinned():
    # every exported name; an added or removed export shows up here
    assert sorted(floquet_forge.__all__) == [
        "Bond", "BondHarmonics", "ConsistencyError", "ConsistencyVerdict",
        "ConvergenceError", "Coupling", "CouplingClass", "CutoffTooSmallError",
        "DriveSpec", "EffectiveModel", "Gauge", "Geometry", "Harmonic", "KPath",
        "LatticeSpec", "OffsetMatrix", "PRESET_NAMES", "PowerLawFit", "ProcessClass",
        "ProcessReport", "QuasiSpectrum", "TwoStepProcess", "ValidationError",
        "__version__", "beta_static_free", "bloch_hamiltonian_t", "bloch_matrix",
        "build_effective_model", "bz_grid", "circular_drive", "classify_geometry",
        "cross_validate", "effective_bloch", "enumerate_processes", "error_matrix",
        "fit_power_law", "fold", "high_symmetry_points", "lattice_harmonics",
        "linear_drive", "magnus_commutator_probe", "match_distance", "match_permutation",
        "named_kpath", "phase", "preset", "propagate_period",
        "quasienergies_from_propagator", "reciprocal_vectors", "rescale_drive",
        "scaling_errors",
    ]


def test_each_module_exports_only_names_it_defines():
    for mod in MODULES:
        exported = getattr(mod, "__all__", None)
        assert exported is not None, mod.__name__
        assert len(set(exported)) == len(exported), mod.__name__
        defined = _defined(mod)
        for name in exported:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name in defined, f"{mod.__name__} exports {name} but does not define it"


def _cache_decorators(tree):
    """(function name, decorator) for every functools cache decorator."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "attr", getattr(target, "id", ""))
                if name in ("lru_cache", "cache"):
                    yield node.name, dec


def _bounded(dec) -> bool:
    if not isinstance(dec, ast.Call):
        return False
    sizes = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
    return (
        len(sizes) == 1
        and isinstance(sizes[0], ast.Constant)
        and type(sizes[0].value) is int
        and sizes[0].value > 0
    )


def test_every_cache_has_an_explicit_finite_maxsize():
    # the caches hold strong references to specs and arrays; an unbounded one
    # would grow with every lattice or drive a long scan creates. The list is
    # exact: the propagator keeps its reuse state only for one sweep, and a
    # lattice keeps its own pair table
    found = []
    for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py")):
        for name, dec in _cache_decorators(ast.parse(path.read_text())):
            found.append(name)
            assert _bounded(dec), f"{path.name}: {name} needs lru_cache(maxsize=<positive int>)"
    assert sorted(found) == ["_offset_stack", "_process_report"]
    # the check itself can fail
    sample = "\n".join(
        f"@{dec}\ndef f{i}(x): pass"
        for i, dec in enumerate(
            ("functools.lru_cache", "functools.lru_cache(maxsize=None)", "functools.cache",
             "lru_cache(maxsize=0)", "lru_cache(8)", "functools.lru_cache(maxsize=8)")
        )
    )
    verdicts = [_bounded(d) for _, d in _cache_decorators(ast.parse(sample))]
    assert verdicts == [False, False, False, False, True, True]


def _pool_owners(tree):
    """The top-level function (or class, or '<module>') around every
    ThreadPoolExecutor construction."""
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "attr", getattr(call.func, "id", ""))
                if name == "ThreadPoolExecutor":
                    yield owner


def test_one_thread_pool_helper_builds_every_pool():
    # sweeps and cli bands share one pool policy; a second pool would fork it
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _pool_owners(ast.parse(path.read_text()))
    ]
    assert found == [("floquet.py", "_on_pool")]
    # the check itself can fail
    sample = (
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def _on_pool(task, keys):\n"
        "    with ThreadPoolExecutor(max_workers=2) as pool: pass\n"
        "def bands():\n"
        "    def task(): pass\n"
        "    with concurrent.futures.ThreadPoolExecutor() as pool: pass\n"
    )
    assert list(_pool_owners(ast.parse(sample))) == ["_on_pool", "bands"]


def _int_calls(tree):
    """The top-level function (or class, or '<module>') around every call of
    the builtin ``int``."""
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "int":
                yield owner


def test_integers_are_read_through_one_rule():
    # int() truncates 0.5 to 0 and reads True as 1; every integer input goes
    # through lattice._integer instead. Only rendering (serialization) and the
    # FLOQUET_FORGE_THREADS text (floquet.thread_count) may call it.
    found = {
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _int_calls(ast.parse(path.read_text()))
        if path.name != "serialization.py"
    }
    assert found == {("floquet.py", "thread_count")}
    # the check itself can fail
    sample = (
        "n = int(text)\n"
        "def thread_count():\n"
        "    return int(raw)\n"
        "def bz_grid(lattice, per_axis):\n"
        "    per_axis = int(per_axis)\n"
        "    return np.zeros(per_axis, dtype=int)\n"
        "class OffsetMatrix:\n"
        "    def __post_init__(self):\n"
        "        self.offset = tuple(int(x) for x in self.offset)\n"
    )
    assert list(_int_calls(ast.parse(sample))) == [
        "<module>", "thread_count", "bz_grid", "OffsetMatrix"
    ]


def _owners(tree, found):
    """The top-level function (or class, or '<module>') around every node
    for which ``found`` holds, once per top-level statement, in order."""
    for node in tree.body:
        if any(found(sub) for sub in ast.walk(node)):
            yield getattr(node, "name", "<module>")


def _reads_prune_tol(node) -> bool:
    """A node that reads or range-checks a pruning tolerance: "prune_tol" as
    a call's field name or at the head of an f-string message, or a
    comparison or ``isfinite`` call on a name ``prune_tol``."""
    if isinstance(node, ast.Call) and any(
        isinstance(a, ast.Constant) and a.value == "prune_tol" for a in node.args
    ):
        return True
    if isinstance(node, ast.JoinedStr):
        head = node.values[0] if node.values else None
        return isinstance(head, ast.Constant) and str(head.value).startswith("prune_tol")
    checked = isinstance(node, ast.Compare) or (
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "isfinite"
    )
    return checked and any(getattr(n, "id", None) == "prune_tol" for n in ast.walk(node))


def test_prune_tol_is_read_through_one_rule():
    # effective._prune_tol is the one reader of a pruning tolerance, for the
    # model builder, cross_validate and --prune alike; a second reader would
    # be a second rule, as when the builder took inf and cross_validate did not
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _owners(ast.parse(path.read_text()), _reads_prune_tol)
    ]
    assert found == [("effective.py", "_prune_tol")]
    # --prune has no numeric check of its own either: the command line
    # imports no numpy
    cli = ast.parse((Path(floquet_forge.__file__).parent / "cli.py").read_text())
    imported = [a.name for n in ast.walk(cli) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(cli) if isinstance(n, ast.ImportFrom) and n.module]
    assert not [m for m in imported if m.split(".")[0] == "numpy"]
    # the check itself can fail
    sample = (
        "tol = _real(text, 'prune_tol')\n"
        "def build_effective_model(lattice, drive, prune_tol=1e-10):\n"
        "    if not prune_tol >= 0:\n"
        "        raise ValidationError(f'prune_tol must be >= 0, got {prune_tol}')\n"
        "def cross_validate(report, model, prune_tol):\n"
        "    return np.isfinite(prune_tol)\n"
        "def _tolerance(text):\n"
        "    return _prune_tol(float(text))\n"
        "class Cut:\n"
        "    def check(self, value):\n"
        "        raise ValidationError(f'prune_tol must be finite, got {value}')\n"
    )
    assert list(_owners(ast.parse(sample), _reads_prune_tol)) == [
        "<module>", "build_effective_model", "cross_validate", "Cut"
    ]


def _windows_harmonics(node) -> bool:
    """A definition of ``_split`` or a slice of an attribute ``coefficients``,
    the (2N+1) window of a bond's harmonics."""
    if isinstance(node, ast.FunctionDef):
        return node.name == "_split"
    return (
        isinstance(node, ast.Subscript)
        and getattr(node.value, "attr", None) == "coefficients"
        and any(isinstance(n, ast.Slice) for n in ast.walk(node.slice))
    )


def test_the_harmonic_window_is_split_in_one_place():
    # drive._split alone cuts a coefficient window into g^n, g^{-n} and g^0;
    # a method or function that slices the window again is a second owner
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _owners(ast.parse(path.read_text()), _windows_harmonics)
    ]
    assert found == [("drive.py", "_split")]
    # the check itself can fail
    sample = (
        "def _split(G):\n"
        "    return G[:, 1:]\n"
        "class BondHarmonics:\n"
        "    def positive(self):\n"
        "        return self.coefficients[self.cutoff + 1:]\n"
        "def coeff(h, n):\n"
        "    return h.coefficients[n + h.cutoff]\n"
        "def beta(h1, h2):\n"
        "    return h1.coefficients[None, ::-1] * h2.coefficients[0]\n"
    )
    assert list(_owners(ast.parse(sample), _windows_harmonics)) == ["_split", "BondHarmonics", "beta"]


def _unique_calls(tree):
    """The top-level function (or class, or '<module>') around every call of
    numpy's ``unique``, as ``np.unique``, ``numpy.unique`` or an imported
    ``unique``."""
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for a in node.names
        if a.name == "unique"
    }
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (
                isinstance(f, ast.Attribute) and f.attr == "unique"
                and getattr(f.value, "id", "") in ("np", "numpy")
            ) or getattr(f, "id", None) in imported:
                yield owner


def test_no_numpy_unique_in_src():
    # the first np.unique call in a process raises peak RSS by about 0.8 MB
    # (fresh interpreter, ru_maxrss), which every verify run paid inside its
    # fit; len(set(...)) counts distinct values without it, and an earlier
    # np.unique draft read +0.9% cli peak_rss_mb in the benchmark
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _unique_calls(ast.parse(path.read_text()))
    ]
    assert found == []
    # the check itself can fail
    sample = (
        "import numpy as np\n"
        "from numpy import unique as u\n"
        "n = np.unique(x).size\n"
        "def fit_power_law(x):\n"
        "    return len(set(x.tolist())), numpy.unique(x)\n"
        "class Table:\n"
        "    def rows(self):\n"
        "        return u(self.rows, axis=0), self.unique(), unique(x)\n"
    )
    assert list(_unique_calls(ast.parse(sample))) == ["<module>", "fit_power_law", "Table"]


def _add_at_calls(tree):
    """The top-level function (or class, or '<module>') around every call of
    numpy's ``add.at``, as ``np.add.at``, ``numpy.add.at`` or the ``at`` of
    an imported ``add``."""
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for a in node.names
        if a.name == "add"
    }
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if not (isinstance(f, ast.Attribute) and f.attr == "at"):
                continue
            ufunc = f.value
            if (
                isinstance(ufunc, ast.Attribute) and ufunc.attr == "add"
                and getattr(ufunc.value, "id", "") in ("np", "numpy")
            ) or getattr(ufunc, "id", None) in imported:
                yield owner


def test_offset_blocks_are_scattered_in_one_place():
    # lattice._scatter is the one placement of bond and pair amplitudes into
    # offset blocks, in the order the pair table lists them; a second
    # np.add.at would be a second scatter with its own order
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _add_at_calls(ast.parse(path.read_text()))
    ]
    assert found == [("lattice.py", "_scatter")]
    # the check itself can fail
    sample = (
        "import numpy as np\n"
        "from numpy import add as plus\n"
        "np.add.at(m, i, v)\n"
        "def order0(m):\n"
        "    numpy.add.at(m, i, v); np.add(m, v); m.at(0)\n"
        "class Table:\n"
        "    def rows(self):\n"
        "        plus.at(self.m, i, v); np.subtract.at(self.m, i, v)\n"
    )
    assert list(_add_at_calls(ast.parse(sample))) == ["<module>", "order0", "Table"]


def _trusted_uses(tree):
    """The top-level function (or class, or '<module>') around every read of
    an attribute named ``_trusted``, called or passed on."""
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for use in ast.walk(node):
            if isinstance(use, ast.Attribute) and use.attr == "_trusted" and isinstance(use.ctx, ast.Load):
                yield owner


def test_unchecked_blocks_come_from_three_builders():
    # OffsetMatrix._trusted skips the public checks, so only builders that
    # make the block from the package's own read-only arrays may use it; a
    # block read from a caller's values (from_offset_dict, bloch_matrix's
    # arguments) goes through the public constructor
    found = [
        (path.name, owner)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for owner in _trusted_uses(ast.parse(path.read_text()))
    ]
    assert found == [
        ("effective.py", "_order0_from_harmonics"),
        ("effective.py", "_order1_from_harmonics"),
        ("floquet.py", "offset_matrices_at_time"),
    ]
    # the check itself can fail
    sample = (
        "om = lattice.OffsetMatrix._trusted((0,), m)\n"
        "def _order0_from_harmonics(lattice, G):\n"
        "    return tuple(map(OffsetMatrix._trusted, offsets, blocks))\n"
        "def from_offset_dict(table):\n"
        "    return tuple(OffsetMatrix._trusted(k, v) for k, v in sorted(table.items()))\n"
        "class OffsetMatrix:\n"
        "    @classmethod\n"
        "    def _trusted(cls, offset, matrix):\n"
        "        return '._trusted', cls._checked\n"
    )
    assert list(_trusted_uses(ast.parse(sample))) == [
        "<module>", "_order0_from_harmonics", "from_offset_dict"
    ]


def _bool_checks(tree):
    """The top-level function (or class, or '<module>') around every
    ``isinstance`` check for ``bool`` or ``np.bool_``, alone or in a tuple."""
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "isinstance":
                kinds = call.args[1].elts if isinstance(call.args[1], ast.Tuple) else call.args[1:]
                if any(getattr(k, "id", getattr(k, "attr", "")) in ("bool", "bool_") for k in kinds):
                    yield owner


def test_bools_are_refused_in_one_module():
    # a bool is an int to Python and a number to numpy's casts; reading
    # refuses it only in lattice's readers, and only serialization (which
    # renders True as true) may test for it besides
    found = {
        path.name
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for _ in _bool_checks(ast.parse(path.read_text()))
    }
    assert found == {"lattice.py", "serialization.py"}
    # the check itself can fail
    sample = (
        "ok = isinstance(x, int)\n"
        "def _is_number(value):\n"
        "    return isinstance(value, (int, float)) and not isinstance(value, bool)\n"
        "def render(value):\n"
        "    return isinstance(value, (np.bool_, int))\n"
        "class Bond:\n"
        "    def __post_init__(self):\n"
        "        flag = bool(self.amplitude) or isinstance(self.amplitude, (numpy.bool_,))\n"
    )
    assert list(_bool_checks(ast.parse(sample))) == ["_is_number", "render", "Bond"]


def _parameter_casts(tree, exported):
    """(owner, parameter) for every ``np.asarray``/``np.array`` call with a
    ``dtype`` that casts a parameter of an exported function, or of a method
    of an exported class, as given."""
    for node in tree.body:
        if getattr(node, "name", None) not in exported:
            continue
        functions = [node] if isinstance(node, ast.FunctionDef) else [
            f for f in getattr(node, "body", ()) if isinstance(f, ast.FunctionDef)
        ]
        for fn in functions:
            params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
            for call in ast.walk(fn):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "attr", "") in ("asarray", "array")
                    and any(k.arg == "dtype" for k in call.keywords)
                    and call.args
                    and getattr(call.args[0], "id", None) in params
                ):
                    yield node.name, call.args[0].id


def test_exported_functions_read_their_arguments_through_one_rule():
    # np.asarray(x, dtype=float) reads "1.5" as 1.5 and True as 1.0; every
    # exported argument goes through lattice._numbers (or _real) instead
    found = [
        (mod.__name__, owner, param)
        for mod in MODULES
        for owner, param in _parameter_casts(ast.parse(inspect.getsource(mod)), set(mod.__all__))
    ]
    assert found == []
    # the check itself can fail
    sample = (
        "def fold(values, omega):\n"
        "    return np.asarray(values, dtype=float)\n"
        "def phase(drive, a, t):\n"
        "    a = _numbers(a, 'a', float)\n"
        "    return numpy.array(t, dtype=complex), np.asarray(a)\n"
        "def _private(v):\n"
        "    return np.asarray(v, dtype=float)\n"
        "class Spec:\n"
        "    def at(self, bond, x):\n"
        "        return np.asarray(bond.offset, dtype=float) @ np.array(x, dtype=float)\n"
        "def bands(lattice):\n"
        "    return np.array(lattice, dtype=object)\n"
    )
    exported = {"fold", "phase", "Spec", "bands"}
    assert list(_parameter_casts(ast.parse(sample), exported)) == [
        ("fold", "values"), ("phase", "t"), ("Spec", "x"), ("bands", "lattice")
    ]


def _loads(tree):
    """Every name and attribute the code under ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _unused_exports(exported, src_trees, bench_trees, readme):
    """Exported names that no source module reads outside the name's own
    top-level definition, no benchmark script reads, and the README does not
    name. Docstrings and strings do not count."""
    used = set()
    for tree in src_trees:
        for node in tree.body:
            owner = getattr(node, "name", None)
            used.update(name for name in _loads(node) if name != owner)
    for tree in bench_trees:
        used.update(_loads(tree))
    return [
        name for name in exported
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]


def test_every_export_is_used_outside_the_tests():
    # the package exports what the CLI, the benchmark or a documented call
    # uses; an oracle only tests call belongs in tests/helpers.py
    root = Path(__file__).resolve().parents[1]
    src = [ast.parse(p.read_text()) for p in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((root / "bench").glob("*.py"))]
    readme = (root / "README.md").read_text()
    assert _unused_exports(floquet_forge.__all__, src, bench, readme) == []
    # the check itself can fail
    sample_src = [ast.parse(
        'def helper(x):\n'
        '    """Calls docstring_only."""\n'
        '    return helper(x)\n'
        'class Spec:\n'
        '    def at(self):\n'
        '        return Spec()\n'
        'def run(ff):\n'
        '    return fold(1.0, 2.0), ff.scan, "string_only"\n'
    )]
    sample_bench = [ast.parse("ff.bench_only()\n")]
    readme = "Call `documented`; `undocumented_x` is another name."
    exported = ["helper", "Spec", "fold", "scan", "bench_only", "documented",
                "undocumented", "docstring_only", "string_only"]
    assert _unused_exports(exported, sample_src, sample_bench, readme) == [
        "helper", "Spec", "undocumented", "docstring_only", "string_only"
    ]


def _unused_imports(tree):
    """Names a module imports but never reads (``__future__`` and star
    imports aside)."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in loaded]


def test_src_imports_are_used():
    # an import nothing reads is dead weight that no linter here flags. The
    # one exception: bench/selftest.py reads cli.propagate_period to check
    # that the tracer restores it (ROADMAP item 1 removes that pin)
    allowed = {("cli.py", "propagate_period")}
    found = [
        (path.name, name)
        for path in sorted(Path(floquet_forge.__file__).parent.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert [f for f in found if f not in allowed] == []
    # the check itself can fail
    sample = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from .drive import *\n"
        "from .lattice import _check_k, bloch_matrix as bm\n"
        "def f(k: np.ndarray):\n"
        "    return bm(os.sep, k)\n"
    )
    assert _unused_imports(ast.parse(sample)) == ["_check_k"]
    assert _unused_imports(ast.parse("import sys\nx = y.sys\n")) == ["sys"]


def test_helpers_outside_the_api_stay_importable_but_unexported():
    from floquet_forge import floquet, lattice

    helpers = [
        (floquet, "thread_count"),
        (floquet, "offset_matrices_at_time"),
        (floquet, "commutator_offsets"),
        (lattice, "offset_dict"),
        (lattice, "from_offset_dict"),
    ]
    for mod, name in helpers:
        assert callable(getattr(mod, name)), name
        assert name not in mod.__all__, name
        assert not hasattr(floquet_forge, name), name
