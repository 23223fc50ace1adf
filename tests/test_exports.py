"""Every exported name resolves, and each module exports only what it defines."""

import ast
import importlib
import inspect
import pkgutil

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


def test_each_module_exports_only_names_it_defines():
    for mod in MODULES:
        exported = getattr(mod, "__all__", None)
        assert exported is not None, mod.__name__
        assert len(set(exported)) == len(exported), mod.__name__
        defined = _defined(mod)
        for name in exported:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name in defined, f"{mod.__name__} exports {name} but does not define it"
