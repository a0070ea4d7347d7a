"""Every public name in aldyn is read by the package itself, or it is
documented library API.

The scan walks the modules of `src/aldyn` (not `__init__.py`, which only
re-exports) with `ast` and lists each public module-level function, class
and constant, and each public method, property and field of a class.  A
name counts as read when a line of `src/aldyn` outside its own definition
loads it:

- a module-level name, by name or as an attribute;
- a static or class method, as `Class.name` (or `self.name` / `cls.name`);
- any other member, as an attribute `.name` on any object.

A demo registered with `@_demo` is read through `demos.DEMOS`.

The last tests pin the lazy package: each name of `__all__` resolves, on
first access, to its submodule's object, and `dir`, `from aldyn import
<submodule>` and `from aldyn import *` behave as on an eager package.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import aldyn

SRC = Path(aldyn.__file__).parent

# Library API that only callers outside the package read.
LIBRARY_API = {
    "diffcalc.KForm.from_matrix",  # a degree-0 form from an algebra element
    "diffcalc.KForm.evaluate",  # w(X_1, ..., X_k)
    "quantum.MatrixSubspace.span_equals",  # criterion 08 compares commutants by span
    "quantum.MatrixSubspace.contains",  # criterion 08's double-commutant containment
    "quantum.biderivation_solver",  # the n^6 solution space perfbench checks
    "poisson.find_hamiltonian",  # the inverse searches that perfbench drives
    "poisson.find_poisson_tensor",
    "reduction.NormalizerReport.coefficients",  # the membership certificate perfbench reads
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_demo(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_demo"
        for d in node.decorator_list
    )


def _is_static(node) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
        for d in node.decorator_list
    )


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions(module: str, tree: ast.Module):
    """(qualified name, kind, node) of each public definition; kind is
    "module", "static" or "member"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _public(node.name) and not _is_demo(node):
                yield f"{module}.{node.name}", "module", node
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    names, kind = [sub.name], "static" if _is_static(sub) else "member"
                elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    names, kind = _assigned_names(sub), "member"
                else:
                    continue
                for name in filter(_public, names):
                    yield f"{module}.{node.name}.{name}", kind, sub
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in filter(_public, _assigned_names(node)):
                yield f"{module}.{name}", "module", node


def _references(tree: ast.Module):
    """(line, name, owner) for each load of a name or an attribute; owner
    is the name an attribute is read from, if it is read from a name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.lineno, node.id, None
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.lineno, node.attr, owner
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name, None


def _scan():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    defined, unread = set(), []
    for module, tree in trees.items():
        for qualname, kind, node in _definitions(module, tree):
            defined.add(qualname)
            name = qualname.rsplit(".", 1)[1]
            owners = {qualname.split(".")[1], "self", "cls"}

            def reads(ref_module, line, ref, owner):
                if ref != name or (
                    ref_module == module and node.lineno <= line <= node.end_lineno
                ):
                    return False
                return kind != "static" or owner in owners

            if not any(reads(m, *r) for m, rs in refs.items() for r in rs):
                unread.append(qualname)
    return defined, unread


def test_every_public_name_is_read_or_library_api():
    defined, unread = _scan()
    assert sorted(set(unread) - LIBRARY_API) == []


def test_library_api_names_exist():
    defined, _ = _scan()
    assert sorted(LIBRARY_API - defined) == []


def _naming(wanted: str) -> set[str]:
    """The modules of `src/aldyn` that name `wanted`, in an import or
    anywhere else."""
    return {
        path.stem
        for path in SRC.glob("*.py")
        if any(
            name == wanted
            for _, name, _ in _references(ast.parse(path.read_text(encoding="utf-8")))
        )
    }


def test_only_linalg_names_the_eliminator():
    """Every linear question goes through `linalg.solve_columns`: no module
    of `src/aldyn` but `linalg` names `SparseEliminator`, in an import or
    anywhere else, so a second way into the eliminator cannot come back
    unnoticed."""
    assert _naming("SparseEliminator") == {"linalg"}


def test_only_float_and_star_paths_read_is_theta_free():
    """The exact searches solve over Q(i), and `poly.coefficient_column`,
    which every column and target passes through, is their one theta gate.
    `is_theta_free` is read only where theta cannot enter otherwise:
    `scalars` and `poly` (the gate's `Scalar.constant` and the Laurent unit
    of `Poly.__pow__`), `derivations` and `cli` (the float flow), and `moyal`
    (the star tensor and the s-space closure), so a copy of the rule in
    `reduction` or `poisson` cannot come back unnoticed."""
    assert _naming("is_theta_free") == {"scalars", "poly", "derivations", "cli", "moyal"}


def test_only_diffcalc_builds_trusted_forms():
    """`diffcalc._kform` takes index tuples and values as they are, which
    holds only for the results of d, wedge, contract, +, - and scale: no
    module of `src/aldyn` but `diffcalc` names it, so forms built elsewhere
    go through the checks of the public `KForm`."""
    assert _naming("_kform") == {"diffcalc"}


def test_only_the_matrix_calculus_names_the_ad_table():
    """A -> [A, g] has one encoding, the flat ad table of `matrices`: no
    module of `src/aldyn` but `matrices` (which defines it), `quantum`
    (commutants and invariance) and `diffcalc` (d, the structure constants
    and exactness) names `_ad_table`, so a second encoding of the commutator
    map cannot come back unnoticed."""
    defining = {
        path.stem
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_ad_table"
    }
    assert defining == {"matrices"}
    assert _naming("_ad_table") == {"quantum", "diffcalc"}


# What an except clause may not name: Python's errors on a value of the
# wrong type or shape, and the classes that catch everything.
_CATCH_ALL = {"TypeError", "AttributeError", "KeyError", "Exception", "BaseException"}


def _handlers(node, scope: str = ""):
    """(scope, except clause) for each clause under node; scope is the
    dotted name of the classes and functions around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield scope, child
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield from _handlers(child, inner)


def test_no_handler_catches_python_errors():
    """Malformed input is refused by the readers' checks, which name its
    JSON path or option, never by catching what Python raises on it: no
    except clause of `src/aldyn` is bare or names TypeError,
    AttributeError, KeyError, Exception or BaseException, but the one in
    `GeneratorSet.index`, which re-raises its KeyError with the name asked
    for."""
    catching = set()
    for path in SRC.glob("*.py"):
        for scope, handler in _handlers(ast.parse(path.read_text(encoding="utf-8"))):
            if handler.type is None:
                names = _CATCH_ALL
            else:
                names = {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)}
            if names & _CATCH_ALL:
                catching.add(f"{path.stem}.{scope}")
    assert catching == {"poly.GeneratorSet.index"}


def test_each_public_name_is_its_modules_object():
    """The lazy package hands out the very object the defining submodule
    holds, for each name of `__all__`."""
    for name in aldyn.__all__:
        obj = getattr(aldyn, name)
        module = obj.__module__
        assert module.startswith("aldyn."), name
        assert getattr(importlib.import_module(module), name) is obj, name


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nosuch'"):
        aldyn.nosuch


def test_from_imports_of_submodules_and_star():
    from aldyn import moyal

    assert isinstance(moyal, types.ModuleType) and moyal is sys.modules["aldyn.moyal"]
    namespace = {}
    exec("from aldyn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(aldyn.__all__)


def test_dir_covers_all_before_any_submodule_loads():
    """In a fresh process, `dir(aldyn)` lists every name of `__all__` and
    loads no submodule to do so."""
    code = (
        "import sys, aldyn; names = dir(aldyn); "
        "print(sorted(set(aldyn.__all__) - set(names))); "
        "print(sorted(m for m in sys.modules if m.startswith('aldyn.')))"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "[]"]
