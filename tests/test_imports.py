"""What a command-line call imports, the lazy public namespace, and the
package's own imports.

The start-up checks run fresh interpreters and compare the sets of
modules they loaded; they measure no time.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reescalc

from test_acceptance import PROBLEMS

SRC = str(Path(reescalc.__file__).resolve().parent.parent)

# The names `reescalc` exports, by defining module.
PUBLIC = {
    "analysis": ("br_coefficients", "br_corollary_check", "buchsbaum_check",
                 "direct_sum_buchsbaum", "indecomposability_check",
                 "scaled_buchsbaum_check", "theorem12_check"),
    "closures": ("ClosureOptions", "ClosureResult", "check_integral_equation",
                 "integral_closure_module", "is_reduction",
                 "ratliff_rush_module"),
    "context": ("RingContext",),
    "errors": ("ContextMismatchError", "DeadlineExceeded", "InputError",
               "ParseError", "RankMismatchError", "ReescalcError",
               "SoundnessAlert", "UnstableChainError"),
    "groebner": ("SubmoduleData", "contains", "equal", "groebner_basis",
                 "intersect", "member"),
    "poly": ("Polynomial", "parse_poly"),
    "rees": ("INFINITE", "ModuleEmbedding", "colength", "direct_sum",
             "fitting_ideal", "is_parameter_module", "maximal_ideal",
             "min_gens", "ord_ideal", "scale_by_ideal"),
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names}

# Printed by a fresh interpreter after running the code before it.
_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def _loaded(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code + _MODULES], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_deciders_corpus_or_dataclasses():
    loaded = _loaded("import reescalc.cli")
    assert "reescalc.cli" in loaded
    assert not loaded & {"dataclasses", "reescalc.analysis",
                         "reescalc.fixtures"}


def test_package_import_loads_no_submodule():
    loaded = _loaded("import reescalc")
    assert not {m for m in loaded if m.startswith("reescalc.")}


def test_param_call_loads_no_deciders(tmp_path):
    path = tmp_path / "param.problem"
    path.write_text(PROBLEMS["param"])
    loaded = _loaded(
        "import contextlib, io\n"
        "from reescalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main(['param', {str(path)!r}]) == 0\n")
    assert "reescalc.rees" in loaded
    assert not loaded & {"dataclasses", "reescalc.analysis",
                         "reescalc.fixtures"}


def test_public_names_are_the_defining_modules_objects():
    assert len(NAMES) == 40
    assert sorted(reescalc.__all__) == sorted(NAMES)
    for name, module in NAMES.items():
        expected = getattr(importlib.import_module(f"reescalc.{module}"),
                           name)
        assert getattr(reescalc, name) is expected, name
        namespace = {}
        exec(f"from reescalc import {name}", namespace)
        assert namespace[name] is expected, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from reescalc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(NAMES)
    for name, value in namespace.items():
        assert value is getattr(reescalc, name)
    assert set(NAMES) <= set(dir(reescalc))
    assert "__version__" in dir(reescalc)


def test_unknown_name_raises_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        reescalc.no_such_name
    with pytest.raises(ImportError):
        exec("from reescalc import no_such_name", {})
    namespace = {}
    exec("from reescalc import groebner, fixtures", namespace)
    assert namespace["groebner"] is sys.modules["reescalc.groebner"]
    assert namespace["fixtures"] is sys.modules["reescalc.fixtures"]


def test_package_modules_use_every_name_they_import():
    # A name a module imports and never uses is a dependency it does not
    # have; deleting code tends to leave such names behind.
    unused = []
    for path in sorted(Path(reescalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_no_function_takes_a_deadline_parameter():
    # The deadline is ambient (ClosureOptions.deadline() opens its scope),
    # so threading one through a signature is a second mechanism.
    found = []
    for path in sorted(Path(reescalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args,
                                     *args.kwonlyargs, args.vararg,
                                     args.kwarg) if a is not None]
            if "deadline" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_public_name_is_used_inside_the_package():
    # A public name that no module of the package refers to serves only
    # callers outside it, and nothing here runs it; deleting code tends to
    # leave such names behind.
    used = set()
    for path in Path(reescalc.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(reescalc.__all__) - used) == []


def _package_trees():
    """The parsed modules of the package, by name, __init__ left out."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(reescalc.__file__).parent.glob("*.py"))
            if path.name != "__init__.py"}


def test_only_the_engine_shares_private_names():
    # groebner, rees and closures are the engine and may share helpers;
    # a decider, the front end or the corpus that reaches for one of them
    # holds a second copy of a job the engine's public names should do.
    trees = _package_trees()
    found = []
    for module in ("analysis", "cli", "fixtures", "problem"):
        for node in ast.walk(trees[module]):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("reescalc")):
                continue
            found += [f"{module}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_every_public_method_of_an_exported_class_is_read():
    # The methods and properties of the classes `reescalc` exports are
    # public surface too; one that no module reads as an attribute serves
    # only callers outside the package.
    trees = _package_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and NAMES.get(node.name) == module):
                continue
            unread += [f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_")
                       and item.name not in read]
    assert unread == []
