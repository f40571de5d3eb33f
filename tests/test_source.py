"""Checks on the library source itself."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxkit"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def test_no_assert_statements_in_library():
    """`python -O` deletes assert statements, so a self-check in the
    library must raise explicitly."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found


def test_library_reads_no_environment():
    """Every setting of the library is an argument or an option: no module
    reads or writes the environment (`os.environ`, `os.getenv`, `os.putenv`)."""
    names = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == "os")
            or (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in names for alias in node.names))
        ]
    assert not found, found


def test_vanishing_operators_are_capped():
    """Every `VanishingOperator(...)` of the library is built inside
    `blowup._vanishing_operator`, which counts the matrix entries first and
    raises past INTERPOLATION_ENTRY_CAP.  Built without that check, the
    order-267 operator of P(40, 41, 43) at k = 164 lists 35,323 points for
    a 35,778 x 35,323 matrix: `test_large_triples_refused_at_caps` then ran
    for over 10 minutes without finishing.  Lists each call outside the
    helper by its line."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_vanishing_operator":
                allowed |= set(ast.walk(node))
        found += [
            "capped" if node in allowed else f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "VanishingOperator"
        ]
    assert found == ["capped"], found


def test_one_cone_conversion_routine():
    """Each exact job has one routine.  The double description is called
    through `_extreme_rays_of_halfspaces` only inside
    `polyhedra.dd_convert`, whose facet form is the dual of the cone the
    facets generate, and rational vectors are cleared of denominators
    only by `linalg._clear_denominators`.  Lists each call outside
    `dd_convert` by its line, and each definition by its module."""
    calls, definitions = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name == "dd_convert" and path.name == "polyhedra.py":
                    allowed |= set(ast.walk(node))
                if node.name == "_clear_denominators":
                    definitions.append(path.name)
        calls += [
            "in dd_convert" if node in allowed else f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "_extreme_rays_of_halfspaces"
        ]
    assert set(calls) == {"in dd_convert"}, calls
    assert definitions == ["linalg.py"], definitions


def test_only_the_two_cleared_caches():
    """The library's only functools caches are `chambers._subset_cone` and
    `fans.fan_predicates`, the two that the benchmark clears before each
    pass (perfbench/workloads.py).  A cache of any other result would
    outlive the pass that filled it, so every pass after the first would
    run warm and a measured gain would be false.  Lists each function a
    cache decorator wraps, and any other use of one by its line."""
    names = {"lru_cache", "cache", "cached_property"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "id", getattr(target, "attr", None)) in names:
                        found.add(f"{path.stem}.{node.name}")
                        decorators.add(target)
        for node in ast.walk(tree):
            if node not in decorators and getattr(node, "id", getattr(node, "attr", None)) in names:
                if isinstance(node, (ast.Name, ast.Attribute)):
                    found.add(f"{path.name}:{node.lineno}")
    assert found == {"chambers._subset_cone", "fans.fan_predicates"}


def test_every_public_name_is_used_by_the_library():
    """A public top-level function or class of the library is named by
    library code outside its own definition, or exported: imported into
    `__init__.py`.  Anything else is dead code."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    definitions = []
    uses = []  # (definition node or None, names referenced under it)
    for module, tree in trees.items():
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias) and module == "__init__.py":
                    names.add(node.name)
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not stmt.name.startswith("_"):
                definitions.append((module, stmt))
            uses.append((stmt, names))
    unused = [
        f"{module[:-3]}.{stmt.name}"
        for module, stmt in definitions
        if not any(stmt.name in names for owner, names in uses if owner is not stmt)
    ]
    assert not unused, unused


def numpy_loaded_after(commands):
    """Run coxkit.cli.main on each command line in a fresh interpreter;
    returns whether numpy was imported by then."""
    script = (
        "import sys, coxkit, coxkit.cli\n"
        f"for argv in {commands!r}:\n"
        "    if coxkit.cli.main(argv) != 0:\n"
        "        raise SystemExit(2)\n"
        "print('\\nnumpy loaded:', 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1] == "numpy loaded: True"


def test_numpy_is_loaded_only_by_the_gf_p_proof():
    """Importing the CLI and running commands that prove no h0 never load
    numpy; blowup-analyze, whose proof is a GF(p) elimination, does."""
    assert not numpy_loaded_after([
        ["lm-project", "--n", "10", "--json"],
        ["classgroup", "--fan", str(DATA / "fan_p2.json")],
        ["chambers", "--grading", str(DATA / "grading_f1.json")],
    ])
    assert numpy_loaded_after([["blowup-analyze", "--weights", "12,13,17", "--k", "51"]])
