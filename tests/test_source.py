"""Checks on the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxkit"


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
