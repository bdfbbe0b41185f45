"""Every function and public method of the package has a caller outside its tests.

A reference implementation or helper that only tests use belongs in
``tests/``.  The guard covers every module-level function, private helpers
included, and the public methods of public classes; private methods stay
exempt (``AcceptanceBattery`` dispatches its groups by name).  A name counts
as used when code under ``src/rabizeta`` (other than its own definition and
the re-exports of ``__init__``) or under ``perfbench/`` refers to it, by
name or as an attribute.
"""

import ast
from pathlib import Path

import rabizeta

PACKAGE = Path(rabizeta.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def checked_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, private ones included, and public methods of public classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [node.name for node in tree.body if isinstance(node, functions)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [f.name for f in node.body
                      if isinstance(f, functions) and not f.name.startswith("_")]
    return found


def references(tree: ast.AST) -> set[str]:
    """Names and attributes referred to, except a function's references to itself."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_tests():
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = set()
    for path in sources + sorted(PERFBENCH.glob("*.py")):
        used |= references(ast.parse(path.read_text()))
    unused = [f"{path.name}: {name}" for path in sources
              for name in checked_definitions(ast.parse(path.read_text())) if name not in used]
    assert sources and not unused, "functions only tests use:\n" + "\n".join(unused)
