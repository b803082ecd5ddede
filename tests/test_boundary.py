"""The package holds only what its commands and the benchmark harness reach.

Code that only the tests call lives in ``tests/oracle.py`` and
``tests/reference.py``: ``runner._code_digest`` keys the simulation cache
on every ``glsae/*.py`` file, so verification code inside the package
would re-key the cache whenever it changed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "glsae"
EXEMPT = {("cli", "main")}  # the console-script entry point


def _names(tree: ast.AST):
    """Every identifier a module mentions: names, attributes, imports and identifier-like strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value  # e.g. a span the benchmark's tracer wraps by name


def test_every_package_function_and_class_is_named_outside_its_definition():
    named, defined = set(), []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named.update(_names(tree))
        if path.parent == PACKAGE:
            defined += [(path.stem, node.name) for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    unreached = [f"{module}.{name}" for module, name in defined
                 if name not in named and (module, name) not in EXEMPT]
    assert not unreached, f"named nowhere in src/glsae or perfbench: {unreached}"
