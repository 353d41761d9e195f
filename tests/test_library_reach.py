"""Every function of the library is reached by code outside the tests.

An AST scan over ``src/ferrosolve``, ``demos/`` and the ``perfbench/*.py``
modules.  The module-level code of all of them, and every function of
``demos`` and ``perfbench``, is reached; so is each name that
``perfbench/tracing.py`` wraps by its string.  A name in the package's
``__all__`` is not reached by being listed there.  A library function or
method is reached when its name is used (as a name or an attribute) by
reached code, and its body is reached code from then on, until nothing
changes.  A library function that only tests call belongs in the tests, as
an oracle independent of the code it checks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: reached without a call in the scanned code, and why
ALLOWED = {
    "_ArgumentParser.error": "argparse calls it on a usage error",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _uses(nodes):
    """Names and attribute names among ``nodes``."""
    return {_name(node) for node in nodes} - {None}


def _strings(node):
    """The identifier strings under ``node``."""
    return {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str) and sub.value.isidentifier()}


def _library_functions(tree):
    """(qualified name, def node) of the module functions and class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def unreached():
    """Qualified names of the library functions that no reached code uses."""
    functions = {}
    reached = set()
    for path in sorted((ROOT / "src" / "ferrosolve").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = dict(_library_functions(tree))
        for qual, node in defs.items():
            functions[f"{path.stem}:{qual}"] = node
        inside = {id(sub) for node in defs.values() for sub in ast.walk(node)}
        reached |= _uses(sub for sub in ast.walk(tree) if id(sub) not in inside)
    for path in sorted([*(ROOT / "demos").glob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        reached |= _uses(ast.walk(tree))
        if path.name == "tracing.py":
            reached |= _strings(tree)
    live = set()
    while True:
        new = {key for key, node in functions.items()
               if key not in live and node.name in reached}
        if not new:
            break
        live |= new
        for key in new:
            reached |= _uses(ast.walk(functions[key]))
    return sorted(key.split(":")[1] for key in set(functions) - live
                  if not (functions[key].name.startswith("__")
                          and functions[key].name.endswith("__")))


def test_every_library_function_is_reached_outside_the_tests():
    assert unreached() == sorted(ALLOWED)
