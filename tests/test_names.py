"""Nothing in the package exists only for the tests.

Every function, class and method defined in src/s2xs2, and every name a
module of it assigns at its top level (dunders exempt), must be named
somewhere in the package or in the benchmark harness under perfbench/: as a
Name it reads, an Attribute or an import alias, so a re-export from
__init__ counts as a use.  A name used only by the test suite belongs in
tests/helpers.py.  The check is by name, so a definition that shares its
name with a variable or an attribute in use elsewhere passes it.
"""

import ast
from pathlib import Path

import s2xs2

PACKAGE = Path(s2xs2.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _trees(directory):
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(directory.glob("*.py"))}


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _definitions(path, tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _dunder(node.name):
                yield f"{path.name}:{node.lineno}", node.name
    for node in tree.body:   # module-level constants
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not _dunder(name.id):
                    yield f"{path.name}:{node.lineno}", name.id


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_named_outside_the_tests():
    assert PERFBENCH.is_dir(), PERFBENCH
    package = _trees(PACKAGE)
    used = {name for tree in [*package.values(), *_trees(PERFBENCH).values()] for name in _used_names(tree)}
    offenders = [f"{where} {name}" for path, tree in package.items()
                 for where, name in _definitions(path, tree) if name not in used]
    assert not offenders, "defined in src/s2xs2 but named by no module of it or of perfbench: " + ", ".join(offenders)
