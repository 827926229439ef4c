"""Every public top-level name of the package has a user outside the tests.

A function, class or constant that only tests call is API that nothing
needs; a test-only tool belongs under ``tests/`` (as ``reference.py`` holds
the gradient checker). A name counts as used when a name or an attribute
spelled like it, or a string constant equal to it, appears in ``src/``,
``scripts/`` or ``perfbench/`` outside its own definition. String constants
count because ``perfbench/tracing.py`` wraps functions by name; a docstring
is never equal to a bare name, so a mention in one does not count.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
USERS = ("src", "scripts", "perfbench")
PACKAGE = os.path.normpath(os.path.join(ROOT, "src", "temporal_bc"))


def _modules():
    for folder in USERS:
        pattern = os.path.join(ROOT, folder, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as handle:
                yield os.path.normpath(path), ast.parse(handle.read(), filename=path)


def _defined_names(statement) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _used_names(statement) -> set[str]:
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_is_used_outside_the_tests():
    # the names each top-level statement of every module uses, so that a
    # definition's own statement can be left out of its uses
    statements = [
        (path, statement, _used_names(statement))
        for path, tree in _modules()
        for statement in tree.body
    ]
    unused = []
    for path, statement, _ in statements:
        if os.path.dirname(path) != PACKAGE:
            continue
        for name in _defined_names(statement):
            if name.startswith("_"):
                continue
            if not any(name in used for _, other, used in statements if other is not statement):
                unused.append("%s.%s" % (os.path.basename(path)[:-3], name))
    assert not unused, "public names only tests use: %s" % ", ".join(unused)
