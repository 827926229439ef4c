"""No module of the package reads another module's private names.

A name that starts with an underscore belongs to its module. A second module
that reads it shares a decision its owner never published; the owner should
make the name public, or the reader call something public. The check covers
``from .m import _x`` and ``m._x``, where ``m`` is a module of the package.
"""

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "temporal_bc")
MODULES = {
    os.path.basename(path)[:-3] for path in glob.glob(os.path.join(PACKAGE, "*.py"))
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: str) -> list[str]:
    """``module._name`` for every private name of another module that the
    module at ``path`` imports or reads."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    aliases = {}  # local name -> package module it is bound to
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # the submodule imported from, "" for the package itself
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "temporal_bc":
                continue
            module = module[len("temporal_bc") :].lstrip(".")
        elif node.level != 1:
            continue
        for alias in node.names:
            if not module and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                reads.append("%s.%s" % (module or "temporal_bc", alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            reads.append("%s.%s" % (aliases[node.value.id], node.attr))
    return reads


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        module = os.path.basename(path)[:-3]
        found += [
            "%s -> %s" % (module, read)
            for read in _private_reads(path)
            if not read.startswith(module + ".")
        ]
    assert not found, "private names read across modules: %s" % ", ".join(found)
