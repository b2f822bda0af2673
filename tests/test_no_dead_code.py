"""Every module-level function or class of the library has a caller in
the library or is exported by sst/__init__.py, so that no library code
is left that only tests call.  The test oracles are left out."""

import ast
import pathlib

import sst

SRC = pathlib.Path(sst.__file__).parent
SKIP = {"__init__.py", "reference_oracles.py"}


def _names(node):
    """The names read anywhere under node, bare or as attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def test_no_dead_code():
    init = ast.parse((SRC / "__init__.py").read_text())
    used = {alias.asname or alias.name for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in SKIP:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name))
                # a definition's own body does not count as its caller
                used |= _names(node) - {node.name}
            else:
                used |= _names(node)
    found = ["%s:%d %s" % item for item in defined if item[2] not in used]
    assert not found, "library code without a library caller: " + \
        ", ".join(found)
