"""Library invariants must survive python -O, which strips assert."""

import ast
import pathlib

import sst

SRC = pathlib.Path(sst.__file__).parent


def test_no_bare_asserts():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "bare assert in the library: " + ", ".join(found)
