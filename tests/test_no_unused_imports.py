"""Every name a library module imports is used in that module."""

import ast
import pathlib

import sst

SRC = pathlib.Path(sst.__file__).parent


def test_no_unused_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in sorted(imported.items())
                  if name not in used]
    assert not found, "unused import in the library: " + ", ".join(found)
