"""The runtime needs the standard library alone."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "walgebras"


def test_imports_are_stdlib_or_walgebras():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "walgebras" and top not in sys.stdlib_module_names:
                    foreign.append("%s: %s" % (path.name, name))
    assert foreign == []
