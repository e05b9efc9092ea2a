"""Every imported name is used.

No linter ships with the project, so this test reads each module of the
package and of the test suite with `ast` and lists the names an import
binds that the module never mentions again.  `from __future__ import
annotations` changes how the module compiles and binds nothing it uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/planarops/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """The names that the imports of `source` bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_scan_sees_unused_and_used_names():
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path, sys as system\n"
                          "from a import b, c as d\n"
                          "def f():\n"
                          "    import json\n"
                          "    return os.path.join(d)\n") \
        == ["system", "b", "json"]


def test_every_imported_name_is_used():
    assert SOURCES
    unused = ["%s: %s" % (path.relative_to(ROOT), name) for path in SOURCES
              for name in unused_imports(path.read_text())]
    assert unused == []
