"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geopal"


def test_every_import_is_stdlib_or_geopal():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative: inside the package
                    continue
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "geopal" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert not foreign, foreign


def test_no_module_uses_functools_cached_property():
    # Python 3.11's cached_property takes a lock on each first access; the
    # package's lazy values use `topology._lazy`, which takes none.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            imported = isinstance(node, ast.ImportFrom) and node.module == "functools" and any(
                alias.name == "cached_property" for alias in node.names
            )
            if imported or isinstance(node, ast.Attribute) and node.attr == "cached_property":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
