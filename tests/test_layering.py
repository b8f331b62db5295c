"""Import layering of the reslat modules, read from their source with ``ast``."""

import ast
from pathlib import Path

import reslat

PACKAGE = Path(reslat.__file__).parent


def _relative_imports() -> dict[str, set[str]]:
    """For each module of the package, the sibling modules it imports."""
    imports = {}
    for path in PACKAGE.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names.update([node.module] if node.module else (a.name for a in node.names))
        imports[path.stem] = names
    return imports


def test_documents_imports_only_algebra():
    assert _relative_imports()["documents"] == {"algebra"}


def test_no_module_imports_cli():
    importers = sorted(m for m, names in _relative_imports().items() if "cli" in names)
    assert importers == []
