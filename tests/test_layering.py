"""Module hygiene of reslat: the import layering, read from the source with
``ast``, and annotations that resolve."""

import ast
import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

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


def test_importing_the_cli_runs_no_generated_code():
    """reslat's records are NamedTuples and ``__slots__`` classes, not
    dataclasses: a dataclass compiles its generated methods at every
    import, at several times the cost of a NamedTuple class, and the
    ``dataclasses`` module itself imports ``inspect``."""
    probe = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import reslat.cli; print(sorted(sys.modules))"
    # -I -S: no environment variable, user directory or site hook imports
    # anything first; -B: the probe leaves no bytecode behind
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe], capture_output=True, text=True, check=True)
    assert "reslat.cli" in done.stdout and "'dataclasses'" not in done.stdout


def _defined_in(module):
    """The classes and functions ``module`` defines, and the methods and
    properties of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for attr in vars(obj).values():
                func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if inspect.isfunction(func):
                    yield func


@pytest.mark.parametrize("name", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
def test_every_annotation_resolves(name):
    module = importlib.import_module(f"reslat.{name}")
    defined = list(_defined_in(module))
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)  # raises NameError on a name the module never imports


def test_sources_parse_at_the_python_floor():
    """``pyproject.toml`` promises Python 3.10: every source file parses
    with the 3.10 grammar."""
    root = Path(__file__).resolve().parent.parent
    paths = [path for top in ("src", "tests", "scripts", "perfbench") for path in sorted((root / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_oracles_import_no_private_name_of_the_package():
    """``tests/oracles.py`` is a reference coded apart from the package, so
    it imports none of its ``_``-prefixed names or modules."""
    path = Path(__file__).resolve().parent / "oracles.py"
    private = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reslat":
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.split(".")[0] == "reslat" for part in alias.name.split(".")]
        else:
            continue
        private += [f"line {node.lineno}: {name}" for name in names if name.startswith("_")]
    assert private == []
