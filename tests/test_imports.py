"""Module boundaries: no loadsmith module reaches into another one's private names."""

import ast
from pathlib import Path

import loadsmith

PACKAGE = Path(loadsmith.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_module(path: Path) -> bool:
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _crossings(path: Path) -> list[str]:
    """Each ``from .x import _name`` and ``module._name`` in ``path`` that names
    a private name of another loadsmith module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to loadsmith modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = path.parents[node.level - 1]
            elif (node.module or "").split(".")[0] == "loadsmith":
                base = PACKAGE.parent
            else:
                continue
            base = base.joinpath(*(node.module or "").split(".")) if node.module else base
            for alias in node.names:
                if _private(alias.name):
                    source = "." * node.level + (node.module or "")
                    found.append(f"line {node.lineno}: from {source} import {alias.name}")
                elif _is_module(base / alias.name):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "loadsmith":
                    modules.add(alias.asname or "loadsmith")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_no_module_uses_another_modules_private_names():
    crossings = {
        str(path.relative_to(PACKAGE)): found
        for path in sorted(PACKAGE.rglob("*.py"))
        if (found := _crossings(path))
    }
    assert crossings == {}


def test_the_check_finds_both_forms(tmp_path):
    package = tmp_path / "loadsmith"
    package.mkdir()
    (package / "ingest.py").write_text("")
    (package / "cli.py").write_text("from . import ingest\nfrom .ingest import _x\ningest._y()\n")
    assert _crossings(package / "cli.py") == [
        "line 2: from .ingest import _x", "line 3: ingest._y"
    ]
