"""The package namespace: ``ddecm.__all__`` against what ``__init__`` imports,
and every other module against what it imports."""

import ast
import os

import ddecm


def _imported_public_names() -> set[str]:
    with open(ddecm.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_is_the_imported_public_names():
    assert len(ddecm.__all__) == len(set(ddecm.__all__))
    assert set(ddecm.__all__) == _imported_public_names()


def test_star_import_resolves_every_name():
    namespace: dict = {}
    exec("from ddecm import *", namespace)
    for name in ddecm.__all__:
        assert namespace[name] is getattr(ddecm, name)


def _unused_imports(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_module_uses_what_it_imports():
    # deleting code tends to leave its imports behind; __init__ imports to re-export
    package = os.path.dirname(ddecm.__file__)
    unused = {
        name: _unused_imports(os.path.join(package, name))
        for name in sorted(os.listdir(package))
        if name.endswith(".py") and name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}
