"""The package namespace: ``ddecm.__all__`` against what ``__init__`` imports."""

import ast

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
