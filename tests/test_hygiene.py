"""Import hygiene: every name a module of the library imports is read in it
or exported through its __all__, so a deleted caller leaves no dead import
behind."""

import ast
import pathlib

import pytest

import rieszlab

MODULES = sorted(pathlib.Path(rieszlab.__file__).parent.glob("*.py"))


def _unread_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read_or_exported(path):
    assert _unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unread_import_is_caught():
    tree = ast.parse("import math\nfrom os import path, sep\n__all__ = ['sep']\n")
    assert _unread_imports(tree) == [(1, "math"), (2, "path")]
