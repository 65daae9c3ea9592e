import ast
import pathlib

import minuscule

INIT = pathlib.Path(minuscule.__file__)


def test_every_exported_name_resolves():
    missing = [name for name in minuscule.__all__ if not hasattr(minuscule, name)]
    assert missing == []


def test_every_public_import_is_exported():
    imported = [alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    public = [name for name in imported if not name.startswith("_")]
    assert public and sorted(set(public) - set(minuscule.__all__)) == []
    assert len(minuscule.__all__) == len(set(minuscule.__all__))
