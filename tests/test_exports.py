import ast
import inspect
import pathlib
import re
import textwrap

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


def test_every_public_member_has_a_reader():
    """Each public method or property in the body of an exported class is
    read as an attribute in the library, the demos or the benchmark
    harness (whose files this test parses and never runs), or is named as
    `` `name` `` or ``.name`` in README.md.  A member no reader uses is dead
    API.  The scan matches names, not classes: it would miss a dead member
    that shares its name with another read, such as ``cli`` reading
    ``args.content``."""
    root = INIT.parents[2]
    read = {node.attr
            for folder in ("src/minuscule", "demos", "perfbench")
            for path in sorted((root / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    readme = (root / "README.md").read_text()
    unread = []
    for name in minuscule.__all__:
        cls = getattr(minuscule, name)
        if not inspect.isclass(cls):
            continue
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        for member in node.body:
            if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    and member.name not in read
                    and not re.search(rf"`{member.name}`|\.{member.name}\b", readme)):
                unread.append(f"{name}.{member.name}")
    assert unread == []
