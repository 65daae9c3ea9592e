import ast
import inspect
import pathlib
import re
import textwrap

import minuscule

INIT = pathlib.Path(minuscule.__file__)
ROOT = INIT.parents[2]
LIBRARY = sorted(INIT.parent.glob("*.py"))


def _reader_nodes():
    """Every AST node of the library, the demos and the benchmark harness,
    whose files are parsed and never run."""
    for folder in ("src/minuscule", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text()))


def _named_in_readme(name, readme):
    return re.search(rf"`{name}`|\.{name}\b", readme)


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
    read = {node.attr for node in _reader_nodes() if isinstance(node, ast.Attribute)}
    readme = (ROOT / "README.md").read_text()
    unread = []
    for name in minuscule.__all__:
        cls = getattr(minuscule, name)
        if not inspect.isclass(cls):
            continue
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(cls))).body
        for member in node.body:
            if (isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    and member.name not in read
                    and not _named_in_readme(member.name, readme)):
                unread.append(f"{name}.{member.name}")
    assert unread == []


def test_every_public_function_and_constant_has_a_reader():
    """Each public function or constant at the top level of a library
    module is loaded by name or read as an attribute in the library (its
    own module included), the demos or the benchmark harness, or is named
    as `` `name` `` or ``.name`` in README.md; an import alone is no read.
    As above, the scan matches names, not modules."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for node in _reader_nodes()
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    readme = (ROOT / "README.md").read_text()
    unread = []
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in names
                       if not name.startswith("_") and name not in read
                       and not _named_in_readme(name, readme)]
    assert unread == []


def test_every_error_class_is_raised():
    """Each class in errors.py is raised by some library module, or is a
    base class there, as ``MinusculeError`` is."""
    raised, bases = set(), set()
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
            elif isinstance(node, ast.ClassDef):
                bases.update(getattr(b, "id", getattr(b, "attr", None)) for b in node.bases)
    classes = [node.name for node in ast.parse((INIT.parent / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    assert classes and [c for c in classes if c not in raised | bases] == []
