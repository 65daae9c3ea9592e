"""The package runs on the standard library alone."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import minuscule

PACKAGE = Path(minuscule.__file__).parent


def test_every_import_names_the_standard_library_or_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "minuscule", (path.name, name)


def floating_point_in(tree):
    """Each node of ``tree`` that can bring a float or a complex into the
    package: a literal, a true division, a call of ``float`` or ``complex``,
    or an import of ``math`` or ``cmath``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node
        elif isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] in ("math", "cmath") for alias in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            yield node


def test_no_floating_point_in_the_package():
    # every verdict is an exact equality of integers; a float would make it approximate
    found = [(path.name, node.lineno, ast.unparse(node))
             for path in sorted(PACKAGE.glob("*.py"))
             for node in floating_point_in(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []
    planted = "import math\nfrom cmath import pi\nx = 1 / 2\nx /= 2\ny = 0.5 + 1j\nfloat(x), complex(x)"
    assert len(list(floating_point_in(ast.parse(planted)))) == 8


def test_importing_the_package_loads_no_rational_arithmetic():
    # every kernel works on ints, the root-lattice test included
    code = "import sys, minuscule; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_importing_the_package_loads_no_code_generation():
    # the records are plain slotted classes, not dataclasses; ``site`` may
    # preload modules, so only what the import itself adds counts
    code = ("import sys; before = set(sys.modules); "
            "import minuscule, minuscule.battery, minuscule.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
