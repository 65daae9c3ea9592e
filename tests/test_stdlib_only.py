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
