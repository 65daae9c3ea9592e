"""The README's examples run: the library quick start, and every CLI line
that reads no stdin and no ``--input`` file exits 0 with nothing on
stderr.  A line whose comment starts with a polynomial prints it."""
import io
import pathlib
import re
import shlex

import pytest

from minuscule.cli import run

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)
(QUICK_START,) = [body for lang, body in BLOCKS if lang == "python"]
(CLI_BLOCK,) = [body for lang, body in BLOCKS if lang == "sh" and "minuscule battery" in body]
CLI_LINES = [line for line in CLI_BLOCK.splitlines()
             if line.startswith("minuscule ") and "<" not in line and "--input" not in line]
TERM = r"(?:\d*q(?:\^\d+)?|\d+)"
POLYNOMIAL = re.compile(rf"{TERM}(?: [+-] {TERM})*(?=,|$)")


def test_quick_start_runs():
    exec(compile(QUICK_START, "README.md", "exec"), {})


def test_every_runnable_cli_line_is_found():
    assert len(CLI_LINES) == 9


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_0(line):
    command, _, comment = line.partition("#")
    out, err = io.StringIO(), io.StringIO()
    code = run(shlex.split(command)[1:], stdout=out, stderr=err, stdin=io.StringIO(""))
    assert (code, err.getvalue()) == (0, "")
    printed = POLYNOMIAL.match(comment.strip())
    if printed:
        assert out.getvalue() == printed.group() + "\n"
