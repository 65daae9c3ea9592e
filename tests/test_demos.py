"""Every demo runs cleanly and prints the same bytes whatever the hash seed."""
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_byte_identical_across_hash_seeds(demo):
    first = run_demo(demo, "0")
    second = run_demo(demo, "4242")
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout and first.stdout == second.stdout
