import argparse
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minuscule import cli, crystals, kostka, tableaux
from minuscule.cli import _build_parser, run
from minuscule.errors import AlgorithmInvariantViolated
from minuscule.poly import IntPolynomial

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_module(*args, module="minuscule.cli"):
    """``python -m <module>`` in a fresh interpreter that imports from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, text=True, env=env)


def invoke(argv, text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(text))
    return code, out.getvalue(), err.getvalue()


class TestPathsCommands:
    def test_enumerate(self):
        code, out, _ = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"])
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert data[0] == {"type": [[1], [1], [1], [1]],
                           "points": [[1], [0], [1], [0]]}

    def test_enumerate_csv(self):
        code, out, _ = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "1",
             "--weights", "1,1,1,1", "--format", "csv"])
        assert code == 0
        assert out.splitlines() == ["1,0,1,0", "1,2,1,0"]

    def test_rotate_from_stdin(self):
        code, out, _ = invoke(
            ["paths", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"],
            text='{"points": [[1], [0], [1], [0]]}')
        assert code == 0
        assert json.loads(out)["points"] == [[1], [2], [1], [0]]

    def test_rotate_type_disagreement(self):
        code, _, err = invoke(
            ["paths", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"],
            text='{"type": [[1], [1], [1], [1]], "points": [[1], [0]]}')
        assert code == 2 and "disagrees" in err

    @pytest.mark.parametrize("text", [
        "[[1.0], [0]]",                # float coordinate
        '{"points": [[1], [true]]}',   # bool coordinate
        '{"points": [[1, 0], [0]]}',   # too many coordinates
        '{"points": [[1], []]}',       # too few coordinates
        '{"points": 5}',               # not a list
        '{"points": [1, 0]}',          # points that are not lists
        '"10"',                        # a string is not a list of points
        '{"path": [[1], [0]]}',        # no points at all
        '{"type": 3, "points": [[1], [0]]}',
    ])
    def test_rotate_rejects_malformed_points(self, text):
        code, out, err = invoke(
            ["paths", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"], text=text)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_enumerate_deep_sequence_hits_the_cap_cleanly(self):
        # 1200 steps deep; under the default cap this would build 100k paths.
        # The refusal names the size, not the 1200 weights.
        proc = run_module("paths", "enumerate", "--type", "A", "--rank", "1",
                          "--weights", ",".join(["1"] * 1200), "--cap", "50")
        assert proc.returncode == 2 and proc.stdout == "" and len(proc.stderr) < 200
        assert "more than 50 paths of 1200 steps over A1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_enumerate_outside_root_lattice_is_empty(self):
        code, out, err = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "1",
             "--weights", ",".join(["1"] * 41), "--cap", "50"])
        assert code == 0 and json.loads(out) == [] and err == ""

    def test_orbits(self):
        code, out, _ = invoke(
            ["paths", "orbits", "--type", "A", "--rank", "1",
             "--weights", "1,1,1,1", "--ell", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["fixed_counts"] == [2, 0, 2, 0]
        assert len(data["orbits"]) == 1


class TestRootAndCrystal:
    def test_root_minuscule(self):
        code, out, _ = invoke(["root", "minuscule", "--type", "E", "--rank", "6"])
        assert code == 0
        assert json.loads(out)["minuscule_indices"] == [1, 6]

    def test_crystal_invariants(self):
        code, out, _ = invoke(
            ["crystal", "invariants", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"])
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2 and data[0] == {"factors": [[1], [-1], [1], [-1]]}

    def test_crystal_rotate(self):
        code, out, _ = invoke(
            ["crystal", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"],
            text='{"factors": [[1], [-1]]}')
        assert code == 0
        assert json.loads(out) == {"factors": [[1], [-1]]}

    def test_crystal_rotate_rejects_noninvariant(self):
        code, _, err = invoke(
            ["crystal", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"],
            text='{"factors": [[1], [1]]}')
        assert code == 2 and "invariant" in err

    @pytest.mark.parametrize("text", [
        '{"factors": [[1.0], [-1]]}',   # float entry
        '{"factors": [[true], [-1]]}',  # bool entry
        '{"factors": 5}',               # not a list
        '{"factors": [1, -1]}',         # factors that are not lists
        "[1]",                          # not an object
        '{"element": [[1], [-1]]}',     # no factors at all
    ])
    def test_crystal_rotate_rejects_malformed_factors(self, text):
        code, out, err = invoke(
            ["crystal", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"], text=text)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_internal_error_exits_3_with_one_json_line(self, monkeypatch):
        def broken(b):
            raise AlgorithmInvariantViolated("rotated element is no longer invariant")

        monkeypatch.setattr(crystals, "commutor_rotate", broken)
        argv = ["crystal", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"]
        code, out, err = invoke(argv, text='{"factors": [[1], [-1]]}')
        assert code == 3 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["argv"] == argv
        assert report["message"] == "rotated element is no longer invariant"

    def test_candidate_failing_the_highest_weight_check_exits_3(self, monkeypatch):
        # every search candidate is highest weight by construction, so a
        # failed check is a bug, not an element to drop
        monkeypatch.setattr(crystals, "is_highest_weight", lambda b: False)
        argv = ["crystal", "invariants", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"]
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "AlgorithmInvariantViolated" and report["argv"] == argv
        assert "is not highest weight" in report["message"]

    @pytest.mark.parametrize("exc_type", [TypeError, ValueError, KeyError])
    def test_stray_exception_from_a_kernel_exits_3(self, monkeypatch, exc_type):
        def broken(seq, cap):
            raise exc_type("stray kernel error")

        monkeypatch.setattr(crystals, "invariant_elements", broken)
        argv = ["crystal", "invariants", "--type", "A", "--rank", "1", "--weights", "1,1"]
        code, out, err = invoke(argv)
        assert code == 3 and out == ""
        assert "Traceback" not in err and len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == exc_type.__name__ and report["argv"] == argv
        assert "stray kernel error" in report["message"]

    def test_invariant_search_is_not_bounded_by_recursion(self):
        # 1200 factors deep; the cap, not the interpreter stack, stops it
        proc = run_module("crystal", "invariants", "--type", "A", "--rank", "1",
                          "--weights", ",".join(["1"] * 1200), "--cap", "50")
        assert proc.returncode == 2 and proc.stdout == "" and len(proc.stderr) < 200
        assert "more than 50 paths of 1200 steps over A1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCap:
    COMMANDS = [
        ["paths", "enumerate", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"],
        ["crystal", "invariants", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    @pytest.mark.parametrize("cap", ["0", "-1", "two"])
    def test_rejected_at_the_boundary(self, argv, cap):
        code, out, err = invoke(argv + ["--cap", cap])
        assert code == 2 and out == "" and "--cap" in err

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_small_cap_is_honoured(self, argv):
        code, out, err = invoke(argv + ["--cap", "1"])
        assert code == 2 and out == "" and "1" in err

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_ample_cap_matches_default(self, argv):
        assert invoke(argv + ["--cap", "1000"]) == invoke(argv)


class TestTableauCommands:
    def test_promote_stdin(self):
        code, out, _ = invoke(["tableau", "promote"], text="[[1, 3], [2, 4]]")
        assert code == 0 and json.loads(out) == [[1, 2], [3, 4]]

    def test_promote_file(self, tmp_path):
        source = tmp_path / "t.json"
        source.write_text("[[1, 2], [3, 4]]")
        code, out, _ = invoke(["tableau", "promote", "--input", str(source)])
        assert code == 0 and json.loads(out) == [[1, 3], [2, 4]]

    def test_from_path_and_to_path(self):
        code, out, _ = invoke(
            ["tableau", "from-path", "--type", "A", "--rank", "1", "--weights", "1,1,1,1"],
            text='{"points": [[1], [2], [1], [0]]}')
        assert code == 0 and json.loads(out) == [[1, 2], [3, 4]]
        code, out, _ = invoke(["tableau", "to-path"], text="[[1, 2], [3, 4]]")
        assert code == 0
        assert json.loads(out)["points"] == [[1], [2], [1], [0]]

    def test_invalid_tableau(self):
        code, _, err = invoke(["tableau", "promote"], text="[[2, 1]]")
        assert code == 2 and "increasing" in err

    def test_promotion_that_breaks_its_invariant_exits_3(self, monkeypatch):
        # with validation off, a grid that is not column-weak reaches promote
        monkeypatch.setattr(tableaux.RowStrictTableau, "_validate", lambda self: None)
        argv = ["tableau", "promote"]
        code, out, err = invoke(argv, text="[[1, 4], [5, 6], [2, 3]]")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "AlgorithmInvariantViolated", "argv": argv,
                                   "message": "gaps did not migrate to the last column"}

    @pytest.mark.parametrize("command", ["promote", "to-path"])
    @pytest.mark.parametrize("text", [
        "[[1.5, 2], [3, 4]]",   # float entry
        "[[true, 2], [3, 4]]",  # bool entry
        '[[1, 2], "ab"]',       # a row that is not a list
        "5",                    # not a list of rows
        '{"rows": [[1, 2]]}',   # an object is not a tableau
    ])
    def test_malformed_tableau(self, command, text):
        code, out, err = invoke(["tableau", command], text=text)
        assert code == 2 and out == "" and err.startswith("error:")


class TestKostkaCommand:
    def test_text_default(self):
        code, out, _ = invoke(["kostka", "--shape", "2,2", "--content", "1,1,1,1"])
        assert code == 0 and out.strip() == "q^2 + q^4"

    def test_json(self):
        code, out, _ = invoke(
            ["kostka", "--shape", "2,2", "--content", "1,1,1,1", "--format", "json"])
        assert code == 0 and json.loads(out) == [0, 0, 1, 0, 1]

    def test_oracle_route_agrees(self):
        _, charge_out, _ = invoke(["kostka", "--shape", "3,2,1", "--content", "2,2,1,1"])
        _, oracle_out, _ = invoke(
            ["kostka", "--shape", "3,2,1", "--content", "2,2,1,1", "--oracle"])
        assert charge_out == oracle_out

    def test_bad_shape(self):
        code, _, err = invoke(["kostka", "--shape", "1,2", "--content", "1,1,1"])
        assert code == 2

    def test_negative_content_is_invalid_input(self):
        # -1,4 starts with a minus sign, and is still a value, not a flag
        for shape, content in (("1", "2,-1"), ("3", "-1,4")):
            code, out, err = invoke(["kostka", "--shape", shape, "--content", content])
            assert code == 2 and out == ""
            assert err == "error: content entries must be nonnegative\n"

    def test_more_rows_than_the_recursion_limit(self):
        ones = ",".join(["1"] * 1200)
        code, out, _ = invoke(["kostka", "--shape", ones, "--content", ones])
        assert code == 0 and out == "1\n"

    def test_one_column_is_bounded_by_its_row_work(self, monkeypatch):
        # listing a strip scans every row, so 1^4800 costs about 4800^2 row
        # steps for 4800 merged entries; the budget counts both and refuses
        # after at most CHARGE_COUNT_CAP / 4800 strips, in about a second
        listed = []
        strips = kostka._horizontal_strips

        def counted(*args):
            found = strips(*args)
            listed.extend(found)
            return found

        monkeypatch.setattr(kostka, "_horizontal_strips", counted)
        ones = ",".join(["1"] * 4800)
        start = time.perf_counter()
        code, out, err = invoke(["kostka", "--shape", ones, "--content", ones])
        assert code == 2 and out == "" and err.startswith("error:")
        # the refusal names the shape by its size, not by its 4800 rows
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert len(listed) <= kostka.CHARGE_COUNT_CAP // 4800 + 1
        assert time.perf_counter() - start < 7

    def test_past_the_bound_is_invalid_input(self):
        code, out, err = invoke(["kostka", "--shape", ",".join(["7"] * 7),
                                 "--content", ",".join(["1"] * 49)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("shape,content", [
        # two rows of 800: 200 subword tuples of 400 copied per state
        ("800,800", "400,400,400,400"),
        # one row of 10^8 boxes: refused before its first state
        ("100000000", "100000000"),
    ])
    def test_long_rows_are_bounded_by_their_boxes(self, shape, content):
        start = time.perf_counter()
        code, out, err = invoke(["kostka", "--shape", shape, "--content", content])
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err.splitlines()) == 1 and len(err) < 200
        assert time.perf_counter() - start < 3

    def test_oracle_past_its_work_bound_is_invalid_input(self):
        start = time.perf_counter()
        code, out, err = invoke(["kostka", "--shape", "8,8,8,8",
                                 "--content", ",".join(["4"] * 8), "--oracle"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert time.perf_counter() - start < 3


class TestCspCommand:
    def test_pass(self):
        code, out, _ = invoke(
            ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1,1,1",
             "--ell", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass" and data["fixed_counts"] == [2, 0, 2, 0]

    def test_failing_polynomial_exits_one(self):
        code, out, _ = invoke(
            ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1,1,1",
             "--ell", "1", "--poly", "2"])
        assert code == 1 and json.loads(out)["verdict"] == "fail"

    def test_a_leading_negative_coefficient_is_a_value(self):
        # a comma list that starts with a minus sign is a value, as -1 is
        argv = ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1", "--ell", "1"]
        separate = invoke(argv + ["--poly", "-1,0,1"])
        assert separate == invoke(argv + ["--poly=-1,0,1"])
        code, out, err = separate
        assert code == 1 and err == "" and json.loads(out)["polynomial"] == [-1, 0, 1]

    def test_auto_outside_type_a_is_invalid_input(self):
        code, out, err = invoke(
            ["csp", "check", "--type", "D", "--rank", "4", "--weights", "1,1,1,1"])
        assert (code, out, err) == (2, "", "error: no automatic sieving polynomial for D4\n")

    def test_supplied_poly_outside_root_lattice_is_invalid_input(self):
        code, out, err = invoke(
            ["csp", "check", "--type", "A", "--rank", "1",
             "--weights", ",".join(["1"] * 41), "--ell", "1", "--poly", "1"])
        assert code == 2 and out == "" and "root lattice" in err

    @pytest.mark.parametrize("poly", [[], ["--poly", "1"]], ids=["automatic", "supplied"])
    def test_the_lattice_is_refused_before_the_period(self, poly):
        code, out, err = invoke(
            ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1,1",
             "--ell", "2"] + poly)
        assert code == 2 and out == ""
        assert err == "error: total weight outside the root lattice; the instance is empty\n"

    @pytest.mark.parametrize("poly", [[], ["--poly", "1"]], ids=["automatic", "supplied"])
    def test_the_period_is_refused_before_the_charge_cap(self, poly):
        code, out, err = invoke(
            ["csp", "check", "--type", "A", "--rank", "2", "--weights", ",".join(["1,2"] * 20),
             "--ell", "1"] + poly)
        assert code == 2 and out == ""
        assert err == "error: ell=1 is not a period; the periods are (2, 4, 8, 10, 20, 40)\n"


class TestBatteryCommand:
    def test_quick_passes(self):
        code, out, _ = invoke(["battery", "--scope", "quick"])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert len(data["suites"]) >= 6
        assert all(s["passed"] for s in data["suites"])

    def test_broken_charge_is_caught_and_named(self, monkeypatch):
        # kostka_foulkes, and so the oracle suite, runs charge one strip at
        # a time; a step that carries no charge makes every tableau charge 0
        monkeypatch.setattr(kostka, "_charge_strip", lambda last, index, spots: ([], [], 0))
        code, out, _ = invoke(["battery", "--scope", "quick"])
        assert code == 1
        data = json.loads(out)
        failing = [s["name"] for s in data["suites"] if not s["passed"]]
        assert "kostka-oracle-equivalence" in failing
        # the text form prints every failure under its suite's line
        code, text, _ = invoke(["battery", "--scope", "quick", "--format", "text"])
        assert code == 1 and text.endswith("battery: fail\n")
        assert "kostka-oracle-equivalence: FAIL" in text
        for suite in data["suites"]:
            for failure in suite["failures"]:
                assert f"\n  {failure}\n" in text


class TestContract:
    def test_unknown_subcommand(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 2 and err

    def test_bad_weights_string(self):
        code, _, _ = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "1", "--weights", "1,x"])
        assert code == 2

    def test_out_of_range_weight_index(self):
        code, _, _ = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "1", "--weights", "2,2"])
        assert code == 2

    def test_directory_input_is_invalid_input(self, tmp_path):
        code, out, err = invoke(["tableau", "promote", "--input", str(tmp_path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_missing_undecodable_and_malformed_inputs_are_invalid_input(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe[[1]]")
        truncated = tmp_path / "truncated.json"
        truncated.write_text("[[1")
        for source in (tmp_path / "absent.json", binary, truncated):
            code, out, err = invoke(["tableau", "promote", "--input", str(source)])
            assert code == 2 and out == ""
            assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["paths", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"],
        ["tableau", "promote"],
        ["tableau", "from-path", "--type", "A", "--rank", "1", "--weights", "1,1"],
        ["tableau", "to-path"],
        ["crystal", "rotate", "--type", "A", "--rank", "1", "--weights", "1,1"],
    ], ids=lambda argv: "-".join(argv[:2]))
    @pytest.mark.parametrize("text", [
        "[" * 100_000,                 # nested past the decoder's recursion limit
        "[[" + "9" * 5000 + "]]",      # an int literal past Python's digit limit
    ], ids=["deep", "long-int"])
    def test_undecodable_json_is_invalid_input(self, argv, text):
        code, out, err = invoke(argv, text)
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON input") and len(err.splitlines()) == 1

    def test_rank_above_the_maximum_is_invalid_input(self):
        code, out, err = invoke(
            ["paths", "enumerate", "--type", "A", "--rank", "99999", "--weights", "1"])
        assert code == 2 and out == "" and "largest supported rank" in err

    def test_byte_determinism(self):
        argv = ["csp", "check", "--type", "A", "--rank", "2",
                "--weights", "1,2,1,2", "--ell", "2"]
        assert invoke(argv) == invoke(argv)

    def test_module_entry_point(self):
        proc = run_module("kostka", "--shape", "2,2", "--content", "1,1,1,1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "q^2 + q^4"

    @pytest.mark.parametrize("argv,want", [
        (("kostka", "--shape", "2,2", "--content", "1,1,1,1"), 0),
        (("kostka", "--shape", "2,x", "--content", "1,1,1,1"), 2),
    ])
    def test_package_entry_point(self, argv, want):
        proc = run_module(*argv, module="minuscule")
        assert proc.returncode == want
        assert (proc.stdout.strip() == "q^2 + q^4") == (want == 0)


def test_run_accepts_intpolynomial_coeff_grammar():
    # coefficients ascending: 0,0,0,0,1,0,1 is q^4 + q^6
    code, out, _ = invoke(
        ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1,1,1",
         "--ell", "1", "--poly", "0,0,0,0,1,0,1"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert sum(IntPolynomial((0, 0, 0, 0, 1, 0, 1)).coeffs) == 2


A1_FOUR = ["--type", "A", "--rank", "1", "--weights", "1,1,1,1"]


@pytest.mark.parametrize("argv,plain", [
    # int() alone read each of these as another integer
    (["csp", "check", *A1_FOUR, "--poly", "0_0,0,1_0"], None),
    (["root", "minuscule", "--type", "A", "--rank", "1_0"], None),
    (["paths", "orbits", *A1_FOUR, "--ell", "0_1"], None),
    (["csp", "check", *A1_FOUR, "--ell", "0_1"], None),
    (["battery", "--seed", "1_0"], None),
    (["paths", "enumerate", *A1_FOUR, "--cap", "1_0"], None),
    (["kostka", "--shape", "\u0662,\u0662", "--content", "1,1,1,1"], None),
    (["kostka", "--shape", "2,2", "--content", "1,1,1,\uff11"], None),
    # a sign and surrounding whitespace are still read
    (["kostka", "--shape", "+2,2", "--content", " 1, 1,1,1 "],
     ["kostka", "--shape", "2,2", "--content", "1,1,1,1"]),
    (["csp", "check", *A1_FOUR, "--ell", " +1", "--poly", "-1,0,1"],
     ["csp", "check", *A1_FOUR, "--ell", "1", "--poly=-1,0,1"]),
    (["paths", "enumerate", "--type", "A", "--rank", "+1", "--weights", " 1, 1", "--cap", " 2"],
     ["paths", "enumerate", "--type", "A", "--rank", "1", "--weights", "1,1", "--cap", "2"]),
    (["battery", "--seed", "+0"], ["battery", "--seed", "0"]),
], ids=lambda x: " ".join(x) if x else "refused")
def test_an_integer_is_a_sign_and_ascii_digits(argv, plain):
    code, out, err = invoke(argv)
    if plain is None:
        assert code == 2 and out == "" and err.startswith("error: ")
    else:
        assert out and (code, out) == invoke(plain)[:2]


def _leaves(parser, path=()):
    """(subcommand path, parser) for every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


def _option(parser, flag):
    return next((a for a in parser._actions if flag in a.option_strings), None)


A1_FOUR = ["--type", "A", "--rank", "1", "--weights", "1,1,1,1"]
FORMAT_SAMPLES = {
    ("root", "minuscule"): (["--type", "E", "--rank", "6"], ""),
    ("paths", "enumerate"): (A1_FOUR, ""),
    ("paths", "orbits"): (A1_FOUR, ""),
    ("tableau", "promote"): ([], "[[1, 3], [2, 4]]"),
    ("tableau", "from-path"): (A1_FOUR, '{"points": [[1], [2], [1], [0]]}'),
    ("crystal", "invariants"): (A1_FOUR, ""),
    ("kostka",): (["--shape", "2,2", "--content", "1,1,1,1"], ""),
    ("csp", "check"): (A1_FOUR, ""),
    ("battery",): (["--scope", "quick"], ""),
}


class TestNoIgnoredFlags:
    def test_cap_only_on_the_bounded_searches(self):
        with_cap = {path for path, p in _leaves(_build_parser()) if _option(p, "--cap")}
        assert with_cap == {("paths", "enumerate"), ("crystal", "invariants")}

    def test_every_format_flag_has_a_sample(self):
        leaves = {path: p for path, p in _leaves(_build_parser()) if _option(p, "--format")}
        assert set(leaves) == set(FORMAT_SAMPLES)
        assert sum(len(_option(p, "--format").choices) for p in leaves.values()) == 19

    @pytest.mark.parametrize("path", sorted(FORMAT_SAMPLES), ids="-".join)
    def test_each_format_choice_changes_stdout(self, path):
        parser = dict(_leaves(_build_parser()))[path]
        argv, text = FORMAT_SAMPLES[path]
        outs = []
        for choice in _option(parser, "--format").choices:
            code, out, _ = invoke(list(path) + argv + ["--format", choice], text)
            assert code == 0 and out
            outs.append(out)
        assert len(set(outs)) == len(outs)


def _documented_leaves():
    """(subcommand path, flags, --format choices) for each line of the
    grammar block in the ``cli`` docstring; ``TYPE`` stands for the three
    type flags."""
    found = {}
    for line in cli.__doc__.splitlines():
        if not line.startswith("    minuscule "):
            continue
        words = line.split()
        path = tuple(itertools.takewhile(lambda w: w[0].isalpha() and w != "TYPE", words[1:]))
        flags = set(re.findall(r"--[a-z]+", line))
        if "TYPE" in words:
            flags |= {"--type", "--rank", "--weights"}
        formats = re.search(r"--format ([a-z|]+)", line)
        found[path] = (flags, set(formats.group(1).split("|")) if formats else None)
    return found


def test_the_docstring_grammar_matches_the_parser():
    built = {}
    for path, p in _leaves(_build_parser()):
        flags = {f for a in p._actions for f in a.option_strings if f.startswith("--")}
        formats = _option(p, "--format")
        built[path] = (flags - {"--help"}, set(formats.choices) if formats else None)
    assert _documented_leaves() == built


# ---- argv fuzz: every subcommand, its choices and malformed flag values

def _joined(values):
    return ",".join(map(str, values))


def _one_in(n):
    """True about one time in ``n``; a sample shrinks to False."""
    return st.sampled_from((False,) * (n - 1) + (True,))


# (family, rank, weight indices, most factors): small enough that every
# draw finishes at once; F4 and G2 have no minuscule weight
FUZZ_TYPES = [("A", 1, (1,), 6), ("A", 2, (1, 2), 4), ("A", 3, (1, 2, 3), 4),
              ("B", 3, (3,), 3), ("C", 3, (1,), 3), ("D", 4, (1, 3, 4), 3),
              ("E", 6, (1, 6), 3), ("E", 7, (7,), 2), ("F", 4, (1,), 2), ("G", 2, (1, 2), 2)]
MALFORMED = ["", " ", "x", "1.5", "-1", "0", "1,,2", ",", "--", "99999999999999999999"]
# malformed values per option dest; huge numbers only where they set no size
FUZZ_BAD = {
    "family": ["Z", "a", "AA", ""],
    "rank": MALFORMED + ["33", "7"],
    "weights": MALFORMED + ["1,-1", "9"],
    "cap": MALFORMED,
    "ell": MALFORMED + ["5"],
    "poly": MALFORMED,
    "shape": MALFORMED[:-1] + ["1,2", "3,-1"],
    "content": MALFORMED[:-1] + ["0,0"],
    "seed": MALFORMED,
    # the full scope is the slow gate itself, so it is never drawn
    "scope": ["wide", "", "Quick"],
    "input": ["no-such-file.json", ""],
    "format": ["xml", "", "JSON"],
}
STDIN_SAMPLES = ["", "null", "{}", "[]", "[[", "[[1, 3], [2, 4]]", "[[1], [0]]",
                 "[[1], [2], [1], [0]]", '{"points": [[1], [0], [1], [0]]}',
                 '{"points": [[1], [2]], "type": [[1]]}', '{"factors": [[1], [-1]]}',
                 '{"factors": [[1], ["x"]]}', "[[true]]", '"text"', "1e400"]


@st.composite
def argvs(draw):
    """One argv over a leaf subcommand of ``_build_parser()``: each option is
    present or not, and its value is well formed or, one time in five,
    drawn from ``FUZZ_BAD``; sometimes the command is cut short or gets an
    unknown token."""
    leaves = sorted(_leaves(_build_parser()), key=lambda leaf: leaf[0])
    path, parser = draw(st.sampled_from(leaves))
    family, rank, indices, longest = draw(st.sampled_from(FUZZ_TYPES))
    parts = sorted(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)), reverse=True)
    good = {
        "family": family,
        "rank": str(rank),
        "weights": _joined(draw(st.lists(st.sampled_from(indices), min_size=1,
                                         max_size=longest))),
        "cap": draw(st.sampled_from(["1000", "3", "1"])),
        "ell": draw(st.sampled_from(["1", "2", "3"])),
        "poly": _joined(draw(st.lists(st.integers(-2, 3), min_size=1, max_size=7))),
        "shape": _joined(parts),
        "content": _joined(draw(st.permutations(parts))),
        "seed": draw(st.sampled_from(["0", "1", "7"])),
        "scope": "quick",
        "input": "-",
    }
    argv = list(path)
    if draw(_one_in(10)):
        argv = argv[:draw(st.integers(0, len(argv)))]
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if draw(_one_in(10 if action.required else 2)):
            continue
        flag, dest = action.option_strings[0], action.dest
        if action.nargs == 0:
            argv.append(flag)
        elif draw(_one_in(5)):
            argv += [flag, draw(st.sampled_from(FUZZ_BAD[dest]))]
        elif dest == "format":
            argv += [flag, draw(st.sampled_from(action.choices))]
        else:
            argv += [flag, good[dest]]
    if draw(_one_in(10)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "x"])))
    return argv


class TestArgvFuzz:
    def test_every_option_has_values(self):
        dests = {a.dest for _, p in _leaves(_build_parser()) for a in p._actions
                 if a.option_strings and a.nargs != 0 and a.dest != "help"}
        assert dests == set(FUZZ_BAD)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(), st.sampled_from(STDIN_SAMPLES))
    def test_exit_code_is_0_1_or_2_without_traceback(self, argv, text):
        code, _, err = invoke(argv, text)
        assert code in (0, 1, 2), (argv, text, err)
        assert "Traceback" not in err
