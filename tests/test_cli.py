import io
import json
import subprocess
import sys

import pytest

from minuscule import kostka
from minuscule.cli import run
from minuscule.poly import IntPolynomial


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

    def test_auto_outside_type_a_is_invalid_input(self):
        code, _, err = invoke(
            ["csp", "check", "--type", "D", "--rank", "4", "--weights", "1,1,1,1"])
        assert code == 2 and "automatic" in err


class TestBatteryCommand:
    def test_quick_passes(self):
        code, out, _ = invoke(["battery", "--scope", "quick"])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert len(data["suites"]) >= 6
        assert all(s["passed"] for s in data["suites"])

    def test_broken_charge_is_caught_and_named(self, monkeypatch):
        monkeypatch.setattr(kostka, "charge", lambda word: 0)
        code, out, _ = invoke(["battery", "--scope", "quick"])
        assert code == 1
        data = json.loads(out)
        failing = [s["name"] for s in data["suites"] if not s["passed"]]
        assert "kostka-oracle-equivalence" in failing


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

    def test_byte_determinism(self):
        argv = ["csp", "check", "--type", "A", "--rank", "2",
                "--weights", "1,2,1,2", "--ell", "2"]
        assert invoke(argv) == invoke(argv)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minuscule.cli", "kostka",
             "--shape", "2,2", "--content", "1,1,1,1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "q^2 + q^4"


def test_run_accepts_intpolynomial_coeff_grammar():
    # coefficients ascending: 0,0,0,0,1,0,1 is q^4 + q^6
    code, out, _ = invoke(
        ["csp", "check", "--type", "A", "--rank", "1", "--weights", "1,1,1,1",
         "--ell", "1", "--poly", "0,0,0,0,1,0,1"])
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    assert IntPolynomial((0, 0, 0, 0, 1, 0, 1))(1) == 2
