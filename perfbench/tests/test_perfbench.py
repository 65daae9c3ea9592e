"""Tests of the benchmark itself: case generation, metric names, a smoke run.

Run from the repository root:  python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cases  # noqa: E402
import run  # noqa: E402
from minuscule import paths, rootsys  # noqa: E402
from minuscule.battery import _seq  # noqa: E402

SEEDS = (0, 1, 7, 12345)
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_same_cases(workload):
    for seed in SEEDS:
        assert cases.generate(workload, seed) == cases.generate(workload, seed)


@pytest.mark.parametrize("workload", ["sieve", "invariants"])
def test_seeds_vary_the_cases(workload):
    assert cases.generate(workload, 1) != cases.generate(workload, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_sieve_cases_are_periodic_type_a_in_the_root_lattice(seed):
    generated = cases.sieve_cases(seed)
    assert len(generated) >= 100
    assert {c["rank"] for c in generated} == {1, 2, 3, 4, 5}
    for c in generated:
        w, ell = c["weights"], c["ell"]
        assert c["family"] == "A"
        assert len(w) % ell == 0 and len(w) // ell >= 2
        assert w[ell:] + w[:ell] == w
        assert ell == min(d for d in range(1, len(w) + 1)
                          if len(w) % d == 0 and w[d:] + w[:d] == w)
        rs = rootsys.build_root_system("A", c["rank"])
        total = tuple(map(sum, zip(*(rs.fundamental_weight(i) for i in w))))
        assert rootsys.in_root_lattice(rs, total)
        assert c["paths"] >= 1


def test_path_count_matches_enumeration():
    small = [c for c in cases.sieve_cases(3) if c["paths"] <= 60]
    assert len(small) > 40
    for c in small:
        assert len(paths.enumerate_paths(_seq("A", c["rank"], c["weights"]))) == c["paths"]


@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_cover_every_minuscule_family(seed):
    generated = cases.invariants_cases(seed)
    e6_six = [c for c in generated if (c["family"], c["rank"], len(c["weights"])) == ("E", 6, 6)]
    assert len(e6_six) == 1
    assert len(generated) - 1 >= 100
    types = [("A", n) for n in range(1, 6)] + [("B", n) for n in (2, 3, 4)]
    types += [("C", n) for n in (2, 3, 4)] + [("D", n) for n in (4, 5, 6)]
    types += [("E", 6), ("E", 7)]
    assert sorted({(c["family"], c["rank"]) for c in generated}) == sorted(types)
    for family, rank in types:
        used = {i for c in generated if (c["family"], c["rank"]) == (family, rank)
                for i in c["weights"]}
        classes = cases.weight_classes(family, rank)
        assert set().union(*classes) == set(cases.minuscule_indices(family, rank))
        assert all(used & cls for cls in classes), (family, rank, used)
    for c in generated:
        rs = rootsys.build_root_system(c["family"], c["rank"])
        total = tuple(map(sum, zip(*(rs.fundamental_weight(i) for i in c["weights"]))))
        assert rootsys.in_root_lattice(rs, total)


def test_generator_agrees_with_the_package_on_cartan_data():
    for family, rank, _ in cases.INVARIANT_SLOTS:
        rs = rootsys.build_root_system(family, rank)
        assert cases.cartan_matrix(family, rank) == rs.cartan
        indices = tuple(w.index(1) + 1 for w in rootsys.minuscule_weights(rs))
        assert indices == cases.minuscule_indices(family, rank)


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name) and len(name) <= 64


def _smoke(capsys, workload, trace, picked):
    args = run.argparse.Namespace(workload=workload, seed=0, seconds=0, trace=trace)
    assert run.measure(args, picked) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    record = json.loads(lines[-2])["record"]
    assert set(record["latency_ms"]) == set(run.LATENCY)
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, trace):
    picked = [c for c in cases.sieve_cases(0) if c["paths"] <= 3][:4]
    result = _smoke(capsys, "sieve", trace, picked)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(picked) * (1 + trace)


def test_smoke_invariants_counts_and_replays(capsys):
    picked = [c for c in cases.invariants_cases(0) if len(c["weights"]) == 2][:3]
    result = _smoke(capsys, "invariants", 1, picked)
    assert result["correct"] and result["metrics"]["crystals.invariants"]["value"] == 3
    args = run.argparse.Namespace(workload="invariants", seed=0, case=0)
    assert run.replay(args, picked) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert replayed["case"] == picked[0] and len(replayed["output"]["invariants"]) == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sieve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
