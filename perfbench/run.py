"""Benchmark of the ``minuscule`` package: three workloads, end-to-end
metrics with tracing off, per-layer metrics from a separate traced pass.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 5 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
``record`` with the environment, the output digest, the failures (each
with its case) and the pass details.  Two more modes help with a failure:

    python3 perfbench/run.py --workload sieve --seed 1 --manifest
    python3 perfbench/run.py --workload sieve --seed 1 --case 17

Load model: a closed loop with one client and no threads.  The runner
generates the seed's cases, then runs passes over them, each pass in a
fresh interpreter (``worker.py``), one case at a time, the next case only
after the previous verdict.  It repeats passes until ``--seconds`` of
measured time have passed, and always finishes at least one.  See
NOTES.md for the workloads, the metrics and the measured noise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases as casegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# every run must end well inside the 180 s a run is allowed
DEADLINE_S = 170
# set-up is a ~50 ms job, so it is sampled in this many fresh interpreters
SETUP_SAMPLES = 9
# errors that mean a documented cap was crossed, not a wrong or crashed computation
CAP_ERRORS = {"EnumerationTooLarge", "OrbitTooLarge", "OracleTooLarge"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-case latency is printed and recorded but not gated.  On a 2-core Xeon VM
# the clock speed flipped by up to 1.7x within seconds, and p50 and p90 over
# the 24-30 ms and 185-200 ms tiers of `invariants` then spread by 0.24-0.36
# (IQR/median over 10 seeds), past any bound a regression gate can use.
LATENCY = {
    "case_p50_ms": 0.5,
    "case_p90_ms": 0.9,
}
PER_LAYER = {
    **{f"battery.{name}_s": "s" for name in casegen.BATTERY_SUITES},
    "battery.checks": "count",
    "crystals.invariant_elements_s": "s",
    "crystals.invariants": "count",
    "crystals.cap_exceeded": "count",
    "crystals.commutor_rotate_s": "s",
    "crystals.commutors": "count",
    "paths.enumerate_paths_s": "s",
    "paths.paths": "count",
    "paths.rotate_s": "s",
    "paths.rotations": "count",
    "kostka.kostka_foulkes_s": "s",
    "kostka.tableaux": "count",
    "tableaux.path_to_tableau_s": "s",
    "tableaux.promote_s": "s",
    "tableaux.promotions": "count",
    "csp.eval_matches_s": "s",
    "csp.evaluations": "count",
    "rootsys.setup_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result may be printed."""


def call_worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before a {job['mode']} pass")
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                              capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['mode']} pass did not end within {DEADLINE_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(), "cpu": cpu}


def failures(cases, passes):
    """One entry per failed case and pass, carrying the case itself."""
    out = []
    for number, (label, result) in enumerate(passes):
        for index, outcome in enumerate(result["outcomes"]):
            if outcome["error"] or outcome["mismatch"]:
                out.append({"pass": number, "mode": label, "index": index, "case": cases[index],
                            "error": outcome["error"], "mismatch": outcome["mismatch"]})
    return out


def end_to_end_metrics(plain, setup_samples):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def latency_ms(plain):
    """Nearest-rank percentiles of per-case time to verdict, median over passes."""
    return {name: statistics.median(1000 * nearest_rank(p["case_s"], q) for p in plain)
            for name, q in LATENCY.items()}


def per_layer_metrics(traced, plain):
    trace = traced["trace"]
    values = {name: 0 for name in PER_LAYER}
    for name, seconds in trace["seconds"].items():
        values[f"{name}_s"] = seconds
    values.update(trace["counts"])
    values["rootsys.setup_s"] = traced["rootsys_s"]
    values["trace.overhead_s"] = traced["wall_s"] - statistics.median(p["wall_s"] for p in plain)
    values["trace.coverage"] = sum(trace["seconds"].values()) / sum(traced["case_s"])
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"traced pass reported unlisted layers {sorted(unknown)}")
    return values


def measure(args, cases) -> int:
    deadline = time.monotonic() + DEADLINE_S
    job = {"workload": args.workload, "types": casegen.root_systems(args.workload, cases),
           "cases": cases}
    setup_samples = [call_worker({**job, "mode": "setup", "cases": []}, deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES)]
    plain = []
    while not plain or sum(p["wall_s"] for p in plain) < args.seconds:
        plain.append(call_worker({**job, "mode": "plain"}, deadline))
    setup_samples += [p["setup_s"] for p in plain]
    passes = [("plain", p) for p in plain]
    traced = None
    if args.trace:
        traced = call_worker({**job, "mode": "traced"}, deadline)
        passes.append(("traced", traced))

    found = failures(cases, passes)
    wrong = [f for f in found if f["mismatch"] or f["error"]["type"] not in CAP_ERRORS]
    plain_digests = {p["digest"] for p in plain}
    attempted = len(cases) * len(passes)
    if args.trace:
        metrics = per_layer_metrics(traced, plain)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(plain, setup_samples)
        units = END_TO_END
    if traced and traced["digest"] not in plain_digests:
        print("warning: the traced pass produced other outputs than the plain pass, so the "
              "per-layer figures do not measure the same work", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "load": "closed loop, 1 client, 1 case at a time, fresh interpreter per pass",
        "cases_per_pass": len(cases), "plain_passes": len(plain),
        "digest": sorted(plain_digests)[0] if len(plain_digests) == 1 else sorted(plain_digests),
        "traced_digest_matches": None if traced is None else traced["digest"] in plain_digests,
        "fail_ratio": len(found) / attempted, "failed": len(found), "attempted": attempted,
        "failures": found,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "latency_ms": latency_ms(plain),
        "setup_samples_s": setup_samples,
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in record["latency_ms"].items():
        print(f"{name} {value:.6g} ms (recorded, not gated; {len(cases)} cases per pass)")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({len(found)} of {attempted} cases)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not wrong and len(plain_digests) == 1,
        "attempted": attempted,
        "failed": len(found),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def replay(args, cases) -> int:
    """Rerun one case alone, traced, and show its output and oracle verdict."""
    case = cases[args.case]
    job = {"workload": args.workload, "types": casegen.root_systems(args.workload, [case]),
           "cases": [case], "mode": "traced", "keep_outputs": True}
    result = call_worker(job, time.monotonic() + DEADLINE_S)
    outcome = result["outcomes"][0]
    print(json.dumps({"index": args.case, "case": case, "seconds": result["case_s"][0],
                      "output": result["outputs"][0], "error": outcome["error"],
                      "mismatch": outcome["mismatch"], "layers": result["trace"]}))
    return 1 if outcome["error"] or outcome["mismatch"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=casegen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="print the seed's cases and exit")
    parser.add_argument("--case", type=int, help="rerun the case with this index and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minuscule" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'minuscule'}", file=sys.stderr)
        return 2
    cases = casegen.generate(args.workload, args.seed)
    if args.manifest:
        print("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]")
        return 0
    try:
        if args.case is not None:
            if not 0 <= args.case < len(cases):
                print(f"error: case index must be in 0..{len(cases) - 1}", file=sys.stderr)
                return 2
            return replay(args, cases)
        return measure(args, cases)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
