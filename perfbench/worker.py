"""One pass of a workload in a fresh interpreter, so every pass pays the
cold ``lru_cache`` state that a CLI invocation pays.

Reads one JSON object on stdin: ``mode``, ``workload``, ``types`` (the
root systems to set up) and ``cases``.  Writes one JSON object on stdout.

Modes:

* ``setup``: import ``minuscule`` and build the root systems, minuscule
  weights and Weyl orbits of ``types``; nothing else.
* ``plain``: set up, then run every case through its entry point
  (``run_battery``, ``csp_check``, ``invariant_elements``), timing each.
* ``traced``: set up, then run every case through the public functions
  the entry point is built from, timing each call by layer.

The correctness gate and the output digest run after the timed loop.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"


class Trace:
    """Busy seconds and work counts per layer, from the benchmark's own calls."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n


class Untraced:
    """Takes the place of Trace in a plain pass: calls through, records nothing."""

    @staticmethod
    def call(_name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(_name, n=1):
        pass


def setup(types):
    """Import the package and build what every case of the workload needs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import minuscule  # noqa: F401  (the import itself is part of set-up)
    from minuscule import battery, crystals, csp, errors, kostka, paths, rootsys, tableaux
    built = time.perf_counter()
    for family, rank in types:
        rs = rootsys.build_root_system(family, rank)
        for w in rootsys.minuscule_weights(rs):
            rootsys.weyl_orbit(rs, w)
    end = time.perf_counter()
    lib = SimpleNamespace(battery=battery, crystals=crystals, csp=csp, errors=errors,
                          kostka=kostka, paths=paths, rootsys=rootsys, tableaux=tableaux)
    return lib, end - start, end - built


def _sequence(lib, case):
    rs = lib.rootsys.build_root_system(case["family"], case["rank"])
    return lib.paths.WeightSequence(rs, tuple(rs.fundamental_weight(i) for i in case["weights"]))


def _lists(factors):
    return [list(f) for f in factors]


def _power(step, x, k):
    for _ in range(k):
        x = step(x)
    return x


def _fixed_counts(items, key, step, r):
    """Fixed points of step^d for d = 0..r-1, where ``step`` permutes ``items``."""
    index = {key(x): k for k, x in enumerate(items)}
    perm = [index[key(step(x))] for x in items]
    counts, power = [], list(range(len(items)))
    for _ in range(r):
        counts.append(sum(1 for k, j in enumerate(power) if k == j))
        power = [perm[j] for j in power]
    return counts


def _promotion_counts(lib, found, ell, r, trace):
    """Fixed-point counts of promotion^ell on the tableaux of ``found``."""
    tabs = [trace.call("tableaux.path_to_tableau", lib.tableaux.path_to_tableau, p)
            for p in found]

    def promote_ell(t):
        trace.count("tableaux.promotions", ell)
        return _power(lambda u: trace.call("tableaux.promote", lib.tableaux.promote, u), t, ell)

    return _fixed_counts(tabs, lambda t: t.rows, promote_ell, r)


# ---- sieve: csp_check at the smallest shift, then promotion fixed points

def sieve_plain(lib, case, untraced):
    seq, ell = _sequence(lib, case), case["ell"]
    report = lib.csp.csp_check(seq, ell)
    r = report.instance.r
    return {
        "r": r,
        "ell": ell,
        "fixed_counts": list(report.fixed_counts),
        "polynomial": list(report.instance.poly.coeffs),
        "evaluations_ok": list(report.evaluations_ok),
        "sign": report.sign_diagnostic,
        "verdict": report.verdict,
        "promotion_fixed_counts": _promotion_counts(
            lib, lib.paths.enumerate_paths(seq), ell, r, untraced),
    }


def sieve_traced(lib, case, trace):
    """csp_check rebuilt from type_a_csp_polynomial's Kostka-Foulkes call,
    enumerate_paths, rotate and eval_matches."""
    seq, ell = _sequence(lib, case), case["ell"]
    rs, content = seq.rs, tuple(case["weights"])
    n = case["rank"] + 1
    kf = trace.call("kostka.kostka_foulkes", lib.kostka.kostka_foulkes,
                    (n,) * (sum(content) // n), content)
    trace.count("kostka.tableaux", sum(kf.coeffs))
    poly = kf.shift(lib.rootsys.two_rho_pairing(rs, seq.total()) // 2)

    found = trace.call("paths.enumerate_paths", lib.paths.enumerate_paths, seq)
    trace.count("paths.paths", len(found))

    def rotate_ell(p):
        trace.count("paths.rotations", ell)
        return _power(lambda q: trace.call("paths.rotate", lib.paths.rotate, q), p, ell)

    r = len(seq) // ell
    fixed = _fixed_counts(found, lambda p: p.points, rotate_ell, r)
    lib.csp.CSPInstance(seq, ell, r, poly)
    ok = [trace.call("csp.eval_matches", lib.csp.eval_matches, poly, r, d, c)
          for d, c in enumerate(fixed)]
    trace.count("csp.evaluations", len(ok))
    window = rs.zero()
    for w in seq.weights[:ell]:
        window = tuple(a + b for a, b in zip(window, w))

    found = trace.call("paths.enumerate_paths", lib.paths.enumerate_paths, seq)
    trace.count("paths.paths", len(found))
    return {
        "r": r,
        "ell": ell,
        "fixed_counts": fixed,
        "polynomial": list(poly.coeffs),
        "evaluations_ok": ok,
        "sign": -1 if lib.rootsys.two_rho_pairing(rs, window) % 2 else 1,
        "verdict": "pass" if all(ok) else "fail",
        "promotion_fixed_counts": _promotion_counts(lib, found, ell, r, trace),
    }


def sieve_gate(lib, case, out):
    if out["verdict"] != "pass":
        return f"verdict {out['verdict']}: counts {out['fixed_counts']} vs {out['polynomial']}"
    if out["promotion_fixed_counts"] != out["fixed_counts"]:
        return (f"promotion fixed points {out['promotion_fixed_counts']} "
                f"!= rotation fixed points {out['fixed_counts']}")
    if out["fixed_counts"][0] != case["paths"]:
        return f"{out['fixed_counts'][0]} paths, the independent count gives {case['paths']}"
    return None


# ---- invariants: highest-weight search, then the commutor on every invariant

def invariants_case(lib, case, trace):
    seq = _sequence(lib, case)
    try:
        found = trace.call("crystals.invariant_elements", lib.crystals.invariant_elements, seq)
    except lib.errors.EnumerationTooLarge:
        trace.count("crystals.cap_exceeded")
        raise
    trace.count("crystals.invariants", len(found))
    images = [trace.call("crystals.commutor_rotate", lib.crystals.commutor_rotate, b)
              for b in found]
    trace.count("crystals.commutors", len(images))
    return {"invariants": [_lists(b.factors) for b in found],
            "commutor": [_lists(b.factors) for b in images]}


def invariants_gate(lib, case, out):
    seq = _sequence(lib, case)
    found = lib.paths.enumerate_paths(seq)
    dim = lib.kostka.invariant_dim(seq)
    if not len(out["invariants"]) == len(found) == dim:
        return f"{len(out['invariants'])} invariants, {len(found)} paths, invariant_dim {dim}"
    image = {tuple(map(tuple, b)): tuple(map(tuple, c))
             for b, c in zip(out["invariants"], out["commutor"])}
    for p in found:
        want = lib.crystals.path_bijection(lib.paths.rotate(p)).factors
        if image.get(lib.crystals.path_bijection(p).factors) != want:
            return f"commutor differs from rotation at path {_lists(p.points)}"
    return None


# ---- battery: run_battery("full", seed); a case is one suite

def _battery_calls(lib, seed):
    """The suite calls run_battery("full", seed) makes, in its order."""
    b = lib.battery
    cases = b.standard_battery()
    return {
        "counting": (b.suite_counting, (cases,)),
        "rotation_order": (b.suite_rotation_order, (cases,)),
        "promotion_equivariance": (b.suite_promotion_equivariance, (cases,)),
        "crystal_coherence": (b.suite_crystal_coherence, (cases, seed)),
        "kostka_oracle": (b.suite_kostka_oracle, (6, 50, seed)),
        "cyclic_sieving": (b.suite_cyclic_sieving, (cases,)),
        "exponent_identity": (b.suite_exponent_identity, (cases,)),
        "stabilizer_lemma": (b.suite_stabilizer_lemma, (500, seed)),
        "reflection_words": (b.suite_reflection_words, (seed,)),
        "cyclotomic": (b.suite_cyclotomic, (48,)),
    }


def _suite_output(res):
    return {"name": res.name, "passed": res.passed, "checks": res.checks,
            "failures": list(res.failures)}


def battery_plain_pass(lib, cases):
    """One run_battery call answers every suite at once, so each suite's
    time to verdict is the whole call."""
    start = time.perf_counter()
    try:
        outs = [_suite_output(s) for s in lib.battery.run_battery("full", cases[0]["seed"])]
        errors = [None] * len(cases)
    except Exception:  # every suite of the call fails with it
        outs, errors = [None] * len(cases), [_error()] * len(cases)
    elapsed = time.perf_counter() - start
    return list(zip(outs, errors, [elapsed] * len(cases)))


def battery_traced(lib, case, trace):
    fn, args = _battery_calls(lib, case["seed"])[case["suite"]]
    res = trace.call(f"battery.{case['suite']}", fn, *args)
    trace.count("battery.checks", res.checks)
    return _suite_output(res)


def battery_gate(lib, case, out):
    return None if out["passed"] else "suite failed: " + "; ".join(out["failures"][:3])


RUNNERS = {
    "battery": (None, battery_traced, battery_gate),
    "sieve": (sieve_plain, sieve_traced, sieve_gate),
    "invariants": (invariants_case, invariants_case, invariants_gate),
}


def _error():
    exc_type, exc, _ = sys.exc_info()
    return {"type": exc_type.__name__, "message": str(exc),
            "traceback": traceback.format_exc(limit=4)}


def run_pass(lib, workload, cases, trace):
    plain, traced, _ = RUNNERS[workload]
    if trace is None and workload == "battery":
        return battery_plain_pass(lib, cases)
    results = []
    for case in cases:
        start = time.perf_counter()
        try:
            if trace is None:
                out = plain(lib, case, Untraced())
            else:
                out = traced(lib, case, trace)
            err = None
        except Exception:  # a raising case is a failed operation, not a crash
            out, err = None, _error()
        results.append((out, err, time.perf_counter() - start))
    return results


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main():
    job = json.load(sys.stdin)
    lib, setup_s, rootsys_s = setup([tuple(t) for t in job["types"]])
    report = {"setup_s": setup_s, "rootsys_s": rootsys_s}
    if job["mode"] == "setup":
        print(canonical(report))
        return
    trace = Trace() if job["mode"] == "traced" else None
    workload, cases = job["workload"], job["cases"]

    start = time.perf_counter()
    results = run_pass(lib, workload, cases, trace)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gate = RUNNERS[workload][2]
    digest = hashlib.sha256()
    outcomes = []
    for case, (out, err, _) in zip(cases, results):
        digest.update((canonical(out if err is None else {"error": err["type"]}) + "\n").encode())
        mismatch = None
        if err is None:
            try:
                mismatch = gate(lib, case, out)
            except Exception:  # the oracle itself failed on this case
                mismatch = "gate raised " + _error()["traceback"]
        outcomes.append({"error": err, "mismatch": mismatch})
    report.update(
        wall_s=wall_s,
        case_s=[seconds for _, _, seconds in results],
        peak_rss_mb=peak_rss_mb,
        outcomes=outcomes,
        digest=digest.hexdigest(),
        outputs=[out for out, _, _ in results] if job.get("keep_outputs") else None,
        trace=None if trace is None else {"seconds": trace.seconds, "counts": trace.counts},
    )
    print(canonical(report))


if __name__ == "__main__":
    main()
