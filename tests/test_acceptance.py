"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The standard battery is the registry in minuscule.battery: A1 with 2, 4,
6 and 8 factors; A2 with (1,1,1), (1,2,1,2) and (1,1,2,1,1,2); A3 with
(2,2,2,2) and (1,3,1,3); D4 with (1,1,1,1); E6 with (1,6,1,6).  Each
criterion runs the battery suite that checks it, plus the anchors the
suite does not state.  All comparisons are exact; the only tolerances
are wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines.
"""
import collections
import time

import pytest

from minuscule import battery as bat
from minuscule import crystals, csp, kostka, paths, tableaux
from minuscule.errors import AlgorithmInvariantViolated
from minuscule.poly import IntPolynomial

CASES = bat.standard_battery()

# Every suite's check count, per scope.  A change to what the battery
# checks edits these tables and says why.
QUICK_CHECKS = {
    "counting": 6,
    "rotation-order": 11,
    "promotion-equivariance": 22,
    "crystal-coherence": 2038,
    "kostka-oracle-equivalence": 39,
    "cyclic-sieving": 15,
    "exponent-identity": 6,
    "stabilizer-lemma": 100,
    "reflection-words": 900,
    "cyclotomic-identities": 24,
}
FULL_CHECKS = {
    "counting": 11,
    "rotation-order": 36,
    "promotion-equivariance": 60,
    "crystal-coherence": 20250,
    "kostka-oracle-equivalence": 259,
    "cyclic-sieving": 24,
    "exponent-identity": 9,
    "stabilizer-lemma": 500,
    "reflection-words": 900,
    "cyclotomic-identities": 48,
}


def _report(number, name, ok, elapsed, budget):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    line += f" [{elapsed:.1f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(line)


@pytest.fixture()
def clock():
    start = time.monotonic()
    yield lambda: time.monotonic() - start


def _gate(number, name, ok, elapsed, budget):
    _report(number, name, ok, elapsed, budget)
    assert ok and (not budget or elapsed < budget)


def test_criterion_1_counting(clock):
    anchors = {
        ("A1", 4): 2, ("A1", 6): 5, ("A1", 8): 14,
        ("D4", 4): 3, ("E6", 4): 3,
    }
    ok = bat.suite_counting(CASES).passed
    for seq in CASES:
        want = anchors.get((str(seq.rs), len(seq)))
        if want is not None:
            ok &= len(paths.enumerate_paths(seq)) == want
    _gate(1, "counting", ok, clock(), 60)


def test_criterion_2_rotation_order(clock):
    _gate(2, "rotation order", bat.suite_rotation_order(CASES).passed, clock(), 60)


def test_criterion_3_promotion_equivariance(clock):
    ok = bat.suite_promotion_equivariance(CASES).passed
    _gate(3, "promotion equivariance", ok, clock(), 30)


def test_criterion_4_crystal_coherence(clock):
    ok = bat.suite_crystal_coherence(CASES, rng_seed=0).passed
    _gate(4, "crystal coherence", ok, clock(), 120)


def test_every_suite_check_count_is_pinned():
    for scope, pinned in (("quick", QUICK_CHECKS), ("full", FULL_CHECKS)):
        results = bat.run_battery(scope, rng_seed=0)
        assert all(r.passed for r in results)
        assert {r.name: r.checks for r in results} == pinned


QUICK = bat.quick_battery()

# One planted fault per suite that unit tests hand their property to: the
# public function the suite calls, the fault made from the real function,
# the suite's run, and texts of the suite's own failure report.
PLANTED = {
    "rotate_all one level short": (
        paths, "rotate_all", lambda real: lambda found, k=1: real(found, k - 1),
        lambda: bat.suite_rotation_order(QUICK), ["rotation^4 moved"]),
    "promote returns its input": (
        tableaux, "promote", lambda real: lambda t: t,
        lambda: bat.suite_promotion_equivariance(QUICK), ["promote/rotate disagree"]),
    "enumerate_paths drops its last path": (
        paths, "enumerate_paths", lambda real: lambda seq: real(seq)[:-1],
        lambda: bat.suite_counting(QUICK), ["paths=0 dim=1"]),
    "commutor_rotate shifts the factors": (
        crystals, "commutor_rotate", lambda real: lambda b: crystals.TensorCrystalElement(
            b.seq.rotated(1), b.factors[1:] + b.factors[:1]),
        lambda: bat.suite_crystal_coherence(QUICK, 0), ["commutor/rotation disagree"]),
    "cyclotomic(6) times 1 + q": (
        csp, "cyclotomic", lambda real: lambda r: real(r) * IntPolynomial((1, 1)) if r == 6
        else real(r), lambda: bat.suite_cyclotomic(48), ["at r=6 is", "at r=12 is"]),
}


@pytest.mark.parametrize("fault", PLANTED)
def test_a_planted_fault_fails_its_suite(monkeypatch, fault):
    module, name, plant, run, texts = PLANTED[fault]
    # the recursion reads cyclotomic through the module: with every value
    # cached first it never reads a planted one back into the cache
    for r in range(1, 49):
        csp.cyclotomic(r)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    failures = run().failures
    assert failures and all(any(t in f for f in failures) for t in texts), failures
    monkeypatch.undo()
    assert run().passed


def test_criterion_4_builds_each_exhaustive_crystal_once(monkeypatch):
    # the involution and the local rule both read one sample per case
    built = collections.Counter()
    all_elements = crystals.all_elements

    def counted(seq):
        built[bat.describe(seq)] += 1
        return all_elements(seq)

    monkeypatch.setattr(crystals, "all_elements", counted)
    result = bat.suite_crystal_coherence(CASES, rng_seed=0)
    assert result.passed and result.checks == FULL_CHECKS["crystal-coherence"]
    exhaustive = [bat.describe(s) for s in CASES
                  if crystals.crystal_size(s) <= bat.EXHAUSTIVE_CRYSTAL_LIMIT]
    assert len(exhaustive) == 10 and built == collections.Counter(exhaustive)


def test_criterion_4_maps_each_case_in_at_most_two_calls(monkeypatch):
    # one schutzenberger_all call for the sample (and, on the sampled E6
    # case, the elements it raises to), one for the images not mapped yet;
    # none per sample element
    calls = collections.Counter()
    xi_all = crystals.schutzenberger_all

    def counted(elements):
        elements = list(elements)
        calls[bat.describe(elements[0].seq) if elements else "no elements"] += 1
        return xi_all(elements)

    monkeypatch.setattr(crystals, "schutzenberger_all", counted)
    result = bat.suite_crystal_coherence(CASES, rng_seed=0)
    assert result.passed and result.checks == FULL_CHECKS["crystal-coherence"]
    assert 1 <= calls["D4:(1,1,1,1)"] <= 2 and 1 <= calls["E6:(1,6,1,6)"] <= 2
    assert set(calls) == {bat.describe(s) for s in CASES}
    assert max(calls.values()) <= 2


def test_criterion_4_catches_a_descent_that_skips_a_letter(monkeypatch):
    # a descent whose dual ascent stops one e_i short of the dual's top
    # stops one f_i short of the bottom, and replaying the raising record
    # from there leaves the crystal
    def short(rs, factors, moves):
        dual = crystals._dual(factors)
        steps = crystals._to_highest(rs, dual, {}, moves)
        if steps:
            dual = steps[-1][1]
        return tuple(crystals._dual(dual))

    monkeypatch.setattr(crystals, "_to_lowest", short)
    with pytest.raises(AlgorithmInvariantViolated, match="replay"):
        bat.suite_crystal_coherence(CASES, rng_seed=0)


def test_criterion_4_catches_a_xi_that_is_not_an_involution(monkeypatch):
    # xi followed by one e_1 where it applies stays inside the crystal;
    # xi(xi(b)) tells in every family, and the local rule breaks as well
    xi_all = crystals.schutzenberger_all

    def skewed(elements):
        return [crystals.crystal_op("raise", 1, x) or x for x in xi_all(elements)]

    monkeypatch.setattr(crystals, "schutzenberger_all", skewed)
    result = bat.suite_crystal_coherence(CASES, rng_seed=0)
    assert not result.passed and result.checks == FULL_CHECKS["crystal-coherence"]
    involution = [f for f in result.failures if ": involution fails on " in f]
    route = [f for f in result.failures if ": involution depends on the route at " in f]
    assert route and len(involution) + len(route) == len(result.failures)
    assert {f.split(":")[0] for f in involution} >= {"A1", "D4", "E6"}


def test_criterion_4_catches_a_xi_that_is_an_involution_but_not_a_crystal_map(monkeypatch):
    # V^(x)4 of A1 holds three copies of V(2); tau swaps the tops of two of
    # them.  tau xi tau is still an involution, but it sends one top to the
    # bottom of another component, so only the local rule can tell
    (seq,) = [s for s in CASES if str(s.rs) == "A1" and len(s) == 4]
    t1, t2, _ = [b for b in crystals.all_elements(seq)
                 if crystals.is_highest_weight(b) and b.weight() == (2,)]
    tau = {t1.factors: t2, t2.factors: t1}
    xi_all = crystals.schutzenberger_all

    def conjugated(elements):
        swapped = xi_all([tau.get(b.factors, b) for b in elements])
        return [tau.get(x.factors, x) for x in swapped]

    monkeypatch.setattr(crystals, "schutzenberger_all", conjugated)
    result = bat.suite_crystal_coherence([seq], rng_seed=0)
    assert not result.passed
    assert all(": involution depends on the route at " in f for f in result.failures)


def test_criterion_5_kostka_oracle(clock):
    result = bat.suite_kostka_oracle(exhaustive_to=6, random_trials=50, rng_seed=0)
    anchors = (
        kostka.kostka_foulkes((2, 1), (1, 1, 1)).coeffs == (0, 1, 1)
        and kostka.kostka_foulkes((2, 2), (1, 1, 1, 1)).coeffs == (0, 0, 1, 0, 1)
        and kostka.kostka_foulkes((3,), (1, 1, 1)).coeffs == (0, 0, 0, 1)
    )
    _gate(5, "kostka oracle equivalence", result.passed and anchors, clock(), 120)


def test_criterion_6_cyclic_sieving(clock):
    ok = bat.suite_cyclic_sieving(CASES).passed
    (a1_four,) = [s for s in CASES if str(s.rs) == "A1" and len(s) == 4]
    report = csp.csp_check(a1_four, 1)
    ok &= report.fixed_counts == (2, 0, 2, 0)
    ok &= report.instance.poly.coeffs == (0, 0, 0, 0, 1, 0, 1)
    _gate(6, "cyclic sieving", ok, clock(), 120)


def test_criterion_7_exponent_identity(clock):
    _gate(7, "exponent identity", bat.suite_exponent_identity(CASES).passed, clock(), 0)


def test_criterion_8_stabilizer_lemma(clock):
    result = bat.suite_stabilizer_lemma(trials=500, rng_seed=0)
    _gate(8, "stabilizer lemma", result.passed, clock(), 10)
