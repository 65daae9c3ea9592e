"""The standard verification battery.

A fixed registry of desk-scale cases plus one suite per documented
property.  Each suite returns its checks and failures, for the CLI and the
test harness alike, each failure with its case serialized; a suite passes
when it has no failures.
"""
from __future__ import annotations

import itertools
import random

from . import crystals, csp, kostka, paths, rootsys, tableaux
from .errors import NotInRootLattice
from .paths import WeightSequence
from .poly import IntPolynomial
from .records import Record


def _seq(family, rank, indices):
    rs = rootsys.build_root_system(family, rank)
    return WeightSequence(rs, tuple(rs.fundamental_weight(i) for i in indices))


def standard_battery() -> tuple[WeightSequence, ...]:
    return (
        _seq("A", 1, (1, 1)),
        _seq("A", 1, (1, 1, 1, 1)),
        _seq("A", 1, (1, 1, 1, 1, 1, 1)),
        _seq("A", 1, (1, 1, 1, 1, 1, 1, 1, 1)),
        _seq("A", 2, (1, 1, 1)),
        _seq("A", 2, (1, 2, 1, 2)),
        _seq("A", 2, (1, 1, 2, 1, 1, 2)),
        _seq("A", 3, (2, 2, 2, 2)),
        _seq("A", 3, (1, 3, 1, 3)),
        _seq("D", 4, (1, 1, 1, 1)),
        _seq("E", 6, (1, 6, 1, 6)),
    )


def quick_battery() -> tuple[WeightSequence, ...]:
    return tuple(
        seq for seq in standard_battery()
        if seq.rs.family == "A" and seq.rs.rank <= 2 and len(seq) <= 6
    )


def describe(seq: WeightSequence) -> str:
    indices = ",".join(str(w.index(1) + 1) for w in seq.weights)
    return f"{seq.rs}:({indices})"


# crystals larger than this are spot-checked on a seeded sample instead of
# exhaustively; only the E6 case exceeds it
EXHAUSTIVE_CRYSTAL_LIMIT = 10_000
CRYSTAL_SAMPLE = 300


class SuiteResult(Record):
    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self._fill(name, checks, [] if failures is None else failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, message: str):
        self.failures.append(message)


def _random_element(seq, rng):
    factors = tuple(
        rng.choice(rootsys.weyl_orbit(seq.rs, lam)) for lam in seq.weights)
    return crystals.TensorCrystalElement(seq, factors)


def _crystal_sample(seq, rng):
    """Every element of a small crystal, which draws nothing from ``rng``;
    else the invariants and a seeded random sample.  The flag is True for
    a whole crystal, which every operator and xi map into itself."""
    if crystals.crystal_size(seq) <= EXHAUSTIVE_CRYSTAL_LIMIT:
        return list(crystals.all_elements(seq)), True
    sample = list(crystals.invariant_elements(seq))
    sample.extend(_random_element(seq, rng) for _ in range(CRYSTAL_SAMPLE))
    return sample, False


def suite_counting(cases) -> SuiteResult:
    # both counts apply the dominance rule: paths keep every point dominant,
    # and invariant_dim's straightening of a dominant mu + x + rho is empty;
    # the crystal invariants are the path images, so they add no count
    res = SuiteResult("counting")
    for seq in cases:
        n_paths = len(paths.enumerate_paths(seq))
        n_dim = kostka.invariant_dim(seq)
        res.checks += 1
        if n_paths != n_dim:
            res.fail(f"{describe(seq)}: paths={n_paths} dim={n_dim}")
    return res


def suite_rotation_order(cases) -> SuiteResult:
    res = SuiteResult("rotation-order")
    for seq in cases:
        m = len(seq)
        found = paths.enumerate_paths(seq)
        for p, q in zip(found, paths.rotate_all(found, m)):
            res.checks += 1
            if q.points != p.points:
                res.fail(f"{describe(seq)}: rotation^{m} moved {p.points} to {q.points}")
    return res


def suite_promotion_equivariance(cases) -> SuiteResult:
    res = SuiteResult("promotion-equivariance")
    for seq in cases:
        if seq.rs.family != "A":
            continue
        found = paths.enumerate_paths(seq)
        for p, rotated in zip(found, paths.rotate_all(found)):
            start = tableaux.path_to_tableau(p)
            lhs = tableaux.promote(start)
            rhs = tableaux.path_to_tableau(rotated)
            res.checks += 1
            if lhs.rows != rhs.rows:
                res.fail(f"{describe(seq)}: promote/rotate disagree on {p.points}")
            t = start
            for _ in range(len(seq)):
                t = tableaux.promote(t)
            res.checks += 1
            if t.rows != start.rows:
                res.fail(f"{describe(seq)}: promotion^m moved {p.points}")
    return res


def suite_crystal_coherence(cases, rng_seed: int = 0) -> SuiteResult:
    res = SuiteResult("crystal-coherence")
    rng = random.Random(rng_seed)
    for seq in cases:
        enumerated = paths.enumerate_paths(seq)
        images = [crystals.path_bijection(p) for p in enumerated]
        # the signature rule, which does not apply the dominance rule
        res.checks += 1
        if not all(map(crystals.is_invariant, images)):
            res.fail(f"{describe(seq)}: a path image is not invariant")
        for p, b, rotated in zip(enumerated, images, paths.rotate_all(enumerated)):
            lhs = crystals.commutor_rotate(b)
            rhs = crystals.path_bijection(rotated)
            res.checks += 1
            if lhs.factors != rhs.factors:
                res.fail(f"{describe(seq)}: commutor/rotation disagree on {p.points}")
        _check_involution(seq, rng, res)
    return res


def _add_images(image, elements):
    """Map every element whose factors ``image`` lacks, in one
    ``schutzenberger_all`` call if there is any; ``image`` maps factors
    to elements."""
    missing = {b.factors: b for b in elements if b.factors not in image}
    if missing:  # saves no time (BENCH_40.json), but a test counts the calls
        image.update(zip(missing, crystals.schutzenberger_all(missing.values())))


def _raised(b, dual):
    """The pairs (i, e_i b) with e_i b nonzero, by the public ``crystal_op``."""
    return [(i, up) for i in dual if (up := crystals.crystal_op("raise", i, b)) is not None]


def _check_involution(seq, rng, res):
    """xi is an involution and does not depend on the raising route.

    xi is a function of the factors, so each element is mapped once, in
    at most two ``schutzenberger_all`` calls: the sample, with every e_i b
    it raises to unless it is a whole crystal (which holds them already),
    then the sample's images not mapped yet (a whole crystal has none).
    The raised elements are made again in the check rather than held.
    xi(xi(b)) is read from that map, which dies with the case.

    xi is defined by xi(e_i b) = f_{i*} xi(b), so route independence is
    the local rule xi(b) = e_{i*} xi(e_i b) at every b of the sample and
    every i with e_i b nonzero, checked with the public ``crystal_op`` and
    ``dual_index`` only.  By induction on the distance to the top, the
    rule holds on a whole component exactly when every raising route
    gives the same xi, so on an exhaustive sample it covers every route.
    """
    sample, closed = _crystal_sample(seq, rng)
    dual = {i: rootsys.dual_index(seq.rs, i) for i in range(1, seq.rs.rank + 1)}
    extra = () if closed else (up for b in sample for _, up in _raised(b, dual))
    image = {}
    _add_images(image, itertools.chain(sample, extra))
    _add_images(image, [image[b.factors] for b in sample])
    for b in sample:
        res.checks += 1
        if image[image[b.factors].factors].factors != b.factors:
            res.fail(f"{describe(seq)}: involution fails on {b.factors}")

    for b in sample:
        for i, up in _raised(b, dual):
            res.checks += 1
            if crystals.crystal_op("raise", dual[i], image[up.factors]) != image[b.factors]:
                res.fail(f"{describe(seq)}: involution depends on the route at {b.factors}")


def _partitions(n, maxpart=None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def suite_kostka_oracle(exhaustive_to: int = 6, random_trials: int = 50,
                        rng_seed: int = 0) -> SuiteResult:
    res = SuiteResult("kostka-oracle-equivalence")
    pairs = [pair for n in range(1, exhaustive_to + 1)
             for pair in itertools.product(_partitions(n), repeat=2)]
    rng = random.Random(rng_seed)
    for _ in range(random_trials):
        shapes = list(_partitions(rng.choice([7, 8])))
        pairs.append((rng.choice(shapes), rng.choice(shapes)))
    for nu, gamma in pairs:
        res.checks += 1
        if kostka.kostka_foulkes(nu, gamma) != kostka.q_kostant(nu, gamma):
            res.fail(f"charge K != alternating-sum K at nu={nu} gamma={gamma}")
    return res


def suite_cyclic_sieving(cases) -> SuiteResult:
    """One check per period of each type-A case.  A sequence's polynomial
    does not depend on the period, so it is decided once: the root-lattice
    refusal once per case, else the automatic polynomial at the smallest
    period, supplied at every larger one."""
    res = SuiteResult("cyclic-sieving")
    for seq in cases:
        if seq.rs.family != "A":
            continue
        periods = paths.periods(seq)
        res.checks += len(periods)
        if not rootsys.in_root_lattice(seq.rs, seq.total()):
            # no invariants; the automatic polynomial must refuse
            try:
                csp.type_a_csp_polynomial(seq)
            except NotInRootLattice:
                if paths.enumerate_paths(seq):
                    res.fail(f"{describe(seq)}: refused although paths exist")
            else:
                res.fail(f"{describe(seq)}: expected a root-lattice refusal")
            continue
        poly = None
        for ell in periods:
            report = csp.csp_check(seq, ell, poly)
            poly = report.instance.poly
            if report.verdict != "pass":
                res.fail(f"{describe(seq)} ell={ell}: counts {report.fixed_counts} vs {poly}")
    return res


def suite_exponent_identity(cases) -> SuiteResult:
    res = SuiteResult("exponent-identity")
    for seq in cases:
        if seq.rs.family != "A":
            continue
        doubled, pairing = csp.exponent_identity(seq)
        res.checks += 1
        if doubled != pairing:
            res.fail(f"{describe(seq)}: exponent identity fails")
    return res


def suite_stabilizer_lemma(trials: int = 500, rng_seed: int = 0) -> SuiteResult:
    res = SuiteResult("stabilizer-lemma")
    rng = random.Random(rng_seed)
    systems = sorted({seq.rs for seq in standard_battery()}, key=str)
    for _ in range(trials):
        rs = rng.choice(systems)
        beta = tuple(rng.randrange(4) for _ in range(rs.rank))
        lam = rng.choice(rootsys.minuscule_weights(rs))
        x = rng.choice(rootsys.weyl_orbit(rs, lam))
        res.checks += 1
        if not paths.stabilizer_word_fixes_base(rs, beta, x):
            res.fail(f"{rs}: word for {beta}+{x} moves {beta}")
    return res


def suite_reflection_words(rng_seed: int = 0) -> SuiteResult:
    res = SuiteResult("reflection-words")
    rng = random.Random(rng_seed)
    systems = sorted({seq.rs for seq in standard_battery()}, key=str)
    for rs in systems:
        for _ in range(60):
            w = tuple(rng.randrange(-3, 4) for _ in range(rs.rank))
            i = rng.randrange(1, rs.rank + 1)
            res.checks += 1
            if rootsys.simple_reflection(rs, i, rootsys.simple_reflection(rs, i, w)) != w:
                res.fail(f"{rs}: reflection at {i} is not an involution on {w}")
            dom, word = rootsys.to_dominant(rs, w)
            negatives = sum(
                1 for c in rs.positive_coroots
                if sum(a * b for a, b in zip(w, c)) < 0)
            res.checks += 1
            if len(word) != negatives:
                res.fail(f"{rs}: word length {len(word)} != inversion count {negatives}")
            res.checks += 1
            if rootsys.apply_word(rs, word, w) != dom or any(x < 0 for x in dom):
                res.fail(f"{rs}: straightening word does not reach the dominant point")
    return res


def suite_cyclotomic(limit: int = 48) -> SuiteResult:
    res = SuiteResult("cyclotomic-identities")
    for r in range(1, limit + 1):
        product = IntPolynomial((1,))
        for d in range(1, r + 1):
            if r % d == 0:
                product = product * csp.cyclotomic(d)
        res.checks += 1
        if product != IntPolynomial((-1,) + (0,) * (r - 1) + (1,)):
            res.fail(f"cyclotomic product at r={r} is not q^{r}-1")
    return res


def run_battery(scope: str = "quick", rng_seed: int = 0) -> list[SuiteResult]:
    if scope not in ("quick", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    quick = scope == "quick"
    cases = quick_battery() if quick else standard_battery()
    return [
        suite_counting(cases),
        suite_rotation_order(cases),
        suite_promotion_equivariance(cases),
        suite_crystal_coherence(cases, rng_seed),
        suite_kostka_oracle(4 if quick else 6, 0 if quick else 50, rng_seed),
        suite_cyclic_sieving(cases),
        suite_exponent_identity(cases),
        suite_stabilizer_lemma(100 if quick else 500, rng_seed),
        suite_reflection_words(rng_seed),
        suite_cyclotomic(24 if quick else 48),
    ]
