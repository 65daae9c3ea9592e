"""Seeded inputs for the benchmark workloads.

Nothing here imports the package under test.  The cases a seed produces
must not change when the program changes, so two commits are always
measured on identical inputs, and the path counts computed here are an
oracle that shares no code with the program.

Each workload is a fixed table of slots.  The seed fills every slot with
a random sequence and shuffles the slots; the slot fixes what the cost of
a case depends on.  Slots come in tiers of similar cost, and the median
and the 90th percentile (by nearest rank) fall inside a tier of
equal-cost slots, several cases away from its edges.  Seeds therefore vary
the inputs without moving wall time, p50 or p90 by much.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

WORKLOADS = ("battery", "sieve", "invariants")

# suites in the order battery.run_battery runs them; metric names use these
BATTERY_SUITES = (
    "counting",
    "rotation_order",
    "promotion_equivariance",
    "crystal_coherence",
    "kostka_oracle",
    "cyclic_sieving",
    "exponent_identity",
    "stabilizer_lemma",
    "reflection_words",
    "cyclotomic",
)
# The battery runs with the CLI's default seed, so every run measures the
# headline command `minuscule battery --scope full`.  Its seed picks the
# random Kostka shapes, and their q-partition cache moves peak memory between
# 23 and 47 MB across seeds, far more than any bound could absorb.
BATTERY_SEED = 0
# the root systems of battery.standard_battery
BATTERY_TYPES = (("A", 1), ("A", 2), ("A", 3), ("D", 4), ("E", 6))

# sieve: the constant A1 sequences (1)^m, then 28 slots per rank 2..5, each
# a target in sieve_cost units (about 12 us each on a 2-core Xeon VM).  A slot
# draws from the sequences of its rank within SIEVE_BAND of the target, or
# from the closest ones.  Every rank has sequences within 4% of the median
# cost and within 7% of the p90 and top costs.
SIEVE_A1_LENGTHS = (2, 4, 6, 8, 10, 12, 14, 16)
SIEVE_RANKS = (2, 3, 4, 5)
SIEVE_MEDIAN_COST = 3540
SIEVE_P90_COST = 29025
SIEVE_TOP_COST = 64650
SIEVE_BAND = 1.08
# sequences are a block of up to SIEVE_BLOCK weights repeated 2..SIEVE_REPEATS
# times; longer ones of these ranks have far more paths than any target
SIEVE_BLOCK = 6
SIEVE_REPEATS = 9
SIEVE_MAX_LENGTH = {2: 18, 3: 12, 4: 10, 5: 10}

# invariants: (family, rank, sequence lengths), one case per length.  The
# crystal search visits about the product of the orbit sizes of all factors
# but the last, at 5-20 us per node.  The median and p90 tiers are D4 cases:
# its three minuscule orbits all have 8 elements, so the cost of a D4 case
# depends on its length alone.  Each tier's cases take, on a 2-core Xeon VM:
INVARIANT_SLOTS = (
    # below the median, 40 cases of 1-15 ms
    ("A", 1, (2, 4, 6, 8, 10)),
    ("A", 2, (4, 5, 6, 7)),
    ("A", 3, (2, 3, 4, 5)),
    ("A", 4, (2, 3, 4)),
    ("A", 5, (2, 3, 2)),
    ("B", 2, (2, 4, 6)), ("B", 3, (2, 4)), ("B", 4, (2,)),
    ("C", 2, (6,)), ("C", 3, (2, 4)), ("C", 4, (2, 4)),
    ("D", 4, (2, 3, 4)), ("D", 5, (2, 3)), ("D", 6, (2, 3)),
    ("E", 6, (2, 3)), ("E", 7, (2,)),
    # the median, 21 five-factor D4 cases of 24-30 ms
    ("D", 4, (5,) * 21),
    # between, 24 cases of 35-140 ms
    ("A", 1, (12,)), ("A", 2, (9,) * 10), ("B", 2, (8,)), ("B", 4, (4,)), ("C", 3, (6,)),
    ("D", 6, (4,) * 10),
    # the 90th percentile, 12 six-factor D4 cases of 185-200 ms
    ("D", 4, (6,) * 12),
    # the top, 0.2-2.5 s
    ("B", 3, (6,)), ("C", 4, (6,)), ("E", 7, (4,)),
)
# E6 with six factors: the crystal search crosses the default 5,000,000-node
# cap on every such sequence (14,246,524 nodes uncapped), a known defect
# that the prefix pruning of the invariant search removes.
E6_SIX_FACTOR = ("E", 6, 6)


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Bourbaki-numbered Cartan matrix, ``C[i][j] = <alpha_j, alpha_i_vee>``."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i, j, cij=-1, cji=-1):
        C[i - 1][j - 1] = cij
        C[j - 1][i - 1] = cji

    chain = {"A": rank, "B": rank - 1, "C": rank - 1, "D": rank - 1, "E": 0}[family]
    for i in range(1, chain):
        join(i, i + 1)
    if family == "B":
        join(rank - 1, rank, -1, -2)
    elif family == "C":
        join(rank - 1, rank, -2, -1)
    elif family == "D":
        join(rank - 2, rank)
    elif family == "E":
        join(1, 3)
        join(2, 4)
        for i in range(3, rank):
            join(i, i + 1)
    return tuple(tuple(row) for row in C)


def minuscule_indices(family: str, rank: int) -> tuple[int, ...]:
    return {
        "A": tuple(range(1, rank + 1)),
        "B": (rank,),
        "C": (1,),
        "D": (1, rank - 1, rank),
        "E": {6: (1, 6), 7: (7,)}.get(rank, ()),
    }[family]


def in_root_lattice(family: str, rank: int, indices) -> bool:
    """Whether the sum of the omega_i lies in the root lattice, by solving
    C^T c = total over the rationals (column i of C is alpha_i)."""
    C = cartan_matrix(family, rank)
    total = [0] * rank
    for i in indices:
        total[i - 1] += 1
    aug = [[Fraction(C[j][i]) for i in range(rank)] + [Fraction(total[j])]
           for j in range(rank)]
    for col in range(rank):
        pivot = next(r for r in range(col, rank) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(rank):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return all(row[rank].denominator == 1 for row in aug)


def type_a_path_count(rank: int, indices) -> int:
    """Dominant closed paths of type A_rank with steps in the orbits of the
    omega_i, counted by dynamic programming over dominant weights.  The
    orbit of omega_i is written out directly: the consecutive differences of
    the 0/1 vectors of length rank+1 with i ones.  The count does not depend
    on the order of the steps."""
    return _dominant(rank, tuple(sorted(indices))).get((0,) * rank, 0)


@functools.lru_cache(maxsize=None)
def _orbit(rank: int, i: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for chosen in itertools.combinations(range(rank + 1), i):
        e = [int(r in chosen) for r in range(rank + 1)]
        out.append(tuple(e[k] - e[k + 1] for k in range(rank)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _dominant(rank: int, steps: tuple[int, ...]) -> dict:
    """Number of dominant paths reaching each weight; shared by every multiset
    of steps with this prefix, so callers must not mutate it."""
    if not steps:
        return {(0,) * rank: 1}
    fresh: dict = {}
    for w, count in _dominant(rank, steps[:-1]).items():
        for x in _orbit(rank, steps[-1]):
            nxt = tuple(map(operator.add, w, x))
            if min(nxt) >= 0:
                fresh[nxt] = fresh.get(nxt, 0) + count
    return fresh


def smallest_shift(indices) -> int:
    m = len(indices)
    return next(ell for ell in range(1, m + 1)
                if m % ell == 0 and tuple(indices[ell:] + indices[:ell]) == tuple(indices))


def sieve_cost(rank: int, indices) -> float:
    """Predicted cost of a sieve case: paths times (length + rank) times
    (shift + 2) times sqrt(rank), fitted to per-case times (log-sd 0.18,
    most of it timer jitter on short cases)."""
    m = len(indices)
    return (type_a_path_count(rank, indices) * (m + rank) * (smallest_shift(indices) + 2)
            * math.sqrt(rank))


_C50, _C90 = SIEVE_MEDIAN_COST, SIEVE_P90_COST
SIEVE_TARGETS = (
    *(30 * (_C50 / 60) ** (j / 9) for j in range(10)),  # below the median
    *(_C50,) * 8,  # the median
    *(2 * _C50 * (_C90 / (4 * _C50)) ** (j / 4) for j in range(5)),  # between
    *(_C90,) * 4,  # the 90th percentile
    SIEVE_TOP_COST,  # the top
)


@functools.lru_cache(maxsize=None)
def sieve_catalog(rank: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """Every periodic sequence of the rank that has a path (so its total
    weight lies in the root lattice), with its sieve_cost, sorted."""
    found = {}
    longest = SIEVE_MAX_LENGTH[rank]
    for length in range(1, min(SIEVE_BLOCK, longest // 2) + 1):
        for block in itertools.product(range(1, rank + 1), repeat=length):
            for repeats in range(2, min(SIEVE_REPEATS, longest // length) + 1):
                seq = block * repeats
                if seq not in found and type_a_path_count(rank, seq):
                    found[seq] = sieve_cost(rank, seq)
    return tuple(sorted((cost, seq) for seq, cost in found.items()))


def _sieve_case(rank, indices):
    indices = list(indices)
    return {"family": "A", "rank": rank, "weights": indices,
            "ell": smallest_shift(indices), "paths": type_a_path_count(rank, indices)}


def _draw_sieve(rng: random.Random, rank: int, target: float) -> dict:
    catalog = sieve_catalog(rank)
    misses = [abs(math.log(cost / target)) for cost, _ in catalog]
    limit = max(min(misses), math.log(SIEVE_BAND))
    return _sieve_case(rank, rng.choice(
        [seq for (_, seq), miss in zip(catalog, misses) if miss <= limit]))


def weight_classes(family: str, rank: int) -> list[set[int]]:
    """Minuscule weights up to diagram automorphisms, which leave path,
    crystal and invariant counts unchanged (omega_i ~ omega_{n+1-i} in A_n,
    triality in D4, the two spin weights in D_n, omega_1 ~ omega_6 in E6)."""
    if family == "A":
        return [{i, rank + 1 - i} for i in range(1, (rank + 1) // 2 + 1)]
    if family == "D" and rank > 4:
        return [{1}, {rank - 1, rank}]
    return [set(minuscule_indices(family, rank))]


def _draw_invariant(rng: random.Random, family: str, rank: int, length: int,
                    must: set[int]) -> dict:
    """A sequence with total weight in the root lattice that uses at least one
    weight of ``must``."""
    choices = minuscule_indices(family, rank)
    for _ in range(1000):
        indices = [rng.choice(choices) for _ in range(length)]
        if must.intersection(indices) and in_root_lattice(family, rank, indices):
            return {"family": family, "rank": rank, "weights": indices}
    raise RuntimeError(f"no root-lattice sequence of length {length} in {family}{rank}")


def battery_cases(seed: int) -> list[dict]:
    return [{"suite": name, "scope": "full", "seed": BATTERY_SEED} for name in BATTERY_SUITES]


def sieve_cases(seed: int) -> list[dict]:
    rng = random.Random(f"sieve:{seed}")
    cases = [_sieve_case(1, [1] * m) for m in SIEVE_A1_LENGTHS]
    cases += [_draw_sieve(rng, rank, target) for rank in SIEVE_RANKS for target in SIEVE_TARGETS]
    rng.shuffle(cases)
    return cases


def invariants_cases(seed: int) -> list[dict]:
    """The slots in table order, each type's slots cycling through its weight
    classes so that every class is drawn, then shuffled."""
    rng = random.Random(f"invariants:{seed}")
    drawn: dict[tuple[str, int], int] = {}
    cases = []
    for family, rank, lengths in INVARIANT_SLOTS:
        classes = weight_classes(family, rank)
        for m in lengths:
            k = drawn.get((family, rank), 0)
            drawn[(family, rank)] = k + 1
            cases.append(_draw_invariant(rng, family, rank, m, classes[k % len(classes)]))
    rng.shuffle(cases)
    e6_six = _draw_invariant(rng, *E6_SIX_FACTOR, {1, 6})
    cases.insert(rng.randrange(len(cases) + 1), e6_six)
    return cases


def generate(workload: str, seed: int) -> list[dict]:
    return {"battery": battery_cases, "sieve": sieve_cases,
            "invariants": invariants_cases}[workload](seed)


def root_systems(workload: str, cases) -> list[tuple[str, int]]:
    """The (family, rank) pairs whose set-up a workload pays before timing."""
    if workload == "battery":
        return list(BATTERY_TYPES)
    return sorted({(c["family"], c["rank"]) for c in cases})
