"""What more than one test module uses: root systems, the Hypothesis
strategies over every minuscule type, and small helpers.  No test module
imports another; they all import from here."""
import contextlib
import tracemalloc

from hypothesis import assume, strategies as st

from minuscule.crystals import TensorCrystalElement
from minuscule.paths import WeightSequence, periods
from minuscule.poly import IntPolynomial
from minuscule.rootsys import build_root_system, in_root_lattice, minuscule_weights, weyl_orbit

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)
W = (1,)
BIG = 3_000_000

# every family that has minuscule weights
MINUSCULE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("B", 2), ("B", 4),
                   ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]


def poly(*coeffs):
    return IntPolynomial(coeffs)


def weight(b):
    """The weight of a tensor crystal element: the sum of its factors."""
    return tuple(map(sum, zip(*b.factors)))


@contextlib.contextmanager
def peak_memory():
    """Yield a list that receives the tracemalloc peak of the block, in
    bytes, when the block ends."""
    out: list[int] = []
    tracemalloc.start()
    try:
        yield out
    finally:
        out.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


@st.composite
def sequences(draw, types=MINUSCULE_TYPES):
    rs = build_root_system(*draw(st.sampled_from(types)))
    weights = minuscule_weights(rs)
    # fewer factors for larger orbits keeps every search small
    orbit = max(len(weyl_orbit(rs, lam)) for lam in weights)
    longest = 8 if orbit <= 4 else 6 if orbit <= 10 else 4 if orbit <= 32 else 3
    picked = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=longest))
    return WeightSequence(rs, tuple(picked))


def closed(seq):
    """``seq``, with one minuscule weight appended when its total lies
    outside the root lattice (it would have no paths at all)."""
    rs = seq.rs
    total = seq.total()
    if in_root_lattice(rs, total):
        return seq
    lam = next(lam for lam in minuscule_weights(rs)
               if in_root_lattice(rs, tuple(a + b for a, b in zip(total, lam))))
    return WeightSequence(rs, seq.weights + (lam,))


@st.composite
def elements(draw, types=MINUSCULE_TYPES):
    seq = draw(sequences(types))
    factors = tuple(draw(st.sampled_from(weyl_orbit(seq.rs, lam))) for lam in seq.weights)
    return TensorCrystalElement(seq, factors)


@st.composite
def periodic_sequences(draw, types=(("A", 1), ("A", 2), ("A", 3))):
    """A block of 1-3 minuscule weights whose smallest period is its own
    length, repeated r = 2-6 times in at most 12 steps, with the r-fold
    total (not the block's) in the root lattice, so that there are
    invariants to rotate.  The block's length is then the smallest period
    and r is the order of rotation by it."""
    rs = build_root_system(*draw(st.sampled_from(types)))
    picked = draw(st.lists(st.sampled_from(minuscule_weights(rs)), min_size=1, max_size=3))
    block = WeightSequence(rs, tuple(picked))
    assume(periods(block) == (len(picked),))
    total = block.total()
    orders = [r for r in range(2, min(6, 12 // len(picked)) + 1)
              if in_root_lattice(rs, tuple(r * a for a in total))]
    assume(orders)
    return WeightSequence(rs, block.weights * draw(st.sampled_from(orders)))
