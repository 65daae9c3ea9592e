"""Kostka-Foulkes polynomials and two independent dimension oracles.

The charge route sums q^charge over the reading words (rows left to
right, bottom row first) of the column-strict tableaux.  The tableaux
are walked as chains of shapes, one horizontal strip per value, and
within one walk the strips grown from each (shape, size) are computed
once.  The walk carries only charge, one strip at a time, so a tableau
costs one strip and is never written out; ``charge`` on a whole word
stays as the validating route and ``_charge`` as the reference.
The second route is the alternating sum over the symmetric group
against a q-deformed partition function, walked position by position so
that permutations with a negative prefix of beta are never built; the
two must agree, and the test suite holds them to that.  A third routine
computes invariant dimensions for arbitrary types by iterated tensoring
with reflection signs, so path and crystal counts can be checked against
something that shares no code with them.

Charge convention used throughout: within an extracted standard subword
the index of 1 is 0 and the index of k+1 increments exactly when k+1
sits to the right of k; subwords are extracted right to left with cyclic
wrap-around.
"""
from __future__ import annotations

import bisect
import functools
import itertools

from .errors import InvalidContent, OracleTooLarge, SizeMismatch
from .poly import IntPolynomial
from .rootsys import to_dominant, weyl_orbit
from .paths import WeightSequence, _add

WEYL_SUM_CAP = 8


def _as_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if any(type(p) is not int for p in parts):
        raise InvalidContent(f"parts must be ints, not {parts!r}")
    trimmed = tuple(p for p in parts if p != 0)
    if any(p < 0 for p in parts) or any(a < b for a, b in zip(trimmed, trimmed[1:])):
        raise InvalidContent(f"{parts} is not a partition")
    return trimmed


def _shape_and_content(nu, gamma) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``nu`` as a partition and ``gamma`` sorted to one, of equal size.

    Both routes depend only on the multiset of entries of gamma."""
    nu = _as_partition(nu)
    gamma = tuple(gamma)
    if any(type(g) is not int for g in gamma):
        raise InvalidContent(f"content entries must be ints, not {gamma!r}")
    if any(g < 0 for g in gamma):
        raise InvalidContent("content entries must be nonnegative")
    if sum(nu) != sum(gamma):
        raise SizeMismatch(f"|{nu}| != |{gamma}|")
    return nu, tuple(sorted((g for g in gamma if g), reverse=True))


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content."""
    word = tuple(word)
    if any(type(x) is not int or x < 1 for x in word):
        raise InvalidContent(f"letters must be positive integers, not {word!r}")
    top = max(word, default=0)
    # partition content uses every letter up to the largest; refuse before
    # sizing a count list by a letter that no word this long can reach
    if top > len(word):
        raise InvalidContent(f"letter {top} exceeds the word length {len(word)}, "
                             "so the content is not a partition")
    mult = [0] * top
    for x in word:
        mult[x - 1] += 1
    if any(mult[i] < mult[i + 1] for i in range(top - 1)) or 0 in mult:
        raise InvalidContent(f"content {tuple(mult)} is not a partition")
    return _charge(word)


def _charge(word) -> int:
    """``charge`` without checks: ``word`` is a tuple of positive ints
    whose content is a partition, as is every reading word of a
    column-strict tableau of partition content."""
    top = max(word, default=0)
    # ascending positions of each letter; every round removes one of each
    # letter 1..top, so the content stays a partition and top only falls
    where: list[list[int]] = [[] for _ in range(top + 1)]
    for p, x in enumerate(word):
        where[x].append(p)
    total = 0
    while top:
        # letter 1: first found reading right to left
        here = where[1].pop()
        index = 0
        for target in range(2, top + 1):
            spots = where[target]
            # continue leftward, wrapping to the right end if needed
            k = bisect.bisect_left(spots, here)
            nxt = spots.pop(k - 1 if k else -1)
            if nxt > here:
                index += 1
            total += index
            here = nxt
        while top and not where[top]:
            top -= 1
    return total


def _horizontal_strips(inner, outer_bound, size) -> list[tuple[int, ...]]:
    """Partitions obtained from ``inner`` by adding ``size`` boxes, no two
    in a column, staying under ``outer_bound`` row lengths, in
    lexicographic order."""
    n = len(outer_bound)
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec(row, remaining, above_prev):
        if row == n:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        low = inner[row]
        high = min(outer_bound[row], above_prev, low + remaining)
        for length in range(low, high + 1):
            prefix.append(length)
            rec(row + 1, remaining - (length - low), low)
            prefix.pop()

    rec(0, size, outer_bound[0] if n else 0)
    return out


def _charge_strip(carry, value, spots):
    """Extend every live standard subword of charge by one box of the
    strip of ``value``, whose reading-word positions are ``spots``.

    Charge extracts its subwords in turn, but subword j's choice of a
    letter depends only on smaller letters and on what subwords before j
    took of the same letter, and the reading order of boxes is fixed once
    they are placed.  So the extraction can run letter by letter along
    the chain walk.  ``carry`` is (last position of each live subword,
    its index, charge so far).  As in ``_charge``, subword j takes the
    next box leftward from its last one, or wraps to the rightmost box,
    raising its index, if there is none.  ``value`` itself is not needed.
    """
    last, index, total = carry
    spots = list(spots)
    # content is a partition, so the first len(spots) subwords live on
    out_last: list[int] = []
    out_index: list[int] = []
    for here, i in zip(last, index):
        if not spots:
            break
        k = bisect.bisect_left(spots, here)
        if k:
            here = spots.pop(k - 1)
        else:
            here = spots.pop()
            i += 1
        total += i
        out_last.append(here)
        out_index.append(i)
    return out_last, out_index, total


def _charges(shape, content):
    """Yield the charge of each column-strict tableau of ``shape`` and the
    partition ``content``.

    A tableau is a chain of shapes from the empty one to ``shape`` that
    grows by a horizontal strip of ``content[v - 1]`` boxes for each
    value v.  A box is named by its position in the reading word of
    ``shape`` (rows left to right, bottom row first), and each child's
    charge carry is its parent's extended by ``_charge_strip`` with the
    ascending positions of the strip between the two.  The chains are
    walked depth first with an explicit stack, children in lexicographic
    order.  Many chains pass through the same shape, so the strips grown
    from each (inner shape, size), with their positions, are computed
    once per call and kept in a dict that dies with the call.
    """
    shape = tuple(shape)
    n = len(shape)
    size = sum(shape)
    below = [sum(shape[r + 1:]) for r in range(n)]
    depth = len(content)
    live = content[0] if content else 0
    strips: dict[tuple, list] = {}
    # position ``size`` lies right of every box, so subword j's 1 is the
    # j-th box from the right
    stack = [(0, (0,) * n, ([size] * live, [0] * live, 0))]
    while stack:
        level, current, carry = stack.pop()
        if level == depth:
            if current == shape:
                yield carry[2]
            continue
        key = (current, content[level])
        grown = strips.get(key)
        if grown is None:
            # reversed, so that the stack pops them in lexicographic order
            grown = strips[key] = [
                (nxt, tuple(below[r] + c for r in range(n - 1, -1, -1)
                            for c in range(current[r], nxt[r])))
                for nxt in reversed(_horizontal_strips(current, shape, content[level]))]
        level += 1
        stack.extend([(level, nxt, _charge_strip(carry, level, spots))
                      for nxt, spots in grown])


def kostka_foulkes(nu, gamma) -> IntPolynomial:
    """Charge generating function over column-strict tableaux of shape nu.

    The content is sorted to a partition first; the polynomial only
    depends on the multiset of entries of gamma.  Charge is carried along
    the tableau walk (``_charges``), not recomputed per word.
    """
    nu, content = _shape_and_content(nu, gamma)
    coeffs: dict[int, int] = {}
    for c in _charges(nu, content):
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPolynomial()
    out = [0] * (max(coeffs) + 1)
    for c, v in coeffs.items():
        out[c] = v
    return IntPolynomial(out)


@functools.lru_cache(maxsize=None)
def _type_a_positive_roots(m):
    """The roots e_i - e_j, i < j, of A_(m-1) as index pairs (i, j)."""
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


@functools.lru_cache(maxsize=None)
def _q_partition(beta: tuple, idx: int) -> tuple:
    """Coefficients of the q-partition count of ``beta`` using the roots
    from position ``idx`` on; exponent = number of roots used."""
    m = len(beta)
    roots = _type_a_positive_roots(m)
    if idx == len(roots):
        return (1,) if not any(beta) else ()
    i, j = roots[idx]
    # roots from idx on never touch coordinates before i
    if any(beta[:i]):
        return ()
    # so beta's prefix sums through positions i..j-1 are those of beta[i:j]
    kmax = min(itertools.accumulate(beta[i:j]))
    if kmax < 0:
        return ()
    head, middle, tail = beta[:i], beta[i + 1:j], beta[j + 1:]
    at_i, at_j = beta[i], beta[j]
    out: list[int] = []
    for k in range(kmax + 1):
        sub = _q_partition(head + (at_i - k,) + middle + (at_j + k,) + tail, idx + 1)
        if sub:
            need = k + len(sub)
            if len(out) < need:
                out.extend([0] * (need - len(out)))
            for e, c in enumerate(sub):
                out[k + e] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pruned_terms(lam_rho, target):
    """Yield (sign, beta) for each permutation ``perm`` of the strictly
    decreasing ``lam_rho`` whose beta = perm - target has no negative
    prefix sum, the only terms with a nonzero q-partition count.

    The permutation is built one position at a time and a branch is cut
    as soon as its prefix sum goes negative; since ``lam_rho`` decreases,
    so would every later choice at that position.  ``sign`` is the parity
    of ``perm`` against the decreasing order: the entry chosen at a
    position comes before each larger entry still unused, an inversion
    for each unused index it skips.
    """
    m = len(lam_rho)
    unused = list(range(m))
    beta = [0] * m

    def walk(pos, total, sign):
        if pos == m:
            yield sign, tuple(beta)
            return
        want = target[pos]
        for skipped in range(len(unused)):
            i = unused[skipped]
            step = lam_rho[i] - want
            if total + step < 0:
                break
            beta[pos] = step
            del unused[skipped]
            yield from walk(pos + 1, total + step, -sign if skipped % 2 else sign)
            unused.insert(skipped, i)

    return walk(0, 0, 1)


def q_kostant(nu, gamma) -> IntPolynomial:
    """Alternating Weyl sum against the q-deformed partition function.

    Independent of the charge route.  The sum runs over S_m, m the
    number of parts, but is walked position by position and only reaches
    the permutations with no negative prefix in beta
    (``_pruned_terms``).  It is still exponential in m, hence the cap
    ``WEYL_SUM_CAP`` on m.
    """
    nu, gamma_sorted = _shape_and_content(nu, gamma)
    m = max(len(nu), len(gamma_sorted), 1)
    if m > WEYL_SUM_CAP:
        raise OracleTooLarge(f"would sum over S_{m}; cap is {WEYL_SUM_CAP}")
    lam = nu + (0,) * (m - len(nu))
    mu = gamma_sorted + (0,) * (m - len(gamma_sorted))
    rho = tuple(range(m - 1, -1, -1))
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    target = tuple(a + b for a, b in zip(mu, rho))

    coeffs: list[int] = []
    for sign, beta in _pruned_terms(lam_rho, target):
        part = _q_partition(beta, 0)
        if len(coeffs) < len(part):
            coeffs.extend([0] * (len(part) - len(coeffs)))
        for e, c in enumerate(part):
            coeffs[e] += sign * c
    return IntPolynomial(coeffs)


def invariant_dim(seq: WeightSequence) -> int:
    """Dimension of the invariant space of the tensor product of the
    sequence, by iterated orbit sums with dot-action reflection signs.

    Shares no code with path or crystal enumeration, which is the point.
    """
    rs = seq.rs
    rho = (1,) * rs.rank
    state = {rs.zero(): 1}
    for lam in seq.weights:
        orbit = weyl_orbit(rs, lam)
        fresh: dict[tuple, int] = {}
        for mu, mult in state.items():
            for x in orbit:
                shifted = _add(_add(mu, x), rho)
                dom, word = to_dominant(rs, shifted)
                if 0 in dom:
                    continue  # on a wall: the term cancels
                target = tuple(a - b for a, b in zip(dom, rho))
                sign = -1 if len(word) % 2 else 1
                fresh[target] = fresh.get(target, 0) + sign * mult
        state = {k: v for k, v in fresh.items() if v}
    return state.get(rs.zero(), 0)
