"""Kostka-Foulkes polynomials and two independent dimension oracles.

The charge route enumerates column-strict tableaux and sums q^charge over
their reading words (rows left to right, bottom row first).  The tableaux
are walked as chains of shapes, one horizontal strip per value, and
within one enumeration the strips grown from each (shape, size) are
computed once.  The second route is a brute-force alternating sum over
the symmetric group against a q-deformed partition function; the two
must agree, and the test suite holds them to that.  A third routine
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

DEFAULT_WEYL_SUM_CAP = 8


def _as_partition(parts) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    trimmed = tuple(p for p in parts if p != 0)
    if any(p < 0 for p in parts) or any(a < b for a, b in zip(trimmed, trimmed[1:])):
        raise InvalidContent(f"{parts} is not a partition")
    return trimmed


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content."""
    word = tuple(word)
    if any(type(x) is not int or x < 1 for x in word):
        raise InvalidContent(f"letters must be positive integers, not {word!r}")
    top = max(word, default=0)
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


def column_strict_tableaux(shape, content):
    """All fillings with weakly increasing rows and strictly increasing
    columns, of the given shape and content, as row tuples.

    A tableau is a chain of shapes from the empty one to ``shape`` that
    grows by a horizontal strip of ``content[v - 1]`` boxes for each value
    v.  The chains are walked depth first with an explicit stack, children
    in lexicographic order.  Many chains pass through the same shape, so
    the strips grown from each (inner shape, size) are computed once per
    call and kept in a dict that dies with the call.
    """
    shape = tuple(shape)
    n = len(shape)
    depth = len(content)
    strips: dict[tuple, list[tuple[int, ...]]] = {}
    # chain[v] is the shape filled with values 1..v on the current branch,
    # and rows holds those values: a node cuts the rows back to its
    # parent's shape and adds its own strip
    chain: list[tuple[int, ...]] = [(0,) * n] * (depth + 1)
    rows: list[list[int]] = [[] for _ in range(n)]
    stack = [(0, chain[0])]
    while stack:
        level, current = stack.pop()
        chain[level] = current
        if level:
            before = chain[level - 1]
            for r in range(n):
                row = rows[r]
                del row[before[r]:]
                row.extend([level] * (current[r] - before[r]))
        if level == depth:
            if current == shape:
                yield tuple(map(tuple, rows))
            continue
        key = (current, content[level])
        grown = strips.get(key)
        if grown is None:
            grown = strips[key] = _horizontal_strips(current, shape, content[level])
        stack.extend((level + 1, nxt) for nxt in reversed(grown))


def reading_word(rows) -> tuple[int, ...]:
    """Rows left to right, bottom row first."""
    out = []
    for row in reversed(rows):
        out.extend(row)
    return tuple(out)


def kostka_foulkes(nu, gamma) -> IntPolynomial:
    """Charge generating function over column-strict tableaux of shape nu.

    The content is sorted to a partition first; the polynomial only
    depends on the multiset of entries of gamma.
    """
    nu = _as_partition(nu)
    gamma = tuple(int(g) for g in gamma)
    if any(g < 0 for g in gamma):
        raise InvalidContent("content entries must be nonnegative")
    if sum(nu) != sum(gamma):
        raise SizeMismatch(f"|{nu}| != |{gamma}|")
    content = tuple(sorted((g for g in gamma if g), reverse=True))
    coeffs: dict[int, int] = {}
    for rows in column_strict_tableaux(nu, content):
        c = _charge(reading_word(rows))
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPolynomial()
    out = [0] * (max(coeffs) + 1)
    for c, v in coeffs.items():
        out[c] = v
    return IntPolynomial(out)


@functools.lru_cache(maxsize=None)
def _type_a_positive_roots(m):
    roots = []
    for i in range(m):
        for j in range(i + 1, m):
            vec = [0] * m
            vec[i], vec[j] = 1, -1
            roots.append((i, j, tuple(vec)))
    return tuple(roots)


def _prefixes_ok(beta):
    total = 0
    for x in beta:
        total += x
        if total < 0:
            return False
    return total == 0


@functools.lru_cache(maxsize=None)
def _q_partition(beta: tuple, idx: int) -> tuple:
    """Coefficients of the q-partition count of ``beta`` using the roots
    from position ``idx`` on; exponent = number of roots used."""
    m = len(beta)
    roots = _type_a_positive_roots(m)
    if idx == len(roots):
        return (1,) if not any(beta) else ()
    i, j, _ = roots[idx]
    # roots from idx on never touch coordinates before i
    if any(beta[t] for t in range(i)):
        return ()
    prefix = list(itertools.accumulate(beta))
    kmax = min(prefix[i:j])
    if kmax < 0:
        return ()
    out: list[int] = []
    for k in range(kmax + 1):
        shifted = list(beta)
        shifted[i] -= k
        shifted[j] += k
        sub = _q_partition(tuple(shifted), idx + 1)
        if sub:
            need = k + len(sub)
            if len(out) < need:
                out.extend([0] * (need - len(out)))
            for e, c in enumerate(sub):
                out[k + e] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _sign_from_decreasing(perm) -> int:
    """Parity of the rearrangement relative to the strictly decreasing
    arrangement of the same entries."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] < perm[b]:
                sign = -sign
    return sign


def q_kostant(nu, gamma, cap: int = DEFAULT_WEYL_SUM_CAP) -> IntPolynomial:
    """Alternating Weyl sum against the q-deformed partition function.

    Independent of the charge route; exponential in the number of parts,
    hence the cap.
    """
    nu = _as_partition(nu)
    if any(int(g) < 0 for g in gamma):
        raise InvalidContent("content entries must be nonnegative")
    gamma_sorted = tuple(sorted((int(g) for g in gamma if g), reverse=True))
    if sum(nu) != sum(gamma_sorted):
        raise SizeMismatch(f"|{nu}| != |{tuple(gamma)}|")
    m = max(len(nu), len(gamma_sorted), 1)
    if m > cap:
        raise OracleTooLarge(f"would sum over S_{m}; cap is {cap}")
    lam = nu + (0,) * (m - len(nu))
    mu = gamma_sorted + (0,) * (m - len(gamma_sorted))
    rho = tuple(range(m - 1, -1, -1))
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    target = tuple(a + b for a, b in zip(mu, rho))

    total = IntPolynomial()
    for perm in itertools.permutations(lam_rho):
        beta = tuple(a - b for a, b in zip(perm, target))
        if not _prefixes_ok(beta):
            continue
        part = _q_partition(beta, 0)
        if part:
            total = total + _sign_from_decreasing(perm) * IntPolynomial(part)
    return total


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
