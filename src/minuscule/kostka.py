"""Kostka-Foulkes polynomials by two independent routes, and invariant dimensions.

The charge route sums q^charge over the reading words (rows left to
right, bottom row first) of the column-strict tableaux.  The tableaux
are chains of shapes, one horizontal strip per value, and charge is
carried one strip at a time and counted level by level, merged on the
state of charge's subwords, so no tableau is visited one by one; the
count's work, row and box scans and subword copies included, is bounded
by ``CHARGE_COUNT_CAP``.
``charge`` on a whole word stays as the validating route and ``_charge``
as the reference.
The second route is the alternating sum over the symmetric group
against a q-deformed partition function, walked position by position so
that permutations with a negative prefix of beta are never built; the
two must agree, and the test suite holds them to that.  The q-partition
count runs forward from the signed terms, one level per positive root,
merged on beta as the charge route merges on its state, and a state whose
signed terms cancel is dropped; its work, root moves and the coefficients
each carries, is bounded by ``Q_PARTITION_CAP``, and nothing is kept
between calls.  A third routine,
``invariant_dim``, computes invariant dimensions in every type by
iterated tensoring with reflection signs.  On a minuscule sequence every
sign is +1, so it counts walks that stay dominant, by weight: the rule
that ``enumerate_paths`` applies.  Checked against it, path counts test
the enumeration's pruning, lattice test and memos, not that rule.

Charge convention used throughout: within an extracted standard subword
the index of 1 is 0 and the index of k+1 increments exactly when k+1
sits to the right of k; subwords are extracted right to left with cyclic
wrap-around.
"""
from __future__ import annotations

import bisect
import collections
import itertools

from .errors import EnumerationTooLarge, InvalidContent, OracleTooLarge, SizeMismatch
from .poly import IntPolynomial
from .rootsys import to_dominant, weyl_orbit
from .paths import WeightSequence, _add

WEYL_SUM_CAP = 8
# root moves per q_kostant call, each charged m plus the coefficients it
# carries: the largest n <= 8 pair, shape (6,2) with content 1^8, takes
# 226,770, shape (6,6,6,6) with content 3^8 takes 2,096,005 and answers in
# about 0.5 s, and shape (8,8,8,8) with content 4^8, which needs about 6.7M,
# is refused in about 1 s (whole process) on a 2-core x86 VM
Q_PARTITION_CAP = 5_000_000
# merged {charge: count} entries per Kostka-Foulkes call, plus the rows and
# boxes of each strip listed and the subword length of each carry moved:
# about 0.7 s on a 2-core x86 VM, where shape (6,6,6,6) with content 1^24
# merges 127,843 entries
CHARGE_COUNT_CAP = 2_000_000


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
    lexicographic order.  Iterative: a shape can have more rows than the
    recursion limit."""
    # (row, boxes it can take): up to its bound and the old length of the
    # row above; spare[i] is what the rows from grow[i] on can take
    grow = [(r, top - low) for r, (low, top) in
            enumerate(zip(inner, map(min, outer_bound, outer_bound[:1] + inner)))
            if top > low]
    spare = list(itertools.accumulate((g for _, g in reversed(grow)), initial=0))[::-1]
    if size > spare[0]:
        return []
    added = [0] * len(grow)
    out: list[tuple[int, ...]] = []
    start, boxes = 0, size
    while True:
        # the first strip in lexicographic order puts its boxes as low as they fit
        for i in range(start, len(grow)):
            added[i] = max(0, boxes - spare[i + 1])
            boxes -= added[i]
        grown = list(inner)
        for (r, _), a in zip(grow, added):
            grown[r] += a
        out.append(tuple(grown))
        # the next moves one box up, into the lowest row with room above a box
        for i in range(len(grow) - 1, -1, -1):
            if boxes and added[i] < grow[i][1]:
                break
            boxes += added[i]
        else:
            return out
        added[i] += 1
        start, boxes = i + 1, boxes - 1


def _charge_strip(last, index, spots):
    """Extend every live standard subword of charge by one box of a strip
    whose reading-word positions are ``spots``.

    Charge extracts its subwords in turn, but subword j's choice of a
    letter depends only on smaller letters and on what subwords before j
    took of the same letter, and the reading order of boxes is fixed once
    they are placed.  So the extraction can run letter by letter along
    a chain of shapes.  ``last`` and ``index`` are the last position and
    the index of each live subword.  As in ``_charge``, subword j takes the
    next box leftward from its last one, or wraps to the rightmost box,
    raising its index, if there is none.  Returns the new ``last`` and
    ``index`` and the charge they add.
    """
    spots = list(spots)
    total = 0
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


def _charge_counts(shape, content) -> dict[int, int]:
    """{charge: number of column-strict tableaux of ``shape`` and the
    partition ``content`` with that charge}.

    A tableau is a chain of shapes from the empty one to ``shape`` that
    grows by a horizontal strip of ``content[v - 1]`` boxes for each
    value v; ``_charge_strip`` extends the charge carry of a chain by the
    reading-word positions of each strip.  What it adds depends only on
    the state (current shape, last position of each live subword, each
    subword's index), so the chains are counted one value at a time,
    merged on the state, each state holding {charge so far: count}.

    Listing a strip scans every row and every box of it, and moving a
    carry along it copies its subword tuple, work that outgrows the merged
    entries on one column and on long rows.  So each strip listed costs n
    entries of the budget plus its boxes, plus the subword length and the
    merged entries of each carry it moves, charged before any carry moves.
    A shape of more than ``CHARGE_COUNT_CAP`` boxes is refused before its
    first state is built, and past ``CHARGE_COUNT_CAP`` entries the count
    raises ``EnumerationTooLarge``.
    """
    n = len(shape)
    size = sum(shape)
    too_large = (f"charge count for a shape of {n} rows and {size} boxes would take more "
                 f"than {CHARGE_COUNT_CAP} entries (merged charges, strip rows and boxes, "
                 "and subword lengths)")
    if size > CHARGE_COUNT_CAP:
        raise EnumerationTooLarge(too_large)
    below = list(itertools.accumulate(reversed(shape[1:]), initial=0))[::-1]
    live = content[0] if content else 0
    # position len(word) lies right of every box, so subword j's 1 is the
    # j-th box from the right
    level = {(0,) * n: {((size,) * live, (0,) * live): {0: 1}}}
    spent = 0
    for boxes in content:
        fresh: dict[tuple, dict] = {}
        for current, carries in level.items():
            moved = sum(len(last) + len(totals) for (last, _), totals in carries.items())
            for nxt in _horizontal_strips(current, shape, boxes):
                spent += n + boxes + moved
                if spent > CHARGE_COUNT_CAP:
                    raise EnumerationTooLarge(too_large)
                spots = [below[r] + c for r in range(n - 1, -1, -1)
                         for c in range(current[r], nxt[r])]
                states = fresh.setdefault(nxt, {})
                for (last, index), totals in carries.items():
                    last, index, step = _charge_strip(last, index, spots)
                    into = states.setdefault((tuple(last), tuple(index)), {})
                    for c, k in totals.items():
                        into[c + step] = into.get(c + step, 0) + k
        level = fresh
    counts: collections.Counter = collections.Counter()
    for totals in level.get(shape, {}).values():
        counts.update(totals)
    return counts


def kostka_foulkes(nu, gamma) -> IntPolynomial:
    """Charge generating function over column-strict tableaux of shape nu.

    The content is sorted to a partition first; the polynomial only
    depends on the multiset of entries of gamma.  Charge is counted level
    by level over the chains of shapes (``_charge_counts``), not
    recomputed per word.  The count is bounded by ``CHARGE_COUNT_CAP``
    entries (merged entries, strip rows and boxes, and subword lengths),
    and past it raises ``EnumerationTooLarge``.
    """
    nu, content = _shape_and_content(nu, gamma)
    counts = _charge_counts(nu, content)
    return IntPolynomial([counts[c] for c in range(max(counts, default=-1) + 1)])


def _q_count(starts: dict, m: int) -> list[int]:
    """Coefficients of the sum, over ``starts`` ({beta: sign}), of sign
    times the q-partition count of beta; exponent = number of roots used.

    The count runs forward, one level per positive root e_i - e_j of
    A_(m-1), i < j, in lexicographic order of (i, j): each state moves k
    from beta[i] to beta[j], and the states that meet are merged, each
    holding a dense coefficient list shifted by q^k; a state whose list
    cancels to all zeros is dropped.  At root (i, j) a state sums to 0,
    is zero before i, and neither its prefix sums nor the sums of
    beta[i+1..p], p < j, are negative; the k range keeps every state it
    reaches so, and after the last root only the zero state is left.
    Each move is charged m plus the length of the list it carries, before
    it is made; past ``Q_PARTITION_CAP`` raises ``OracleTooLarge``."""
    level = {beta: [sign] for beta, sign in starts.items()}
    spent = 0
    for i, j in itertools.combinations(range(m), 2):
        fresh: dict[tuple, list[int]] = {}
        for beta, coeffs in level.items():
            # the prefix sums through positions i..j-1 fall by k, and must stay >= 0
            kmax = min(itertools.accumulate(beta[i:j]))
            # row i never feeds i+1..j again, so their sum must end >= 0; at the
            # row's last root this makes k take all of beta[i]
            kmin = max(0, -sum(beta[i + 1:j + 1]))
            head, middle, tail = beta[:i], beta[i + 1:j], beta[j + 1:]
            for k in range(kmin, kmax + 1):
                spent += m + len(coeffs)
                if spent > Q_PARTITION_CAP:
                    raise OracleTooLarge(
                        f"the q-partition count would take more than {Q_PARTITION_CAP} "
                        "units of work (root moves and the coefficients they carry)")
                moved = head + (beta[i] - k,) + middle + (beta[j] + k,) + tail
                into = fresh.setdefault(moved, [])
                if len(into) < k + len(coeffs):
                    into.extend([0] * (k + len(coeffs) - len(into)))
                for e, c in enumerate(coeffs, k):
                    into[e] += c
        level = {beta: coeffs for beta, coeffs in fresh.items() if any(coeffs)}
    return level.get((0,) * m, [])


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
    ``WEYL_SUM_CAP`` on m, and the q-partition count (``_q_count``)
    grows with the entries, hence the cap ``Q_PARTITION_CAP`` on its
    work, root moves and the coefficients each carries; past either it
    raises ``OracleTooLarge``.  Nothing is kept between calls, so a pair
    answers or is refused the same way whatever ran before it.
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

    starts = {beta: sign for sign, beta in _pruned_terms(lam_rho, target)}
    return IntPolynomial(_q_count(starts, m))


def invariant_dim(seq: WeightSequence) -> int:
    """Dimension of the invariant space of the tensor product of the
    sequence, by iterated orbit sums with dot-action reflection signs.

    mu is dominant and x minuscule, so mu + x + rho has no negative
    coordinate: every straightening word is empty and every sign is +1.
    The count is then of walks that stay dominant, merged by weight, the
    rule that ``enumerate_paths`` applies along each path; it shares that
    rule with the enumeration, not its pruning, lattice test or memos.
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
