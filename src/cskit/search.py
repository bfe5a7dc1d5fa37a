"""Brute-force discovery of complementary sets by pruned backtracking.

The enumerator fills the P x N exponent matrix column by column from both
ends inward (column 0, column N-1, column 1, ...), every row's leading
exponent pinned to 0. Filling that way fully determines the shift
tau = N-1-k after level k, so each level ends with an exact zero test,
and every partially known shift prunes with the triangle inequality
(|known part| can exceed the number of missing unimodular terms only on a
dead branch). For q in {1, 2, 4} the partial sums are exact Gaussian
integers; other alphabets fall back to root-of-unity count vectors with
an exact cyclotomic zero test.

Results are reported up to equivalence: rows rescaled to leading
exponent 0, rows sorted, and the whole matrix reduced under simultaneous
reversal and conjugation. Complementarity is invariant under that
equivalence, so each hit is canonicalized first and only the canonical
stack of a new class is verified, exactly once; it is the set returned.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .algebra import RootSum, Sequence
from .errors import InputError, WorkBoundExceeded
from .verify import ComplementarySet, ensure_verified

DEFAULT_WORK_BOUND = 10**9

Rows = tuple[tuple[int, ...], ...]


def canonical_rows(q: int, rows: Iterable[Iterable[int]]) -> Rows:
    """Canonical representative of the equivalence class of a row stack.

    Each row is scaled so its first exponent is 0, rows are sorted, and the
    lexicographically least of the four images under simultaneous reversal
    and conjugation is taken.
    """

    def normalize(rws) -> Rows:
        scaled = [tuple((e - r[0]) % q for e in r) for r in rws]
        return tuple(sorted(scaled))

    base = [tuple(r) for r in rows]
    variants = [
        base,
        [tuple(reversed(r)) for r in base],
        [tuple((-e) % q for e in r) for r in base],
        [tuple((-e) % q for e in reversed(r)) for r in base],
    ]
    return min(normalize(v) for v in variants)


def _column_order(n: int) -> list[int]:
    cols = []
    lo, hi = 0, n - 1
    while lo <= hi:
        cols.append(lo)
        if hi != lo:
            cols.append(hi)
        lo += 1
        hi -= 1
    return cols


def _enumerate(
    q: int,
    set_size: int,
    length: int,
    emit: Callable[[Rows], bool],
    work_bound: int,
    value_order: Optional[list[int]] = None,
) -> int:
    """Run the backtracking enumeration; emit returns True to stop early.

    Returns the number of assignment nodes visited. Raises
    WorkBoundExceeded if that number would pass work_bound.
    """
    if q < 1 or set_size < 1 or length < 1:
        raise InputError("q, set size, and length must all be >= 1")
    values = list(range(q)) if value_order is None else list(value_order)
    if sorted(values) != list(range(q)):
        raise InputError("value_order must be a permutation of range(q)")

    p, n = set_size, length
    cols = _column_order(n)
    free_cols = cols[1:]  # column 0 is pinned to exponent 0
    # columns already filled when a given column is assigned (same for every row)
    earlier: dict[int, list[int]] = {}
    seen: list[int] = [0]
    for c in free_cols:
        earlier[c] = list(seen)
        seen.append(c)

    slots = [(r, c) for c in free_cols for r in range(p)]
    exps = [[0] * n for _ in range(p)]
    remaining = [p * (n - tau) for tau in range(n)]

    gaussian = q in (1, 2, 4)
    if gaussian:
        re_of = {1: (1,), 2: (1, -1), 4: (1, 0, -1, 0)}[q]
        im_of = {1: (0,), 2: (0, 0), 4: (0, 1, 0, -1)}[q]
        sum_re = [0] * n
        sum_im = [0] * n
    else:
        counts = [[0] * q for _ in range(n)]
        roots = [cmath.exp(2j * cmath.pi * t / q) for t in range(q)]

    nodes = 0

    def value_ok(tau: int) -> bool:
        rem = remaining[tau]
        if gaussian:
            re, im = sum_re[tau], sum_im[tau]
            if rem == 0:
                return re == 0 and im == 0
            return re * re + im * im <= rem * rem
        cnt = counts[tau]
        if rem == 0:
            return RootSum.from_counts(q, cnt).is_zero
        z = sum((c * roots[t] for t, c in enumerate(cnt) if c), 0j)
        return abs(z) <= rem + 1e-6

    def place(idx: int) -> bool:
        nonlocal nodes
        if idx == len(slots):
            return emit(tuple(tuple(row) for row in exps))
        r, c = slots[idx]
        row = exps[r]
        for v in values:
            nodes += 1
            if nodes > work_bound:
                raise WorkBoundExceeded(
                    f"search exceeded the work bound of {work_bound} nodes"
                )
            row[c] = v
            applied: list[tuple[int, int]] = []
            ok = True
            for c2 in earlier[c]:
                if c2 < c:
                    tau = c - c2
                    e = (row[c2] - v) % q
                else:
                    tau = c2 - c
                    e = (v - row[c2]) % q
                if gaussian:
                    sum_re[tau] += re_of[e]
                    sum_im[tau] += im_of[e]
                else:
                    counts[tau][e] += 1
                remaining[tau] -= 1
                applied.append((tau, e))
                if not value_ok(tau):
                    ok = False
                    break
            if ok and place(idx + 1):
                for tau, e in applied:
                    remaining[tau] += 1
                    if gaussian:
                        sum_re[tau] -= re_of[e]
                        sum_im[tau] -= im_of[e]
                    else:
                        counts[tau][e] -= 1
                return True
            for tau, e in applied:
                remaining[tau] += 1
                if gaussian:
                    sum_re[tau] -= re_of[e]
                    sum_im[tau] -= im_of[e]
                else:
                    counts[tau][e] -= 1
        return False

    place(0)
    return nodes


@dataclass(frozen=True)
class SearchResult:
    """Canonicalized exhaustive search output.

    `complete` is False only when `limit` cut the enumeration short.
    """

    q: int
    set_size: int
    length: int
    sets: tuple[ComplementarySet, ...]
    complete: bool
    nodes: int


def search_cs(
    q: int,
    set_size: int,
    length: int,
    limit: Optional[int] = None,
    work_bound: int = DEFAULT_WORK_BOUND,
    value_order: Optional[list[int]] = None,
) -> SearchResult:
    """All complementary sets of the given shape, up to equivalence."""
    found: dict[Rows, ComplementarySet] = {}
    truncated = False

    def emit(rows: Rows) -> bool:
        nonlocal truncated
        canon = canonical_rows(q, rows)
        if canon in found:
            return False
        if limit is not None and len(found) >= limit:
            truncated = True
            return True
        built = ComplementarySet.of(*(Sequence.from_exponents(q, r) for r in canon))
        try:
            found[canon] = ensure_verified(built)
        except InputError:
            raise RuntimeError(
                "internal error: enumerator emitted a non-complementary stack"
            ) from None
        return False

    nodes = _enumerate(q, set_size, length, emit, work_bound, value_order)
    sets = tuple(found[canon] for canon in sorted(found))
    return SearchResult(q, set_size, length, sets, not truncated, nodes)


def search_gcp(
    q: int,
    length: int,
    limit: Optional[int] = None,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> SearchResult:
    """All Golay complementary pairs of one length, up to equivalence."""
    return search_cs(q, 2, length, limit, work_bound)


def first_cs(
    q: int,
    set_size: int,
    length: int,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> Optional[ComplementarySet]:
    """First complementary set the enumeration reaches, canonicalized."""
    hit: list[Rows] = []

    def emit(rows: Rows) -> bool:
        hit.append(rows)
        return True

    _enumerate(q, set_size, length, emit, work_bound)
    if not hit:
        return None
    canon = canonical_rows(q, hit[0])
    return ensure_verified(
        ComplementarySet.of(*(Sequence.from_exponents(q, r) for r in canon))
    )
