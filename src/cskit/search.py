"""Brute-force discovery of complementary sets by pruned backtracking.

The enumerator fills the P x N exponent matrix column by column from both
ends inward (column 0, column N-1, column 1, ...), every row's leading
exponent pinned to 0. Filling that way fully determines the shift
tau = N-1-k after level k, so each level ends with an exact zero test,
and every partially known shift prunes with the triangle inequality
(|known part| can exceed the number of missing unimodular terms only on a
dead branch).

Every alphabet shares one per-shift state. An exact integer packs the
canonical Z[zeta_q] coordinates of the partial sum; it is zero exactly
when the sum is, and it alone decides a completed shift. A complex copy of
the sum is used only to prune, with a margin that keeps the prune
conservative; on backtracking it is restored from the saved old value, so
float error does not build up. The search runs on an explicit stack, so
its depth is bounded by memory, not by the interpreter's recursion limit.

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
) -> int:
    """Run the backtracking enumeration; emit returns True to stop early.

    Exponents are tried in ascending order. Returns the number of
    assignment nodes visited. Raises WorkBoundExceeded if that number would
    pass work_bound.
    """
    if q < 1 or set_size < 1 or length < 1:
        raise InputError("q, set size, and length must all be >= 1")

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

    # A shift sums at most p*n roots, so every coordinate stays below
    # radix/2 in magnitude and the packing into one int is injective.
    coords = [RootSum.from_exponent(q, e).coords for e in range(q)]
    radix = 2 * p * n * max(abs(x) for cs in coords for x in cs) + 1
    packed = [sum(x * radix**i for i, x in enumerate(cs)) for cs in coords]
    roots = [cmath.exp(2j * cmath.pi * e / q) for e in range(q)]
    exact = [0] * n
    approx = [0j] * n

    nodes = 0
    tried = [0] * len(slots)  # exponents tried so far at each slot
    applied: list[list[tuple[int, int, complex]]] = [[] for _ in slots]
    idx = 0
    while idx >= 0:
        if idx == len(slots):
            if emit(tuple(tuple(row) for row in exps)):
                break
            idx -= 1
            continue
        # retract the slot's current exponent before trying the next one;
        # newest first, since one assignment can touch a shift twice
        undo = applied[idx]
        for tau, e, old in reversed(undo):
            exact[tau] -= packed[e]
            approx[tau] = old
            remaining[tau] += 1
        undo.clear()
        v = tried[idx]
        if v == q:
            tried[idx] = 0
            idx -= 1
            continue
        tried[idx] = v + 1
        nodes += 1
        if nodes > work_bound:
            raise WorkBoundExceeded(
                f"search exceeded the work bound of {work_bound} nodes"
            )
        r, c = slots[idx]
        row = exps[r]
        row[c] = v
        alive = True
        for c2 in earlier[c]:
            if c2 < c:
                tau = c - c2
                e = (row[c2] - v) % q
            else:
                tau = c2 - c
                e = (v - row[c2]) % q
            old = approx[tau]
            undo.append((tau, e, old))
            exact[tau] += packed[e]
            approx[tau] = old + roots[e]
            remaining[tau] -= 1
            rem = remaining[tau]
            if (exact[tau] != 0) if rem == 0 else (abs(approx[tau]) > rem + 1e-6):
                alive = False
                break
        if alive:
            idx += 1
    return nodes


@dataclass(frozen=True)
class SearchResult:
    """Canonicalized exhaustive search output.

    `complete` is False when `limit` stopped the enumeration, that is when
    `limit` classes were found; other classes may then exist.
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
) -> SearchResult:
    """All complementary sets of the given shape, up to equivalence.

    With `limit`, the enumeration stops at the `limit`-th class found.
    """
    if limit is not None and limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    found: dict[Rows, ComplementarySet] = {}

    def emit(rows: Rows) -> bool:
        canon = canonical_rows(q, rows)
        if canon in found:
            return False
        built = ComplementarySet.of(*(Sequence.from_exponents(q, r) for r in canon))
        try:
            found[canon] = ensure_verified(built)
        except InputError:
            raise RuntimeError(
                "internal error: enumerator emitted a non-complementary stack"
            ) from None
        return len(found) == limit

    nodes = _enumerate(q, set_size, length, emit, work_bound)
    sets = tuple(found[canon] for canon in sorted(found))
    return SearchResult(q, set_size, length, sets, len(found) != limit, nodes)


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
    sets = search_cs(q, set_size, length, limit=1, work_bound=work_bound).sets
    return sets[0] if sets else None
