"""Brute-force discovery of complementary sets by pruned backtracking.

The enumerator fills the P x N exponent matrix column by column from both
ends inward (column 0, column N-1, column 1, ...), every row's leading
exponent pinned to 0; exponents are tried in ascending order. A shift is
complete once every pair of columns it spans is filled, so its last term
lands at a fixed slot and gets an exact zero test there, and every
partially known shift prunes with the triangle inequality (|known part|
can exceed the number of missing unimodular terms only on a dead branch).

For q in {1, 2, 4} the per-shift state is one int z per depth: with w-bit
fields, where 4*P*N < 2^(w-1) = B, field tau holds the partial sum S_tau
of shift tau; for q <= 2 every entry x is +1 or -1. For q = 4, S_tau =
a + b*i is held as u = a + b in field tau and v = a - b in field 2N + tau,
so each 4th root adds +1 or -1 to both. Each row keeps its filled entries
packed forward (x_c in field c) and reversed (field N-1-c); for q = 4 a
pair for x_c = 1, holding conj(x) and x, and one for x_c = i, holding
i*conj(x) and -i*x. Shifted right by w*c and by w*(N-1-c) and added, a
pair holds in field tau the terms of the entries tau columns after and
before c: placing the exponent v adds the touch of v mod q/2, negated
when v >= q/2. A floor shift leaves -1 or 0 in field 0, and for q = 4
moves the v terms of the columns it passes between u and v, into fields
no shift uses, whose junk stays below 2*P*N in magnitude on a path. A
slot's limit int holds B + M_tau in field tau (and 2N + tau), M_tau the
terms of shift tau still missing after it, and B in every other field.
Every field of lim + z and lim - z then lies within B +- 2*P*N, inside
[0, 2^w), so no field borrows or carries, and its high bit is set exactly
when |S_tau| <= M_tau, or for q = 4 |u|, |v| <= M_tau, that is |a| + |b|
<= M_tau, exactly the sums M_tau unit terms can cancel: one AND of the
two, masked to those bits, decides the node with integers only. Each
limit is the previous slot's less the packed count of its column's
touches; a slot forms its sum for every value once, at the first value.

For any other q, an exact integer packs the canonical Z[zeta_q]
coordinates of the partial sum and alone decides a completed shift, and a
complex copy of the sum only prunes, against the count of missing terms
plus 1e-6, a margin far above the rounding of abs, so no live branch is
pruned. For these q, which shifts a slot touches, and how many terms each
still misses, is tabled once per column before the search. Each depth
keeps its own copy of the state, filled from its parent's when a value is
tried, so backtracking restores nothing. Where a slot completes a shift
with a single touch, the exact test has at most one solution; it is
looked up, and the other values are counted as dead nodes without being
tried. The search runs on an explicit stack, so its depth is bounded by
memory, not by the interpreter's recursion limit.

Results are reported up to equivalence: rows rescaled to leading
exponent 0, rows permuted, and the whole matrix mapped by simultaneous
reversal, conjugation or both. The solutions are closed under these maps,
and the search emits only the first member of each class in slot order
(columns in fill order, rows top down within a column):

- Rows are kept in order: while rows r-1 and r agree on every column filled
  so far, row r takes no exponent below row r-1's; swapping the two rows
  gives a stack that comes earlier. These skipped exponents are not counted
  as nodes, so a work bound covers more of the search.
- Lex-leader bound (Crawford, Ginsberg, Luks & Roy, "Symmetry-breaking
  predicates for search problems", KR 1996): once the filled columns are
  closed under c -> N-1-c (after each pair of end columns, and after the
  middle one), every map is known on them, and a prefix is pruned if some
  map's row-sorted image comes first there. Only the maps whose image ties
  the prefix are checked again further down.

Neither rule prunes the least member of a class, and the search reaches
stacks in ascending slot order, so the classes and the order they are found
in (so `limit` and `first_cs`) do not change. Each class is emitted once;
its hit is canonicalized, and only the canonical stack is verified and
returned.

Before it builds its tables, the search runs a norm test on the whole
shape: the sum of the aperiodic autocorrelations over all shifts of a row
A is |A(1)|^2, so a complementary set has sum_r |A_r(1)|^2 = P*N (Golay,
"Complementary series", IRE Trans. IT 7, 1961, for binary pairs: 2N is a
sum of two squares). Each row sum A_r(1) is a sum of N q-th roots. For q
in {1, 2, 3, 4, 6} (phi(q) <= 2) its norm is a rational integer, and one
exact rule per q tells which elements of Z[zeta_q] are such sums. A shape
is refuted when P*N is no sum of P of their norms; the sums are formed
as bitmasks by doubling, with integers only. A refuted shape visits no
node and emits nothing; any other shape and any other q are searched as
before.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable, Optional

from .algebra import Sequence, root_coords
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


# The q with phi(q) <= 2, whose row sums have rational-integer norms, and
# the cross term k = zeta_q + conj(zeta_q) of the norm x^2 + k*x*y + y^2 of
# x + y*zeta_q (root_coords coordinates; y = 0 when phi(q) = 1).
_NORM_CROSS = {1: 0, 2: 0, 3: -1, 4: 0, 6: 1}


def _is_row_sum(q: int, n: int, x: int, y: int) -> bool:
    """Whether x + y*zeta_q is a sum of n q-th roots, for q in _NORM_CROSS.

    With n_d terms zeta_q^d: for q = 3, x = n_0 - n_2 and y = n_1 - n_2, so
    n_2 = (n - x - y) / 3 must be an integer >= max(0, -x, -y); for q = 6,
    (x, y) are axial coordinates of the hexagonal lattice, and every point
    within n unit steps is reached, as a step splits in two (1 = zeta +
    zeta^5) and 0 = 1 + zeta^3 = 1 + zeta^2 + zeta^4, except 0 by one term.
    """
    if q == 1:
        return x == n
    if q == 2:
        return abs(x) <= n and (n - x) % 2 == 0
    if q == 3:
        return (n - x - y) % 3 == 0 and max(x + y, y - 2 * x, x - 2 * y) <= n
    if q == 4:
        return abs(x) + abs(y) <= n and (n - x - y) % 2 == 0
    return max(abs(x), abs(y), abs(x + y)) <= n and (x, y, n) != (0, 0, 1)


def _row_sum_norms(q: int, n: int, bound: int) -> int:
    """Bitmask of the norms |A(1)|^2 <= bound of the sums A(1) of n q-th
    roots, for q in _NORM_CROSS."""
    k = _NORM_CROSS[q]
    # every sum has |x|, |y| <= n, and x^2 + k*x*y + y^2 >= 3/4 * max(|x|, |y|)^2
    r = min(n, isqrt(4 * bound // 3))
    ys = range(-r, r + 1) if q > 2 else (0,)
    mask = 0
    for x in range(-r, r + 1):
        for y in ys:
            norm = x * x + k * x * y + y * y
            if norm <= bound and _is_row_sum(q, n, x, y):
                mask |= 1 << norm
    return mask


def _norm_refuted(q: int, p: int, n: int) -> bool:
    """True when no complementary set of p rows of n q-th roots exists
    because p*n is no sum of p row-sum norms (the module notes); False
    whenever q is not in _NORM_CROSS."""
    if q not in _NORM_CROSS:
        return False
    target = p * n
    cap = (2 << target) - 1  # the bits 0..target

    def add(a: int, b: int) -> int:
        # the sums a + b below the cap, one shift per bit of the sparser
        if a.bit_count() > b.bit_count():
            a, b = b, a
        out = 0
        while a:
            low = a & -a
            out |= b << (low.bit_length() - 1)
            a ^= low
        return out & cap

    # after i rounds, power holds the sums of 2^i norms and sums those of
    # p mod 2^i norms
    sums, power = 1, _row_sum_norms(q, n, target)
    while True:
        if p & 1:
            sums = add(sums, power)
        p >>= 1
        if not p:
            return not sums >> target & 1
        power = add(power, power)


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


def _slot_tables(q: int, p: int, n: int) -> list:
    """The touch tables of every slot, in slot order, for q not in {1, 2, 4}.

    The rows strictly between the first and the last of a column share one
    table. The entry v of row r in column c touches a shift tau once per
    earlier column c2, adding the root of d = row[c2] - v: ex[d], a packed
    int, together with its complex shadow rt[d]. A table is (solved,
    (exacts, checks, scaled)), its touches grouped by shift:

    - exacts: (tau, c2, ex, c2', ex'), a shift the row completes, decided by
      its exact value alone (ex' is all zeros for a single touch; the first
      of two touches is also in checks, as it leaves one term missing);
    - solved: (tau, c2, exponent_of), one shift completed by a single touch,
      whose one live value of ex[d] is -exact[tau]; or None;
    - checks: (tau, c2, ex, rt, lim), a touch of a shift still missing
      terms, pruned when abs(z) > lim, 1e-6 above the terms still missing;
    - scaled: the same for the middle rows, (tau, c2, ex, rt, m, k), with
      m - r*k terms still missing after row r's touch.

    Shifts with the fewest terms missing come first, and the touches of one
    shift keep their order. The tables take O(N^2) space for any P.
    """
    coords = root_coords(q).tolist()
    # A shift sums at most p*n roots, so every coordinate stays below
    # radix/2 in magnitude and the packing into one int is injective.
    radix = 2 * p * n * max(abs(x) for cs in coords for x in cs) + 1
    packed = [sum(x * radix**i for i, x in enumerate(cs)) for cs in coords]
    left = (packed, [cmath.exp(2j * cmath.pi * e / q) for e in range(q)])
    # d lies in (-q, q) and negative indices wrap, so these give the root
    # of row[c2] - v (c2 < c) or, negated, of v - row[c2] (c2 > c)
    right = tuple([vs[-d] for d in range(q)] for vs in left)
    zeros = [0] * q

    def row_tables(by_shift, r, shared=False):
        # remaining[tau]: terms of tau still missing once the column is full
        exacts, solved, checks, scaled = [], None, [], []
        missing = {tau: remaining[tau] + (p - 1 - r) * len(touches)
                   for tau, touches in by_shift.items()}
        for tau in sorted(missing, key=missing.get):
            touches = by_shift[tau]
            k = len(touches)
            if missing[tau] == 0:
                (c2, ex, rt), *more = touches
                if more:
                    checks.append((tau, c2, ex, rt, 1 + 1e-6))
                    exacts.append((tau, c2, ex) + more[0][:2])
                elif solved is None:
                    solved = (tau, c2, {x: d for d, x in enumerate(ex)})
                else:
                    exacts.append((tau, c2, ex, c2, zeros))
            else:
                for j, (c2, ex, rt) in enumerate(touches):
                    m = missing[tau] + k - 1 - j  # after this touch
                    if shared:
                        scaled.append((tau, c2, ex, rt, m + r * k, k))
                    else:
                        checks.append((tau, c2, ex, rt, m + 1e-6))
        return solved, (exacts, checks, scaled)

    cols = _column_order(n)  # column 0 is pinned to exponent 0
    remaining = [p * (n - tau) for tau in range(n)]
    tables = []
    for i in range(1, len(cols)):
        c = cols[i]
        by_shift: dict[int, list] = {}
        for c2 in cols[:i]:
            tau, roots = (c - c2, left) if c2 < c else (c2 - c, right)
            by_shift.setdefault(tau, []).append((c2, *roots))
        for tau, touches in by_shift.items():
            remaining[tau] -= p * len(touches)
        middle = row_tables(by_shift, p - 2, shared=True) if p > 2 else None
        tables += [middle if 0 < r < p - 1 else row_tables(by_shift, r) for r in range(p)]
    return tables


def _tied_images(q: int, exps: list, filled: list, images: tuple, maps: tuple):
    """The maps whose row-sorted image ties the stack in slot order on the
    filled columns (in fill order, closed under c -> n-1-c), or None if some
    image comes first. Map g takes row to sign * (row[m] - row[base]) for m
    in columns, where (sign, columns, base) = images[g]."""
    key = list(zip(*[[row[c] for c in filled] for row in exps]))
    ties = []
    for g in maps:
        sign, columns, base = images[g]
        image = sorted(tuple(sign * (row[m] - row[base]) % q for m in columns) for row in exps)
        image = list(zip(*image))
        if image < key:
            return None
        if image == key:
            ties.append(g)
    return tuple(ties)


def _enumerate(
    q: int,
    set_size: int,
    length: int,
    emit: Callable[[Rows], bool],
    work_bound: int,
) -> int:
    """Run the norm test, then the backtracking enumeration; emit returns
    True to stop early.

    A shape the norm test refutes visits 0 nodes and emits nothing, so it
    never exceeds a work bound. Otherwise returns `_backtrack`'s node count.
    """
    if q < 1 or set_size < 1 or length < 1:
        raise InputError("q, set size, and length must all be >= 1")
    if _norm_refuted(q, set_size, length):
        return 0
    return _backtrack(q, set_size, length, emit, work_bound)


def _packed_tests(q: int, p: int, n: int) -> tuple[int, int, list]:
    """The field width w, the high bits of fields 1..n-1 (and 2n+1..3n-1
    for q = 4) and, per slot, the test (None, (lim, w*c, w*(n-1-c),
    2^(w*c), 2^(w*(n-1-c)))) for q in {1, 2, 4} (the module notes; None: no
    solved lookup). The limits are built in O(P*N) big-int steps."""
    w = (4 * p * n).bit_length() + 1
    ones = (1 << w * n) // ((1 << w) - 1)  # 1 in every field of a region
    # times spread, a region's fields are copied to v's (q = 4)
    spread, top = (1 + (1 << 2 * w * n), 3 * n) if q == 4 else (1, n)
    high = ((ones - 1) << (w - 1)) * spread
    lim = ((((1 << w * top) // ((1 << w) - 1)) << (w - 1))
           + p * sum((n - tau) << w * tau for tau in range(1, n)) * spread)
    filled, mirrored = 1, 1 << w * (n - 1)  # column 0
    tests = []
    for c in _column_order(n)[1:]:
        bit, mirror_bit = 1 << w * c, 1 << w * (n - 1 - c)
        # field tau: the filled columns tau before or after c
        touches = ((filled >> w * c) + (mirrored >> w * (n - 1 - c))) * spread
        for _ in range(p):
            lim -= touches
            tests.append((None, (lim, w * c, w * (n - 1 - c), bit, mirror_bit)))
        filled += bit
        mirrored += mirror_bit
    return w, high, tests


def _backtrack(
    q: int,
    set_size: int,
    length: int,
    emit: Callable[[Rows], bool],
    work_bound: int,
) -> int:
    """The backtracking enumeration; emit returns True to stop early.

    Exponents are tried in ascending order, so stacks are reached in
    ascending slot order, and only the least member of each class is
    emitted, by the row-order bound and the lex-leader check of the module
    notes. Returns the number of assignment nodes visited; the exponents
    skipped by the row-order bound are not counted. Raises
    WorkBoundExceeded if that number would pass work_bound.
    """
    p, n = set_size, length
    exps = [[0] * n for _ in range(p)]
    cols = _column_order(n)
    packed = q in (1, 2, 4)
    if packed:
        w, high, tests = _packed_tests(q, p, n)
    else:
        tests = _slot_tables(q, p, n)
    slots = []
    check = -1  # the slot of the last lex-leader check so far
    for i, c in enumerate(cols[1:], 1):
        for r in range(p):
            # the row above (None for row 0) and the slot of this row one
            # column earlier, whose tie flag holds (-1: the first column)
            above = exps[r - 1] if r else None
            # the last row of a column after which the filled columns (the
            # first i + 1 in fill order) are closed under c -> n-1-c
            leader = None
            if r == p - 1 and (i % 2 or i == n - 1):
                filled = cols[: i + 1]
                mirror = [n - 1 - f for f in filled]
                # reversal (rows rescaled to lead with 0), conjugation, both
                images = ((1, mirror, n - 1), (-1, filled, 0), (-1, mirror, n - 1))
                leader = (check, filled, images)
                check = len(slots)
            slots.append((exps[r], c, r, above, max(len(slots) - p, -1), leader)
                         + tests[len(slots)])
    # tied[i]: the rows of slot i and the row above agree on every column
    # filled up to slot i; tied[-1] stands for column 0, equal in every row
    tied = [False] * len(slots) + [True]
    # leaders[i]: after the check at slot i, the maps whose image equals the
    # stack on the filled columns; every map's image does on column 0, and
    # for q <= 2 conjugation is the identity
    leaders = [()] * len(slots) + [(0, 1, 2) if q > 2 else (0,)]
    if packed:
        # packs[i]: after slot i, its row's forward and reversed ints (two
        # pairs for q = 4) and the packed shift sums; packs[-1]: column 0
        # (exponent 0) and no sums. g moves a field from u to v.
        g, last = 2 * w * n, 1 << w * (n - 1)
        column0 = ((1 + (1 << g), last + (last << g), 1 - (1 << g), (last << g) - last)
                   if q == 4 else (1, last))
        packs = [None] * len(slots) + [column0 + (0,)]
        zs = [None] * len(slots)  # the sums after each value of a slot
    else:
        # state[i]: (exact, approx) after the first i slots; deeper levels
        # are allocated as the path first reaches them
        def level():
            return [0] * n, [0j] * n

        state = [level()]

    nodes = 0
    end = len(slots)
    tried = [0] * end
    idx = 0
    while idx >= 0:
        if idx == end:
            if emit(tuple(tuple(row) for row in exps)):
                break
            idx -= 1
            continue
        row, c, r, above, back, leader, solved, test = slots[idx]
        v = tried[idx]
        # A row tied with the row above starts at its exponent. Each value
        # tried is one node, in order: the packed test scans to the first
        # live value, and the values failing the solved test die untried.
        if packed:
            lim, shift, mirror_shift, bit, mirror_bit = test
            ints = packs[back]
            if not v:
                if above is not None and tied[back]:
                    v = above[c]
                sums = packs[idx - 1][-1]
                t0 = (ints[0] >> shift) + (ints[1] >> mirror_shift)
                if q == 4:
                    t1 = (ints[2] >> shift) + (ints[3] >> mirror_shift)
                    zs[idx] = (sums + t0, sums + t1, sums - t0, sums - t1)
                else:
                    zs[idx] = (sums + t0, sums - t0)
            z = zs[idx]
            while v < q:
                nodes += 1
                zv = z[v]
                if (lim + zv) & (lim - zv) & high == high:
                    break
                v += 1
        elif solved is None:
            if not v and above is not None and tied[back]:
                v = above[c]
            if v < q:
                tried[idx] = v + 1
                nodes += 1
        elif v:  # back from the one exponent that passed the solved test
            nodes += q - v
            v = q
        else:
            lo = above[c] if above is not None and tied[back] else 0
            tau, c2, exponent_of = solved
            d = exponent_of.get(-state[idx][0][tau])
            if d is not None:
                v = (row[c2] - d) % q
            if d is None or v < lo:
                nodes += q - lo
                v = q
            else:
                tried[idx] = v + 1
                nodes += v + 1 - lo
        if nodes > work_bound:
            raise WorkBoundExceeded(
                f"search exceeded the work bound of {work_bound} nodes"
            )
        if v == q:
            tried[idx] = 0
            idx -= 1
            continue
        if packed:
            tried[idx] = v + 1
            if q == 4:
                # x = 1 or i is (u, v) = (1, 1) or (1, -1), and i maps (u, v)
                # to (v, -u): the ints gain conj(x), x, i*conj(x), -i*x
                fa, ra, fb, rb, _ = ints
                bv, rv = bit << g, mirror_bit << g
                d = ((bv - bit, mirror_bit - rv, bit + bv, mirror_bit + rv) if v & 1
                     else (bit + bv, mirror_bit + rv, bit - bv, rv - mirror_bit))
                packs[idx] = ((fa - d[0], ra - d[1], fb - d[2], rb - d[3], zv) if v & 2
                              else (fa + d[0], ra + d[1], fb + d[2], rb + d[3], zv))
            else:
                forward, reverse, _ = ints
                packs[idx] = ((forward - bit, reverse - mirror_bit, zv) if v
                              else (forward + bit, reverse + mirror_bit, zv))
        else:
            exacts, checks, scaled = test
            parent_exact, parent_approx = state[idx]
            for tau, c2, ex, c3, ex3 in exacts:
                if parent_exact[tau] + ex[row[c2] - v] + ex3[row[c3] - v]:
                    alive = False
                    break
            else:
                if idx + 1 == len(state):
                    state.append(level())
                exact, approx = state[idx + 1]
                exact[:] = parent_exact
                approx[:] = parent_approx
                alive = True  # a row's table has checks or scaled, not both
                for tau, c2, ex, rt, lim in checks:
                    d = row[c2] - v
                    exact[tau] += ex[d]
                    z = approx[tau] + rt[d]
                    approx[tau] = z
                    if abs(z) > lim:
                        alive = False
                        break
                for tau, c2, ex, rt, m, k in scaled:
                    d = row[c2] - v
                    exact[tau] += ex[d]
                    z = approx[tau] + rt[d]
                    approx[tau] = z
                    if abs(z) > m - r * k + 1e-6:
                        alive = False
                        break
            if not alive:
                continue
        row[c] = v
        if above is not None:
            tied[idx] = tied[back] and v == above[c]
        if leader is not None:
            prev, filled, images = leader
            ties = leaders[prev]
            if ties:
                ties = _tied_images(q, exps, filled, images, ties)
                if ties is None:
                    continue
            leaders[idx] = ties
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

    With `limit`, the enumeration stops at the `limit`-th class found. A
    shape the norm test refutes returns no sets after 0 nodes, whatever
    the work bound.
    """
    if limit is not None and limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    if work_bound < 0:
        raise InputError(f"work bound must be >= 0, got {work_bound}")
    found: dict[Rows, ComplementarySet] = {}

    def emit(rows: Rows) -> bool:
        canon = canonical_rows(q, rows)
        if canon in found:
            raise RuntimeError("internal error: enumerator emitted a class twice")
        built = ComplementarySet.of(*(Sequence(q, r) for r in canon))
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


def first_cs(
    q: int,
    set_size: int,
    length: int,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> Optional[ComplementarySet]:
    """First complementary set the enumeration reaches, canonicalized."""
    sets = search_cs(q, set_size, length, limit=1, work_bound=work_bound).sets
    return sets[0] if sets else None
