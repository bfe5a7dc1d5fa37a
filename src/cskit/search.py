"""Brute-force discovery of complementary sets by pruned backtracking.

The enumerator fills the P x N exponent matrix column by column from both
ends inward (column 0, column N-1, column 1, ...), every row's leading
exponent pinned to 0; exponents are tried in ascending order. A shift is
complete once every pair of columns it spans is filled, so its last term
lands at a fixed slot and gets an exact zero test there, and every
partially known shift prunes with the triangle inequality (|known part|
can exceed the number of missing unimodular terms only on a dead branch).
Two engines run it, each in its own loop over flat slot records on an
explicit stack, so depth is bounded by memory, not by the recursion limit;
a column's records are built when the search first reaches the column.

For q in {1, 2, 4} the packed engine keeps the per-shift state in one int z
per depth, in a list of its own: with w-bit fields, where 4*P*N < 2^(w-1)
= B, field tau holds the partial sum S_tau of shift tau; for q <= 2 every
entry x is +1 or -1. For q = 4, S_tau = a + b*i is held as u = a + b in
field tau and v = a - b in field 2N + tau, so each 4th root adds +1 or -1
to both. Each row keeps its filled entries packed forward (x_c in field
c) and reversed (field N-1-c); for q = 4 a pair for x_c = 1, holding
conj(x) and x, and one for x_c = i, holding i*conj(x) and -i*x. Shifted
right by w*c and by w*(N-1-c) and added, a pair holds in field tau the
terms of the entries tau columns after and before c. A floor shift leaves
-1 or 0 in field 0, and for q = 4 moves the v terms of the columns it
passes between u and v, into fields no shift uses, whose junk stays below
2*P*N in magnitude on a path. A slot's limit int holds B + M_tau in field
tau (and 2N + tau), M_tau the terms of shift tau still missing after it,
and B in every other field. Every field of lim + z and lim - z then lies
within B +- 2*P*N, inside [0, 2^w), so no field borrows or carries, and
its high bit is set exactly when |S_tau| <= M_tau, or for q = 4 |u|, |v|
<= M_tau, that is |a| + |b| <= M_tau, exactly the sums M_tau unit terms
can cancel: one AND of the two, masked to those bits, decides the node
with integers only. A record holds the limit, the two shift amounts and
the column's delta of the row's ints for each exponent; a slot forms its
sum for every value once, at the first value.

For any other q the table engine decides a completed shift on an exact
integer packing the canonical Z[zeta_q] coordinates of the partial sum; a
complex copy of the sum only prunes, against the count of missing terms
plus 1e-6, a margin far above the rounding of abs, so no live branch is
pruned. Which shifts a slot touches, and how many terms each still
misses, is tabled per column. Each depth keeps its own copy of the state,
filled from its parent's when a value is tried, so backtracking restores
nothing. Where a slot completes a shift with a single touch, the exact
test has at most one solution; it is looked up, and the other values are
counted as dead nodes without being tried.

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
  the prefix are checked again further down. Item getters built once per
  check gather an image's columns, and bytes.translate tables (`map` above
  q = 256) map them, as they do the canonical form's rows.

Neither rule prunes the least member of a class, and the search reaches
stacks in ascending slot order, so the classes and the order they are found
in (so `limit` and `first_cs`) do not change. Each class is emitted once
and canonicalized; the canonical stacks are verified in one batch after
the enumeration, which correlates each distinct row once.

Before the first slot, the search runs a norm test on the whole shape:
the sum of the aperiodic autocorrelations over all shifts of a row A is
|A(1)|^2, so a complementary set has sum_r |A_r(1)|^2 = P*N (Golay,
"Complementary series", IRE Trans. IT 7, 1961, for binary pairs: 2N is a
sum of two squares). Each row sum A_r(1) is a sum of N q-th roots. For q
in {1, 2, 3, 4, 6} (phi(q) <= 2) its norm is a rational integer, and one
exact rule per q tells which elements of Z[zeta_q] are such sums. A shape
is refuted when P*N is no sum of P of their norms; the sums are formed
as bitmasks by doubling, with integers only. A parity test (Tseng & Liu,
IEEE Trans. IT 18(5), 1972) refutes N >= 2 for q in {2, 4} with P odd and
for q = 2 with P = 2 (mod 4) and N odd: binary entries with 0/1 exponents
a, a' multiply to 1 - 2(a + a') (mod 4), so with C(N) = 0, C(tau) - C(tau+1)
= P - 2*sum_r (a_{r,tau} + a_{r,N-1-tau}) (mod 4) for 0 < tau < N. In a set
each is 0, so P is even, and for P = 2 (mod 4) each sum is odd, yet at the
middle column of an odd N it is even. For q = 4, i^g = 1 + (i-1)*g (mod 2)
makes the difference P + (i-1)*Y (mod 2), Y an integer: not 0 for odd P. A
shape either test refutes visits no node and emits nothing.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from .algebra import Sequence, root_coords
from .errors import InputError, WorkBoundExceeded
from .verify import ComplementarySet, ensure_verified_all

DEFAULT_WORK_BOUND = 10**9

Rows = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def _affine_tables(q: int, sign: int) -> list[bytes]:
    """Per base b, the bytes.translate table of e -> sign * (e - b) mod q."""
    return [bytes(sign * (e - b) % q for e in range(256)) for b in range(q)]


def _affine_rows(q: int, sign: int, rows: Iterable, bases: Iterable[int]):
    """The rows with each exponent e mapped to sign * (e - b) mod q, b the
    row's base: bytes, or tuples above q = 256 (exponents past a byte)."""
    if q > 256:
        return [tuple(map(q.__rmod__, map((-b).__add__ if sign > 0 else b.__sub__, row)))
                for row, b in zip(rows, bases)]
    return map(bytes.translate, map(bytes, rows), map(_affine_tables(q, sign).__getitem__, bases))


def canonical_rows(q: int, rows: Iterable[Iterable[int]]) -> Rows:
    """Canonical representative of the equivalence class of a row stack.

    Each row is scaled so its first exponent is 0, rows are sorted, and the
    lexicographically least of the four images under simultaneous reversal
    and conjugation is taken. Exponents lie in [0, q).
    """
    base = list(map(tuple if q > 256 else bytes, rows))
    flipped = [r[::-1] for r in base]
    # conjugating, then scaling to lead with 0, is e -> -(e - row[0])
    return tuple(map(tuple, min(sorted(_affine_rows(q, sign, rws, map(itemgetter(0), rws)))
                                for sign in (1, -1) for rws in (base, flipped))))


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


def _parity_refuted(q: int, p: int, n: int) -> bool:
    """True when the parity test of the module notes refutes the shape."""
    return q in (2, 4) and n >= 2 and (p % 2 == 1 or q == 2 and p % 4 == 2 and n % 2 == 1)


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


def _slot_tables(q: int, p: int, n: int) -> Iterator[list]:
    """Column by column in fill order, the touch tables of the slots.

    The rows strictly between the first and the last of a column share one
    table. The entry v of row r in column c touches a shift tau once per
    earlier column c2, adding the root of d = row[c2] - v: ex[d], a packed
    int, together with its complex shadow rt[d]. A table is (solved,
    (exacts, checks)), its touches grouped by shift:

    - exacts: (tau, c2, ex, c2', ex'), a shift the row completes, decided by
      its exact value alone (ex' is all zeros for a single touch; the first
      of two touches is also in checks, as it leaves one term missing);
    - solved: (tau, c2, exponent_of), one shift completed by a single touch,
      whose one live value of ex[d] is -exact[tau]; or None;
    - checks: (tau, c2, ex, rt, m, k), a touch of a shift still missing
      m - r*k terms after row r's touch (k = 0 but on the middle rows),
      pruned when abs(z) passes that count by more than 1e-6.

    Shifts with the fewest terms missing come first, and the touches of one
    shift keep their order. A column's tables take O(N) space for any P.
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
        exacts, solved, checks = [], None, []
        missing = {tau: remaining[tau] + (p - 1 - r) * len(touches)
                   for tau, touches in by_shift.items()}
        for tau in sorted(missing, key=missing.get):
            touches = by_shift[tau]
            k = len(touches)
            if missing[tau] == 0:
                (c2, ex, rt), *more = touches
                if more:
                    checks.append((tau, c2, ex, rt, 1, 0))
                    exacts.append((tau, c2, ex) + more[0][:2])
                elif solved is None:
                    solved = (tau, c2, {x: d for d, x in enumerate(ex)})
                else:
                    exacts.append((tau, c2, ex, c2, zeros))
            else:
                for j, (c2, ex, rt) in enumerate(touches):
                    m = missing[tau] + k - 1 - j  # after this touch
                    checks.append((tau, c2, ex, rt) + ((m + r * k, k) if shared else (m, 0)))
        return solved, (exacts, checks)

    cols = _column_order(n)  # column 0 is pinned to exponent 0
    remaining = [p * (n - tau) for tau in range(n)]
    for i in range(1, len(cols)):
        c = cols[i]
        by_shift: dict[int, list] = {}
        for c2 in cols[:i]:
            tau, roots = (c - c2, left) if c2 < c else (c2 - c, right)
            by_shift.setdefault(tau, []).append((c2, *roots))
        for tau, touches in by_shift.items():
            remaining[tau] -= p * len(touches)
        middle = row_tables(by_shift, p - 2, shared=True) if p > 2 else None
        yield [middle if 0 < r < p - 1 else row_tables(by_shift, r) for r in range(p)]


def _tied_images(q: int, exps: list, leader: tuple, maps: tuple):
    """The maps whose row-sorted image ties the stack in slot order on the
    filled columns, or None if some image comes first. For leader = (prev,
    key_of, images), key_of gets a row's filled columns, and map g sends the
    e that columns_of gets to sign * (e - b) mod q, b what base_of gets,
    where (columns_of, base_of, sign) = images[g]."""
    _, key_of, images = leader
    key = list(zip(*map(key_of, exps)))
    ties = []
    for g in maps:
        columns_of, base_of, sign = images[g]
        image = list(zip(*sorted(_affine_rows(q, sign, map(columns_of, exps), map(base_of, exps)))))
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
    """`_backtrack` after the norm and parity tests: a shape they refute
    visits 0 nodes and emits nothing, so it never exceeds a work bound."""
    if q < 1 or set_size < 1 or length < 1:
        raise InputError("q, set size, and length must all be >= 1")
    if _norm_refuted(q, set_size, length) or _parity_refuted(q, set_size, length):
        return 0
    return _backtrack(q, set_size, length, emit, work_bound)


def _packed_tests(q: int, p: int, n: int) -> tuple[int, tuple, Iterator[list]]:
    """The high bits of fields 1..n-1 (and 2n+1..3n-1 for q = 4), the row
    ints of column 0 (exponent 0) and, column by column in fill order, each
    slot's test (lim, w*c, w*(n-1-c), deltas) for q in {1, 2, 4} (the module
    notes): the row's ints gain deltas[v] when it takes exponent v. The
    limits are built in O(P*N) big-int steps."""
    w = (4 * p * n).bit_length() + 1
    ones = (1 << w * n) // ((1 << w) - 1)  # 1 in every field of a region
    # times spread, a region's fields are copied to v's (q = 4); times to_v, a
    # field moves from u to v
    to_v = 1 << 2 * w * n
    spread, top = (1 + to_v, 3 * n) if q == 4 else (1, n)
    high = ((ones - 1) << (w - 1)) * spread
    # x = 1 or i is (u, v) = (1, 1) or (1, -1), and i maps (u, v) to (v, -u):
    # for q = 4 the ints gain conj(x), x, i*conj(x), -i*x
    plus, minus = 1 + to_v, 1 - to_v
    units = ((plus, plus, minus, -minus), (-minus, minus, plus, plus)) if q == 4 else ((1, 1),)

    def deltas(c):  # for x = 1 (and i), then the negations
        bits = (1 << w * c, 1 << w * (n - 1 - c)) * 2
        return [tuple(s * u * b for u, b in zip(x, bits)) for s in (1, -1) for x in units][:q]

    def tests(lim):
        filled, mirrored = 1, 1 << w * (n - 1)  # column 0
        for c in _column_order(n)[1:]:
            # field tau: the filled columns tau before or after c
            touches = ((filled >> w * c) + (mirrored >> w * (n - 1 - c))) * spread
            column = deltas(c)
            yield [(lim - r * touches, w * c, w * (n - 1 - c), column) for r in range(1, p + 1)]
            lim -= p * touches
            filled += 1 << w * c
            mirrored += 1 << w * (n - 1 - c)

    lim = ((((1 << w * top) // ((1 << w) - 1)) << (w - 1))
           + p * sum((n - tau) << w * tau for tau in range(1, n)) * spread)
    return high, deltas(0)[0], tests(lim)


def _slots(q: int, p: int, n: int, tests: Iterator[list]) -> tuple:
    """The exponent rows, the column records, the tie flags, the lex-leader
    ties and the slot count that both engines share. Column by column in
    fill order, a slot's record is (row, c, r, above, back, leader) and its
    test: above is the row above (None for row 0), back this row's slot one
    column earlier, and leader, on the last row of a column after which the
    filled columns are closed under c -> n-1-c, the check (prev, key_of,
    images) of `_tied_images`, prev the check before it. tied[i]: the rows
    of slot i and above agree on every column filled so far; leaders[i]:
    the maps whose image equals the stack after the check at slot i. Index
    -1 stands for column 0, where rows agree and every map ties (for q <= 2
    conjugation is the identity).
    """
    exps = [[0] * n for _ in range(p)]
    cols = _column_order(n)

    def columns():
        check = -1
        for i, (c, column) in enumerate(zip(cols[1:], tests), 1):
            leader = None
            if i % 2 or i == n - 1:
                filled = itemgetter(*cols[: i + 1])
                mirror = itemgetter(*[n - 1 - f for f in cols[: i + 1]])
                first, last = itemgetter(0), itemgetter(n - 1)
                # reversal (rows rescaled to lead with 0), conjugation, both
                images = ((mirror, last, 1), (filled, first, -1), (mirror, last, -1))
                leader = (check, filled, images)
                check = i * p - 1
            yield [(exps[r], c, r, exps[r - 1] if r else None, (i - 2) * p + r if i > 1 else -1,
                    leader if r == p - 1 else None) + test for r, test in enumerate(column)]

    end = p * (n - 1)
    return exps, columns(), [False] * end + [True], [()] * end + [(0, 1, 2) if q > 2 else (0,)], end


def _backtrack(
    q: int,
    set_size: int,
    length: int,
    emit: Callable[[Rows], bool],
    work_bound: int,
) -> int:
    """The backtracking enumeration by the engine for q; emit returns True to
    stop early. Stacks are reached in ascending slot order, and only the
    least member of each class is emitted (the module notes). Returns the
    number of nodes visited, not counting the exponents the row-order bound
    skips; raises WorkBoundExceeded if that number would pass work_bound."""
    engine = _packed_backtrack if q in (1, 2, 4) else _table_backtrack
    return engine(q, set_size, length, emit, work_bound)


def _packed_backtrack(q, p, n, emit, work_bound) -> int:
    high, column0, tests = _packed_tests(q, p, n)
    exps, columns, tied, leaders, end = _slots(q, p, n, tests)
    # after slot i: its row's forward and reversed ints (two pairs for
    # q = 4), ints[-1] those of column 0; the packed shift sums, sums[-1]
    # none; the sums for each value of slot i
    ints, sums, zs = [None] * end + [column0], [0] * (end + 1), [None] * end
    quaternary = q == 4
    slots, tried = [], [0] * end
    nodes = idx = built = 0
    while idx >= 0:
        if idx == built:
            if built < end:
                slots += next(columns)
                built += p
                continue
            if emit(tuple(map(tuple, exps))):
                break
            idx -= 1
            continue
        row, c, _, above, back, leader, lim, shift, mirror_shift, deltas = slots[idx]
        f = ints[back]
        v = tried[idx]
        # A row tied with the row above starts at its exponent. Each value
        # tried is one node, in order: the test scans to the first live
        # value, and a slot forms its sums for every value at the first.
        if v:
            z = zs[idx]
        else:
            if above is not None and tied[back]:
                v = above[c]
            s = sums[idx - 1]
            t = (f[0] >> shift) + (f[1] >> mirror_shift)
            if quaternary:
                u = (f[2] >> shift) + (f[3] >> mirror_shift)
            z = zs[idx] = (s + t, s + u, s - t, s - u) if quaternary else (s + t, s - t)
        while v < q:
            nodes += 1
            zv = z[v]
            if (lim + zv) & (lim - zv) & high == high:
                break
            v += 1
        if nodes > work_bound:
            raise WorkBoundExceeded(f"search exceeded the work bound of {work_bound} nodes")
        if v == q:
            tried[idx] = 0
            idx -= 1
            continue
        tried[idx] = v + 1
        sums[idx] = zv
        d = deltas[v]
        ints[idx] = ((f[0] + d[0], f[1] + d[1], f[2] + d[2], f[3] + d[3]) if quaternary
                     else (f[0] + d[0], f[1] + d[1]))
        row[c] = v
        if above is not None:
            tied[idx] = tied[back] and v == above[c]
        if leader is not None:
            ties = leaders[leader[0]]
            if ties:
                ties = _tied_images(q, exps, leader, ties)
                if ties is None:
                    continue
            leaders[idx] = ties
        idx += 1
    return nodes


def _table_backtrack(q, p, n, emit, work_bound) -> int:
    exps, columns, tied, leaders, end = _slots(q, p, n, _slot_tables(q, p, n))
    # state[i]: (exact, approx) after the first i slots; deeper levels are
    # allocated as the path first reaches them
    state = [([0] * n, [0j] * n)]
    slots, tried = [], [0] * end
    nodes = idx = built = 0
    while idx >= 0:
        if idx == built:
            if built < end:
                slots += next(columns)
                built += p
                continue
            if emit(tuple(map(tuple, exps))):
                break
            idx -= 1
            continue
        row, c, r, above, back, leader, solved, (exacts, checks) = slots[idx]
        v = tried[idx]
        # A row tied with the row above starts at its exponent. Each value
        # tried is one node, in order; those failing the solved test die untried.
        if solved is None:
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
            raise WorkBoundExceeded(f"search exceeded the work bound of {work_bound} nodes")
        if v == q:
            tried[idx] = 0
            idx -= 1
            continue
        parent_exact, parent_approx = state[idx]
        for tau, c2, ex, c3, ex3 in exacts:
            if parent_exact[tau] + ex[row[c2] - v] + ex3[row[c3] - v]:
                break
        else:
            if idx + 1 == len(state):
                state.append(([0] * n, [0j] * n))
            exact, approx = state[idx + 1]
            exact[:] = parent_exact
            approx[:] = parent_approx
            for tau, c2, ex, rt, m, k in checks:
                d = row[c2] - v
                exact[tau] += ex[d]
                z = approx[tau] + rt[d]
                approx[tau] = z
                if abs(z) > m - r * k + 1e-6:
                    break
            else:
                row[c] = v
                if above is not None:
                    tied[idx] = tied[back] and v == above[c]
                if leader is not None:
                    ties = leaders[leader[0]]
                    if ties:
                        ties = _tied_images(q, exps, leader, ties)
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
    shape the norm or parity test refutes returns no sets after 0 nodes,
    whatever the work bound.
    """
    if limit is not None and limit < 1:
        raise InputError(f"limit must be >= 1, got {limit}")
    if work_bound < 0:
        raise InputError(f"work bound must be >= 0, got {work_bound}")
    found: set[Rows] = set()

    def emit(rows: Rows) -> bool:
        canon = canonical_rows(q, rows)
        if canon in found:
            raise RuntimeError("internal error: enumerator emitted a class twice")
        found.add(canon)
        return len(found) == limit

    nodes = _enumerate(q, set_size, length, emit, work_bound)
    try:
        sets = ensure_verified_all(ComplementarySet(tuple(Sequence(q, r) for r in canon))
                                   for canon in sorted(found))
    except InputError:
        raise RuntimeError("internal error: enumerator emitted a non-complementary stack") from None
    return SearchResult(q, set_size, length, tuple(sets), len(found) != limit, nodes)


def first_cs(
    q: int,
    set_size: int,
    length: int,
    work_bound: int = DEFAULT_WORK_BOUND,
) -> Optional[ComplementarySet]:
    """First complementary set the enumeration reaches, canonicalized."""
    sets = search_cs(q, set_size, length, limit=1, work_bound=work_bound).sets
    return sets[0] if sets else None
