"""Brute-force discovery of complementary sets by pruned backtracking.

The enumerator fills the P x N exponent matrix column by column from both
ends inward (column 0, column N-1, column 1, ...), every row's leading
exponent pinned to 0; exponents are tried in ascending order. Shift tau
sums x_{c+tau} * conj(x_c) over the rows and columns, and it is complete
once every pair of columns it spans is filled. One loop runs the search
over flat slot records on an explicit stack, so depth is bounded by
memory, not by the recursion limit; a column's records are built when the
search first reaches the column.

A node is decided on integer linear forms of the partial shift sums. The
sums of M q-th roots are the lattice points of M*P, P the convex hull of
the q-th roots in `root_coords` coordinates (Beck & Hosten, "Cyclotomic
polytopes and growth series of cyclotomic lattices", Math. Res. Lett. 13,
2006). A shift whose known part is S and which still misses M terms can
vanish only if -S lies in M*P, so every form f with f(root) <= h on every
root must have f(S) >= -M*h. The forms are the facets of P: the
hyperplanes through root 1 and phi(q) - 1 other roots that have every root
on one side, found with integer cofactors, and their rotations (2, 2, 3, 4,
5, 6, 7, 16, 27 and 30 forms for q = 1..10, the alphabets `check_alphabet`
admits). For q = 2 they say |x| <= M and for q = 4 |a| + |b| <= M. Facets
never prune less than |S| <= M, as M*P lies in the disc of radius M. They
decide a completed shift (M = 0) exactly: every f(S) >= 0 only at S = 0,
as 0 is interior to P (for q = 1, P = {1} and the forms are x <= 1 and -x
<= -1).

The forms of the sums live in one int per depth. Each form is bounded on
both sides, f(S) >= -M*max(f) and f(S) <= M*max(-f), so of a pair f, -f
(both facets for even q, where -1 is a root) one region serves: for q = 2
the one form x, for q = 4 the forms a + b and a - b. With w-bit fields,
where 4*P*N*max|f(root)| < 2^(w-1) = B, field tau of region j holds
f_j(S_tau); regions lie 2N fields apart. Each row keeps its filled entries
in a forward int (field c for x_c) and a reversed one (field N-1-c), in one
layer per root class: layer k holds f_j(x_c * zeta^-k) forward and
f_j(conj(x_c) * zeta^k) reversed. Shifted right by w*c and by w*(N-1-c)
and added, they give t, whose layer v holds in field tau the forms of the
terms x_{c+tau} * conj(zeta^v) and zeta^v * conj(x_{c-tau}) that value v at
column c adds to shift tau. Odd q has q layers; even q has q/2, since
zeta^(v+q/2) = -zeta^v, and value v >= q/2 negates layer v - q/2. A floor
shift leaves -1 or 0 in field 0, and the fields it moves down from the
region or layer above land in fields N..2N-1 of a region, which no shift
uses; that junk stays below 3*P*N*max|f| in magnitude on a path. A slot's
two limit ints hold B + M_tau*max(f_j) and B + M_tau*max(-f_j) in field
tau of region j, M_tau the terms of shift tau still missing after the
slot, and B in every other field of the lowest layer. With s the sums
before the slot and z = s + (t >> the layer of v) (or minus), every field
of lo + z and hi - z lies inside [0, 2^w), so no field borrows or carries
into the next, and its high bit is set exactly when the bound holds: one
AND of the two, masked to those bits, decides the node with integers
only. A record holds the limits, the two shift amounts and the column's
delta of the row's ints for each exponent; a slot forms t once, at the
first value, and each value tried costs a shift, three adds and two ANDs.
The ints grow with the forms, the layers and N, so a search that would
hold more than STATE_BOUND bits of them stops with WorkBoundExceeded when
it reaches the column that passes it; under the CLI's shape caps that
never happens for q in {1, 2, 4}.

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
  check gather an image's columns, and bytes.translate tables map them, as
  they do the canonical form's rows.

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

from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .algebra import MAX_Q, Sequence, check_alphabet, root_coords
from .errors import InputError, WorkBoundExceeded
from .verify import ComplementarySet, ensure_verified_all

DEFAULT_WORK_BOUND = 10**9
STATE_BOUND = 2**32  # bits of packed records and per-depth ints a search may hold: 512 MiB

Rows = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=32)
def _affine_tables(q: int, sign: int) -> list[bytes]:
    """Per base b, the bytes.translate table of e -> sign * (e - b) mod q."""
    return [bytes(sign * (e - b) % q for e in range(256)) for b in range(q)]


def _affine_rows(q: int, sign: int, rows: Iterable, bases: Iterable[int]):
    """The rows, as bytes, with each exponent e mapped to sign * (e - b) mod
    q, b the row's base."""
    return map(bytes.translate, map(bytes, rows), map(_affine_tables(q, sign).__getitem__, bases))


def canonical_rows(q: int, rows: Iterable[Iterable[int]]) -> Rows:
    """Canonical representative of the equivalence class of a row stack.

    Each row is scaled so its first exponent is 0, rows are sorted, and the
    lexicographically least of the four images under simultaneous reversal
    and conjugation is taken. q must be in [1, MAX_Q] and rows nonempty,
    with exponents in [0, q); InputError otherwise.
    """
    base = list(map(tuple, rows))
    if (not 1 <= q <= MAX_Q or not all(base) or min(map(min, base), default=0) < 0
            or max(map(max, base), default=0) >= q):
        raise InputError(f"rows must be nonempty, with exponents in [0, {q}), q in [1, {MAX_Q}]")
    base = list(map(bytes, base))
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
    check_alphabet(q)
    if set_size < 1 or length < 1:
        raise InputError("set size and length must both be >= 1")
    if _norm_refuted(q, set_size, length) or _parity_refuted(q, set_size, length):
        return 0
    return _backtrack(q, set_size, length, emit, work_bound)


def _det(m: list) -> int:
    """Determinant of a small integer matrix, by cofactor expansion."""
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


@lru_cache(maxsize=None)
def _forms(q: int) -> tuple[tuple[int, ...], ...]:
    """The pruning forms of the module notes, each as its values at the
    q-th roots: values[e] is an integer linear form at zeta_q^e, and
    max(values) its bound on the roots. The facets of the convex hull of
    the q-th roots, closed under rotation, sorted."""
    ring = root_coords(q).tolist()
    # the hyperplanes through root 1 and phi(q) - 1 other roots, with a
    # normal by cofactors, that have every root on one side
    bases = []
    for others in combinations(ring[1:], len(ring[0]) - 1):
        diffs = [[a - b for a, b in zip(r, ring[0])] for r in others]
        normal = [(-1) ** i * _det([row[:i] + row[i + 1:] for row in diffs])
                  for i in range(len(ring[0]))]
        values = [sum(map(mul, normal, r)) for r in ring]
        if any(values):
            g = gcd(*values)
            bases += [vs for vs in ([x // g for x in values], [-x // g for x in values])
                      if max(vs) == vs[0]]
    return tuple(sorted({tuple(vs[e - k] for e in range(q)) for vs in bases for k in range(q)}))


def _packed_tests(q: int, p: int, n: int) -> tuple[int, tuple, int, list[int], Iterator[list]]:
    """The high bits of the tested fields, the row ints of column 0
    (exponent 0), the number of layers, each value's layer shift and,
    column by column in fill order, each slot's test (lo, hi, w*c,
    w*(n-1-c), deltas) (the module notes): the row's ints gain deltas[v]
    when it takes exponent v. The limits are built in O(P*N) big-int
    steps."""
    # one form of each pair f, -f, as the test bounds f on both sides
    every = _forms(q)
    forms = [vs for vs in every if vs > tuple(-x for x in vs) or tuple(-x for x in vs) not in every]
    w = (4 * p * n * max(abs(x) for values in forms for x in values)).bit_length() + 1
    region = 2 * n * w
    layer = region * len(forms)
    n_layers = q // 2 if q % 2 == 0 else q  # zeta^(v + q/2) = -zeta^v
    ones = (1 << w * n) // ((1 << w) - 1)  # 1 in every field of a region
    starts = sum(1 << region * j for j in range(len(forms)))
    # the limits gain these for each missing term: max(f_j) and max(-f_j)
    lo_bounds = sum(max(values) << region * j for j, values in enumerate(forms))
    hi_bounds = sum(-min(values) << region * j for j, values in enumerate(forms))
    high = ((ones - 1) << (w - 1)) * starts

    # per exponent e, f_j(zeta^e) in field 0 of region j, then f_j(zeta^(e - k))
    # (forward) and f_j(zeta^(k - e)) (reversed) in layer k
    at_root = [sum(values[e] << region * j for j, values in enumerate(forms))
               for e in range(q)]
    forward, reverse = ([sum(at_root[sign * (e - k) % q] << layer * k for k in range(n_layers))
                         for e in range(q)] for sign in (1, -1))

    # a column holds 2q deltas, and each of its P slots two limits, the
    # row's two ints, its touches and its sums: below 2q + 6P ints of
    # n_layers * layer bits
    column_bits = (2 * q + 6 * p) * n_layers * layer

    def tests(lo, hi):
        filled, mirrored = 1, 1 << w * (n - 1)  # column 0
        for i, c in enumerate(_column_order(n)[1:], 1):
            if i * column_bits > STATE_BOUND:
                raise WorkBoundExceeded(f"search state exceeded the bound of "
                                        f"{STATE_BOUND >> 23} MiB at column {i} of {n}")
            # field tau: the filled columns tau before or after c
            touches = (filled >> w * c) + (mirrored >> w * (n - 1 - c))
            lo_touches, hi_touches = touches * lo_bounds, touches * hi_bounds
            column = [(f << w * c, g << w * (n - 1 - c)) for f, g in zip(forward, reverse)]
            yield [(lo - r * lo_touches, hi - r * hi_touches, w * c, w * (n - 1 - c), column)
                   for r in range(1, p + 1)]
            lo -= p * lo_touches
            hi -= p * hi_touches
            filled += 1 << w * c
            mirrored += 1 << w * (n - 1 - c)

    base = ((1 << layer) // ((1 << w) - 1)) << (w - 1)
    missing = p * sum((n - tau) << w * tau for tau in range(1, n))
    column0 = (forward[0], reverse[0] << w * (n - 1))
    layers = [layer * (v % n_layers) for v in range(q)]
    lims = base + missing * lo_bounds, base + missing * hi_bounds
    return high, column0, n_layers, layers, tests(*lims)


def _slots(q: int, p: int, n: int, tests: Iterator[list]) -> tuple:
    """The exponent rows, the column records, the tie flags, the lex-leader
    ties and the slot count of the search. Column by column in fill order,
    a slot's record is (row, c, above, back, leader) and its test: above is
    the row above (None for row 0), back this row's slot one column
    earlier, and leader, on the last row of a column after which the filled
    columns are closed under c -> n-1-c, the check (prev, key_of, images)
    of `_tied_images`, prev the check before it. tied[i]: the rows of slot i
    and above agree on every column filled so far; leaders[i]: the maps
    whose image equals the stack after the check at slot i. Index -1 stands
    for column 0, where rows agree and every map ties (for q <= 2
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
            yield [(exps[r], c, exps[r - 1] if r else None, (i - 2) * p + r if i > 1 else -1,
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
    """The backtracking enumeration; emit returns True to stop early. Stacks
    are reached in ascending slot order, and only the least member of each
    class is emitted (the module notes). Returns the number of nodes
    visited, not counting the exponents the row-order bound skips; raises
    WorkBoundExceeded, with its nodes and depth, if that number would pass
    work_bound or the state would pass STATE_BOUND."""
    p, n = set_size, length
    high, column0, n_layers, layers, tests = _packed_tests(q, p, n)
    exps, columns, tied, leaders, end = _slots(q, p, n, tests)
    # after slot i: its row's forward and reversed ints, ints[-1] those of
    # column 0; the packed shift sums, sums[-1] none; the touches of slot i
    ints, sums, touches = [None] * end + [column0], [0] * (end + 1), [None] * end
    slots, tried = [], [0] * end
    nodes = idx = built = 0
    try:
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
            row, c, above, back, leader, lo, hi, shift, mirror_shift, deltas = slots[idx]
            f, g = ints[back]
            s = sums[idx - 1]
            v = tried[idx]
            # A row tied with the row above starts at its exponent. Each value
            # tried is one node, in order: the test scans to the first live
            # value, and a slot forms its touches once, at the first value.
            if v:
                t = touches[idx]
            else:
                if above is not None and tied[back]:
                    v = above[c]
                t = touches[idx] = (f >> shift) + (g >> mirror_shift)
            while v < q:
                nodes += 1
                z = s + (t >> layers[v]) if v < n_layers else s - (t >> layers[v])
                if (lo + z) & (hi - z) & high == high:
                    break
                v += 1
            if nodes > work_bound:
                raise WorkBoundExceeded(f"search exceeded the work bound of {work_bound} nodes")
            if v == q:
                tried[idx] = 0
                idx -= 1
                continue
            tried[idx] = v + 1
            sums[idx] = z
            d, e = deltas[v]
            ints[idx] = (f + d, g + e)
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
    except WorkBoundExceeded as exc:
        exc.nodes, exc.depth = nodes, built // p
        raise
    return nodes


class SearchResult(NamedTuple):
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

    try:
        nodes = _enumerate(q, set_size, length, emit, work_bound)
    except WorkBoundExceeded as exc:
        exc.classes = len(found)
        raise
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
