"""Independent oracles and generators used by the test suite.

Everything here recomputes from first principles (floating point sums,
unpruned product enumeration, direct window sums) so the library paths
under test are checked against a second route, not against themselves.
"""

from __future__ import annotations

import argparse
import cmath
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Callable, Optional

import numpy as np

from cskit import cli
from cskit.algebra import RootSum, Sequence, root_coords
from cskit.construct import Coeffs4, Coeffs8, cs4_from_pairs, golay_double, turyn_product
from cskit.errors import InputError, ParseError, WorkBoundExceeded
from cskit.io import _HEADER
from cskit.reach import (
    Derivation,
    LengthEntry,
    LengthFactorization,
    ReachabilitySet,
    composition,
    in_gcp_pattern,
)
from cskit.search import Rows, _column_order
from cskit.seeds import gcp_for_length, seed_pair
from cskit.verify import ComplementarySet, ensure_verified, verify


# ---------------------------------------------------------------------------
# The lex-leader check and the canonical form as they were before the search
# engine did them in bytes: the oracles below use these copies, and the
# engine's versions must equal them.


def oracle_canonical_rows(q: int, rows) -> Rows:
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


def oracle_tied_images(q: int, exps: list, filled: list, images: tuple, maps: tuple):
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


# ---------------------------------------------------------------------------
# Sequence and RootSum maps that only the tests need: the symmetry tests and
# the oracles build on them.


def signs(text: str) -> Sequence:
    """Binary shorthand: '+' is +1 and '-' is -1, over q=2."""
    return Sequence(2, tuple("+-".index(ch) for ch in text))


def reverse(seq: Sequence) -> Sequence:
    return Sequence(seq.q, seq.exponents[::-1])


def conjugate(seq: Sequence) -> Sequence:
    return Sequence(seq.q, tuple(-e % seq.q for e in seq.exponents))


def _remap(v: RootSum, shift: Callable[[int], int]) -> RootSum:
    """The value with each zeta_q^t term moved to zeta_q^shift(t), reduced."""
    counts = [0] * v.q
    for t, c in enumerate(v.coords):
        counts[shift(t) % v.q] += c
    return RootSum.from_counts(v.q, counts)


def int_rootsum(q: int, n: int) -> RootSum:
    """The integer n as an exact value over U_q."""
    return RootSum.from_counts(q, [n] + [0] * (q - 1))


def conj_rootsum(v: RootSum) -> RootSum:
    """Exact complex conjugate."""
    return _remap(v, lambda t: -t)


def rotate_rootsum(v: RootSum, s: int) -> RootSum:
    """Exact product with zeta_q^s."""
    return _remap(v, lambda t: t + s)


def sum_rootsums(values) -> RootSum:
    """Exact sum: canonical coordinates add coordinatewise."""
    values = list(values)
    return RootSum(values[0].q, tuple(map(sum, zip(*(v.coords for v in values)))))


def profile_values(profile) -> tuple[RootSum, ...]:
    """Every value of a correlation profile, shifts -(N-1) to N-1."""
    n = profile.length_n
    return tuple(profile.at(tau) for tau in range(-(n - 1), n))


def float_sum_profile(cs: ComplementarySet) -> list[complex]:
    """Naive float recomputation of the autocorrelation sum, tau in [0, N)."""
    n = cs.length
    rows = [np.array(r.as_complex()) for r in cs.rows]
    out = []
    for tau in range(n):
        total = 0j
        for x in rows:
            if tau:
                total += complex(np.sum(x[: n - tau] * np.conj(x[tau:])))
            else:
                total += complex(np.sum(x * np.conj(x)))
        out.append(total)
    return out


def rootsum_accf(a: Sequence, b: Sequence) -> tuple[RootSum, ...]:
    """Reference aperiodic cross-correlation: one RootSum per shift, counted
    root by root in pure Python. profile_values(accf(a, b)) must equal it."""
    q = a.q
    n = len(a)
    ea, eb = a.exponents, b.exponents
    values = []
    for tau in range(-(n - 1), n):
        counts = [0] * q
        if tau >= 0:
            for k in range(n - tau):
                counts[(ea[k] - eb[k + tau]) % q] += 1
        else:
            for k in range(n + tau):
                counts[(ea[k - tau] - eb[k]) % q] += 1
        values.append(RootSum.from_counts(q, counts))
    return tuple(values)


def oracle_coordinate_accf(a: Sequence, b: Sequence) -> np.ndarray:
    """accf's coordinates as the kernel computed them for every q before
    q in {1, 2, 4} took one Gaussian-integer correlation: phi(q)^2 float64
    correlations of the entries' canonical coordinates, folded in int64."""
    q, n = a.q, len(a)
    ring = root_coords(q)
    phi = ring.shape[1]
    roots = ring.T.astype(np.float64)
    fold = ring[np.add.outer(np.arange(phi), np.arange(phi)).ravel() % q]
    ca = roots[:, np.array(a.exponents, dtype=np.intp)]
    cb = roots[:, -np.array(b.exponents, dtype=np.intp) % q]
    corr = np.empty((2 * n - 1, phi * phi))
    for i in range(phi):
        for l in range(phi):
            corr[:, i * phi + l] = np.correlate(cb[l], ca[i], "full")
    return corr.astype(np.int64) @ fold


def brute_force_cs(q: int, set_size: int, length: int) -> set:
    """Unpruned reference enumeration, canonical forms of all solutions.

    A float sum of the row autocorrelations only screens out the stacks
    whose sum is far from zero at some shift; the exact verifier decides
    every other stack.
    """
    roots = [cmath.exp(2j * cmath.pi * e / q) for e in range(q)]
    found = set()
    free = set_size * (length - 1)
    for combo in product(range(q), repeat=free):
        rows = tuple(
            (0,) + combo[r * (length - 1) : (r + 1) * (length - 1)]
            for r in range(set_size)
        )
        if any(
            abs(sum(roots[row[i + tau] - row[i]] for row in rows for i in range(length - tau)))
            > 1e-6
            for tau in range(1, length)
        ):
            continue
        cs = ComplementarySet(tuple(Sequence.from_exponents(q, r) for r in rows))
        if verify(cs).is_cs:
            found.add(oracle_canonical_rows(q, rows))
    return found


# The search engine before per-level state and the solved exact test, kept
# verbatim as the reference: the engine must emit exactly its hits whose rows
# are sorted in the fill order, in the same order, and visit no more nodes.
def undo_log_enumerate(
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


# ---------------------------------------------------------------------------
# The facets of the convex hull of the q-th roots, from every subset of
# phi(q) roots by Gaussian elimination over the rationals: the oracle of the
# search's pruning forms, which it finds through root 1 and rotates.


def _row_reduce(rows: list) -> list:
    """The nonzero rows of the reduced row echelon form, over Fraction."""
    rows = [list(map(Fraction, row)) for row in rows]
    done = []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]
        rows = [[a - row[col] * b for a, b in zip(row, pivot)] for row in rows]
        done = [[a - row[col] * b for a, b in zip(row, pivot)] for row in done] + [pivot]
    return done


def affine_rank(points: list) -> int:
    """The dimension of the affine hull of the points."""
    return len(_row_reduce([[a - b for a, b in zip(pt, points[0])] for pt in points[1:]]))


def brute_force_facets(q: int) -> set:
    """Every facet as (values, h): values[e] a primitive integer form at
    zeta_q^e in root_coords coordinates, at most h on every root, with
    equality on the facet. For q = 1 the hull is a point, and both x <= 1
    and -x <= -1 are kept."""
    ring = root_coords(q).tolist()
    d = len(ring[0])
    facets = set()
    for subset in combinations(ring, d):
        reduced = _row_reduce([[a - b for a, b in zip(pt, subset[0])] for pt in subset[1:]])
        if len(reduced) != d - 1:
            continue
        pivots = [next(i for i, x in enumerate(row) if x) for row in reduced]
        free = next(i for i in range(d) if i not in pivots)
        normal = [Fraction(0)] * d
        normal[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            normal[col] = -row[free]
        scale = lcm(*(x.denominator for x in normal))
        normal = [int(x * scale) for x in normal]
        values = [sum(a * b for a, b in zip(normal, root)) for root in ring]
        g = gcd(*values)
        h = sum(a * b for a, b in zip(normal, subset[0]))
        for sign in (1, -1):
            if all(sign * v <= sign * h for v in values):
                facets.add((tuple(sign * v // g for v in values), sign * h // g))
    return facets


# The search engine before the packed test, kept as the oracle of that test:
# per-column touch tables, one exact number per shift for q in {1, 2, 4}
# (an exact packed int and a complex shadow for any other q), and the
# solved-shift lookup. The engine must emit the same tuples in the same
# order and visit no more nodes for every q <= 10; with `norm` pruning on
# |Re| + |Im| (abs for q = 2) it must count the same nodes and raise the
# same work-bound error for q in {2, 4}. For q = 1 the engine's x <= 1,
# -x <= -1 prunes more than abs.

# The q whose q-th roots are all Gaussian integers (q divides 4).
_GAUSSIAN = (1, 2, 4)


def per_touch_slot_tables(q: int, p: int, n: int) -> list:
    """The touch tables of every free column c, in fill order.

    Returns (c, first, middle, last): the tables of rows 0, 1..p-2 and p-1
    of column c (one table serves every middle row). The entry v of row r
    in column c touches a shift tau once per earlier column c2, adding the
    root of d = row[c2] - v. For q in _GAUSSIAN that root is one exact
    value ex[d] (an int for q <= 2, a complex with integer parts for q = 4);
    for any other q it is ex[d], a packed int, together with its complex
    shadow rt[d]. Below, "ex, *rt" stands for ex alone or for ex, rt. A
    table is (exacts, solved, checks, scaled), its touches grouped by shift:

    - exacts: (tau, c2, ex, c2', ex'), a shift the row completes, decided by
      its exact value alone (ex' is all zeros for a single touch; the first
      of two touches is also in checks, as it leaves one term missing);
    - solved: (tau, c2, exponent_of), one shift completed by a single touch,
      whose one live value of ex[d] is -exact[tau]; or None;
    - checks: (tau, c2, ex, *rt, lim), a touch of a shift still missing
      terms, pruned when abs(z) > lim, 1e-6 above the terms still missing;
    - scaled: the same for the middle rows, (tau, c2, ex, *rt, m, k), with
      m - r*k terms still missing after row r's touch.

    Shifts with the fewest terms missing come first, and the touches of one
    shift keep their order. The tables take O(N^2) space for any P.
    """
    coords = root_coords(q).tolist()
    if q in _GAUSSIAN:
        # The q-th roots are Gaussian integers, so a partial sum of at most
        # p*n of them has integer parts of size <= p*n < 2^53, which an int
        # (q <= 2) or a complex (q = 4) holds exactly.
        left = ([complex(*cs) if q == 4 else cs[0] for cs in coords],)
    else:
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
                (c2, ex, *rt), *more = touches
                if more:
                    checks.append((tau, c2, ex, *rt, 1 + 1e-6))
                    exacts.append((tau, c2, ex) + more[0][:2])
                elif solved is None:
                    solved = (tau, c2, {x: d for d, x in enumerate(ex)})
                else:
                    exacts.append((tau, c2, ex, c2, zeros))
            else:
                for j, (c2, ex, *rt) in enumerate(touches):
                    m = missing[tau] + k - 1 - j  # after this touch
                    if shared:
                        scaled.append((tau, c2, ex, *rt, m + r * k, k))
                    else:
                        checks.append((tau, c2, ex, *rt, m + 1e-6))
        return exacts, solved, checks, scaled

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
        last = row_tables(by_shift, p - 1)
        first = row_tables(by_shift, 0) if p > 1 else last
        middle = row_tables(by_shift, p - 2, shared=True) if p > 2 else None
        tables.append((c, first, middle, last))
    return tables


def per_touch_backtrack(
    q: int,
    set_size: int,
    length: int,
    emit: Callable[[Rows], bool],
    work_bound: int,
    norm: Callable = abs,
) -> int:
    """The backtracking enumeration; emit returns True to stop early.

    Exponents are tried in ascending order, so stacks are reached in
    ascending slot order, and only the least member of each class is
    emitted, by the row-order bound and the lex-leader check of the module
    notes. Returns the number of assignment nodes visited; the exponents
    skipped by the row-order bound are not counted. Raises
    WorkBoundExceeded if that number would pass work_bound. For q in
    _GAUSSIAN a partial shift sum z is pruned when norm(z) passes the
    count of its missing terms.
    """
    p, n = set_size, length
    exps = [[0] * n for _ in range(p)]
    cols = _column_order(n)
    slots = []
    check = -1  # the slot of the last lex-leader check so far
    for i, (c, first, middle, last) in enumerate(per_touch_slot_tables(q, p, n), 1):
        for r in range(p):
            tables = first if r == 0 else last if r == p - 1 else middle
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
            slots.append((exps[r], c, r, above, max(len(slots) - p, -1), leader) + tables)
    # tied[i]: the rows of slot i and the row above agree on every column
    # filled up to slot i; tied[-1] stands for column 0, equal in every row
    tied = [False] * len(slots) + [True]
    # leaders[i]: after the check at slot i, the maps whose image equals the
    # stack on the filled columns; every map's image does on column 0, and
    # for q <= 2 conjugation is the identity
    leaders = [()] * len(slots) + [(0, 1, 2) if q > 2 else (0,)]
    # state[i] is (exact, approx) after the first i slots, approx None for
    # q in _GAUSSIAN; deeper levels are allocated as the path first reaches
    # them
    def level():
        return [0] * n, None if q in _GAUSSIAN else [0j] * n

    state = [level()]

    nodes = 0
    tried = [0] * len(slots)
    idx = 0
    while idx >= 0:
        if idx == len(slots):
            if emit(tuple(tuple(row) for row in exps)):
                break
            idx -= 1
            continue
        row, c, r, above, back, leader, exacts, solved, checks, scaled = slots[idx]
        parent_exact, parent_approx = state[idx]
        v = tried[idx]
        # A row tied with the row above starts at its exponent. The ones that
        # fail the solved test are dead without a try; each still counts as
        # one node, in the order the values are tried.
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
            d = exponent_of.get(-parent_exact[tau])
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
        for tau, c2, ex, c3, ex3 in exacts:
            if parent_exact[tau] + ex[row[c2] - v] + ex3[row[c3] - v]:
                break
        else:
            if idx + 1 == len(state):
                state.append(level())
            exact, approx = state[idx + 1]
            exact[:] = parent_exact
            alive = True  # a row's table has checks or scaled, not both
            if approx is None:  # the exact value prunes too
                for tau, c2, ex, lim in checks:
                    z = exact[tau] + ex[row[c2] - v]
                    exact[tau] = z
                    if norm(z) > lim:
                        alive = False
                        break
                for tau, c2, ex, m, k in scaled:
                    z = exact[tau] + ex[row[c2] - v]
                    exact[tau] = z
                    if norm(z) > m - r * k + 1e-6:
                        alive = False
                        break
            else:
                approx[:] = parent_approx
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
            if alive:
                row[c] = v
                if above is not None:
                    tied[idx] = tied[back] and v == above[c]
                if leader is not None:
                    prev, filled, images = leader
                    ties = leaders[prev]
                    if ties:
                        ties = oracle_tied_images(q, exps, filled, images, ties)
                        if ties is None:
                            continue
                    leaders[idx] = ties
                idx += 1
    return nodes



def cross_tail(q: int, u: Sequence, v: Sequence, tau: int) -> RootSum:
    """Exact sum over the terms of one shift that straddle the seam u||v.

    For the concatenation u||v at shift tau these are the products
    u_k * conj(v_{k+tau-len(u)}) with both indices in range.
    """
    m, pv = len(u), len(v)
    counts = [0] * q
    for k in range(max(0, m - tau), min(m, m + pv - tau)):
        j = k + tau - m
        counts[(u.exponents[k] - v.exponents[j]) % q] += 1
    return RootSum.from_counts(q, counts)


def modulate(seq: Sequence, t: int) -> Sequence:
    """Progressive phase ramp: entry k gains exponent k*t."""
    q = seq.q
    return Sequence(q, tuple((e + k * t) % q for k, e in enumerate(seq.exponents)))


def constructive_gcp_lengths(q: int, max_len: int) -> list[int]:
    from cskit.reach import gcp_lengths

    return [m for m in gcp_lengths(q, max_len) if composition(q, m) is not None]


def random_gcp(q: int, rng, max_len: int = 20) -> ComplementarySet:
    """A random verified pair: a seed composition hit with random
    complementarity-preserving transforms."""
    length = rng.choice(constructive_gcp_lengths(q, max_len))
    a, b = gcp_for_length(q, length).pair.rows
    if rng.random() < 0.5:
        a, b = b, a
    a = a.scale(rng.randrange(q))
    b = b.scale(rng.randrange(q))
    if rng.random() < 0.5:
        a, b = reverse(a), reverse(b)
    if rng.random() < 0.5:
        a, b = conjugate(a), conjugate(b)
    t = rng.randrange(q)
    if t:
        a, b = modulate(a, t), modulate(b, t)
    return ensure_verified(ComplementarySet((a, b)))


def random_admissible_coeffs4(q: int, rng) -> Coeffs4:
    x0, x1, y0 = (rng.randrange(q) for _ in range(3))
    y1 = (x1 - x0 + y0 + q // 2) % q
    return Coeffs4(x0, x1, y0, y1)


def random_admissible_coeffs8(q: int, rng) -> Coeffs8:
    x0, x1, y0, y1 = (rng.randrange(q) for _ in range(4))
    x2 = (x0 - y0 + y1 + q // 2) % q
    x3 = (x1 - y0 + y1 + q // 2) % q
    return Coeffs8(x0, x1, x2, x3, y0, y1)


def random_cs4(q: int, rng, max_pair_len: int = 10) -> ComplementarySet:
    pair_a = random_gcp(q, rng, max_pair_len)
    pair_b = random_gcp(q, rng, max_pair_len)
    return cs4_from_pairs(pair_a, pair_b, random_admissible_coeffs4(q, rng))


# ---------------------------------------------------------------------------
# The size-4 and size-8 rules as they were written before `construct` built
# both through one concatenation: a hand-listed row table per rule and the
# identities named one by one, kept as oracles of the rows and the messages.


def oracle_violated(coeffs, q: int, *identities: str) -> list[str]:
    """A message for each identity a*conj(b) + c*conj(d) = 0, given as the
    field names "a b c d", that the reduced coefficients of an even q miss:
    the identity holds when (a - b) == (c - d) + q/2 (mod q)."""
    out = []
    for names in identities:
        a, b, c, d = names.split()
        lhs = (getattr(coeffs, a) - getattr(coeffs, b)) % q
        rhs = (getattr(coeffs, c) - getattr(coeffs, d) + q // 2) % q
        if lhs != rhs:
            out.append(
                f"{a}*conj({b}) + {c}*conj({d}) != 0: "
                f"({a}-{b}) mod {q} = {lhs} but ({c}-{d}) + {q // 2} mod {q} = {rhs}"
            )
    return out


def oracle_violations(coeffs, q: int) -> list[str]:
    """`Coeffs4.violations` / `Coeffs8.violations` with their literal identities."""
    if isinstance(coeffs, Coeffs4):
        if q % 2:
            return [f"q={q} is odd, but x0*conj(y0) + x1*conj(y1) = 0 needs -1 in U_q"]
        return oracle_violated(coeffs.reduced(q), q, "x0 y0 x1 y1")
    if q % 2:
        return [f"q={q} is odd, but the defining identities need -1 in U_q"]
    return oracle_violated(coeffs.reduced(q), q, "x0 y0 x2 y1", "x1 y0 x3 y1")


def oracle_cs4_rows(pair_a, pair_b, coeffs: Coeffs4) -> tuple[Sequence, ...]:
    c4 = coeffs.reduced(pair_a.q)
    a, b = pair_a.rows
    c, d = pair_b.rows
    return (
        a.scale(c4.x0).concat(c.scale(c4.y0)),
        b.scale(c4.x0).concat(d.scale(c4.y0)),
        a.scale(c4.x1).concat(c.scale(c4.y1)),
        b.scale(c4.x1).concat(d.scale(c4.y1)),
    )


def oracle_cs8_rows(pair, set4, coeffs: Coeffs8) -> tuple[Sequence, ...]:
    c8 = coeffs.reduced(pair.q)
    a, b = pair.rows
    e, f, g, h = set4.rows
    return (
        a.scale(c8.x0).concat(e.scale(c8.y0)),
        b.scale(c8.x0).concat(f.scale(c8.y0)),
        a.scale(c8.x1).concat(g.scale(c8.y0)),
        b.scale(c8.x1).concat(h.scale(c8.y0)),
        a.scale(c8.x2).concat(e.scale(c8.y1)),
        b.scale(c8.x2).concat(f.scale(c8.y1)),
        a.scale(c8.x3).concat(g.scale(c8.y1)),
        b.scale(c8.x3).concat(h.scale(c8.y1)),
    )


# ---------------------------------------------------------------------------
# The per-entry Python loops that the set-file path replaced with C-level
# operations (regex scan, bytes.translate, table lookups, a numpy grid),
# kept verbatim as oracles: the library must give the same values, the
# same bytes and the same errors.


def oracle_parse_set(text: str):
    """parse_set with one Python step per character."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1, 1)
    m = _HEADER.match(lines[0])
    if not m:
        raise ParseError("header must be 'q=<int> rows=<int> len=<int>'", 1, 1)
    q, rows, length = (int(g) for g in m.groups())
    if q < 1 or q > 10:
        raise ParseError(f"q={q} outside [1, 10]", 1, 3)
    if rows < 1 or length < 1:
        raise ParseError("rows and len must be >= 1", 1, 1)

    note_parts: list[str] = []
    data: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            if data:
                raise ParseError("note lines must precede the data rows", lineno, 1)
            note_parts.append(raw[1:].lstrip())
            continue
        if len(raw) != length:
            raise ParseError(
                f"row must have exactly {length} characters, got {len(raw)}",
                lineno,
                min(len(raw) + 1, length + 1),
            )
        exps = []
        for col, ch in enumerate(raw, start=1):
            if not "0" <= ch <= "9":
                raise ParseError(f"bad character {ch!r}", lineno, col)
            e = int(ch)
            if e >= q:
                raise ParseError(f"exponent {e} outside [0, {q})", lineno, col)
            exps.append(e)
        data.append(tuple(exps))
    if len(data) != rows:
        raise ParseError(f"expected {rows} rows, found {len(data)}", len(lines), 1)

    cs = ComplementarySet(tuple(Sequence.from_exponents(q, r) for r in data))
    note = "\n".join(note_parts) if note_parts else None
    return cs, note


def oracle_scale(seq: Sequence, u: int) -> tuple[int, ...]:
    return tuple((e + u) % seq.q for e in seq.exponents)


def oracle_render(seq: Sequence, pretty: bool = False) -> str:
    if pretty and seq.q in (2, 4):
        glyphs = {2: "+-", 4: "+i-î"}[seq.q]
        return "".join(glyphs[e] for e in seq.exponents)
    return "".join(str(e) for e in seq.exponents)


def oracle_as_complex(seq: Sequence) -> list[complex]:
    q = seq.q
    return [cmath.exp(2j * cmath.pi * e / q) for e in seq.exponents]


def _oracle_binary_bits(seq: Sequence) -> list[int]:
    q = seq.q
    bits = []
    for e in seq.exponents:
        if e == 0:
            bits.append(0)
        elif q % 2 == 0 and e == q // 2:
            bits.append(1)
        else:
            raise InputError("turyn_product needs a (+1/-1)-valued first pair")
    return bits


def oracle_turyn_rows(
    pair_bin: ComplementarySet, pair_q: ComplementarySet
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The exponent rows of turyn_product, one m*n double loop."""
    q = pair_q.q
    a_bits = _oracle_binary_bits(pair_bin.rows[0])
    b_bits = _oracle_binary_bits(pair_bin.rows[1])
    half = q // 2
    ec, ed = pair_q.rows[0].exponents, pair_q.rows[1].exponents
    m, n = len(a_bits), len(ec)
    out1: list[int] = []
    out2: list[int] = []
    for i in range(n):
        for j in range(m):
            base = half * a_bits[j]
            if a_bits[j] == b_bits[j]:
                out1.append((ec[i] + base) % q)
                out2.append((ed[i] + base) % q)
            else:
                out1.append((-ed[n - 1 - i] + base) % q)
                out2.append((half - ec[n - 1 - i] + base) % q)
    return tuple(out1), tuple(out2)


# ---------------------------------------------------------------------------
# Pattern oracle: the nested exponent loops that cskit.reach replaced. Each
# pattern length keeps the first exponent tuple the loops reach, so for q=4
# the least u; the library factors each length instead.


def _binary_factorizations(max_len: int) -> dict[int, LengthFactorization]:
    out: dict[int, LengthFactorization] = {}
    c = 0
    while 26**c <= max_len:
        b = 0
        while 26**c * 10**b <= max_len:
            a = 0
            while (length := 2**a * 10**b * 26**c) <= max_len:
                out.setdefault(length, LengthFactorization(2, (a, b, c)))
                a += 1
            b += 1
        c += 1
    return out


def _quaternary_factorizations(max_len: int) -> dict[int, LengthFactorization]:
    out: dict[int, LengthFactorization] = {}
    z = 0
    while 13**z <= max_len:
        e = 0
        while 13**z * 11**e <= max_len:
            c = 0
            while 13**z * 11**e * 5**c <= max_len:
                b = 0
                while (odd := 3**b * 5**c * 11**e * 13**z) <= max_len:
                    u = 0
                    while u <= c + z and odd * 2**u <= max_len:
                        a = 0
                        while (length := odd * 2 ** (a + u)) <= max_len:
                            if b + c + e + z <= a + 2 * u + 1:
                                out.setdefault(
                                    length, LengthFactorization(4, (a, b, c, e, z, u))
                                )
                            a += 1
                        u += 1
                    b += 1
                c += 1
            e += 1
        z += 1
    return out


def oracle_pattern_factorizations(q: int, max_len: int) -> dict[int, LengthFactorization]:
    """Every pattern length <= max_len with its witness, q in {2, 4}."""
    return (_binary_factorizations if q == 2 else _quaternary_factorizations)(max_len)


def oracle_gcp_lengths(q: int, max_len: int) -> list[int]:
    return sorted(oracle_pattern_factorizations(q, max_len))


# ---------------------------------------------------------------------------
# Reachability oracle: the candidate-list enumeration that cskit.reach
# replaced. It lists every (operands, constructive, kind) candidate per
# length and picks one; the library keeps one witness per length instead.

Candidate = tuple[tuple[int, ...], bool, str]


def cs4_candidates(q: int, max_len: int) -> dict[int, list[Candidate]]:
    """Every pair-sum M+N (M <= N) of two pattern lengths, per length."""
    pattern = oracle_gcp_lengths(q, max_len)
    feasible = {m: composition(q, m) is not None for m in pattern}
    by_length: dict[int, list[Candidate]] = {}
    for i, m in enumerate(pattern):
        for n in pattern[i:]:
            total = m + n
            if total > max_len:
                break
            by_length.setdefault(total, []).append(
                ((m, n), feasible[m] and feasible[n], "pair-sum")
            )
    return by_length


def cs8_candidates(q: int, max_len: int) -> dict[int, list[Candidate]]:
    """Every stack and every M+P (pattern M, size-4 length P), per length."""
    pattern = oracle_gcp_lengths(q, max_len)
    feasible = {m: composition(q, m) is not None for m in pattern}
    by_length: dict[int, list[Candidate]] = {}
    for entry in oracle_reachable_lengths(q, 4, max_len).entries:
        by_length.setdefault(entry.length, []).append(
            ((entry.length,), entry.constructive, "stack")
        )
        for m in pattern:
            total = m + entry.length
            if total > max_len:
                break
            by_length.setdefault(total, []).append(
                ((m, entry.length), feasible[m] and entry.constructive, "pair-plus-set4")
            )
    return by_length


def _pick(candidates: list[Candidate]) -> tuple[Derivation, bool]:
    """Prefer a constructive witness; ties break on smallest operands."""
    constructive = [c for c in candidates if c[1]]
    pool = constructive or candidates
    operands, is_con, kind = min(pool)
    return Derivation(kind, operands), is_con


def oracle_reachable_lengths(q: int, set_size: int, max_len: int) -> ReachabilitySet:
    """The ReachabilitySet that picks from the full candidate lists."""
    by_length = (cs4_candidates if set_size == 4 else cs8_candidates)(q, max_len)
    entries = []
    for length in sorted(by_length):
        witness, constructive = _pick(by_length[length])
        entries.append(LengthEntry(length, witness, constructive))
    return ReachabilitySet(q, set_size, max_len, tuple(entries))


# ---------------------------------------------------------------------------
# The CLI parser as built before it read the terminal width once: argparse's
# defaults read it for every help formatter and derive each subparsers' prog
# from a formatted usage line. `cli.build_parser` must print the same help
# and usage errors.


def oracle_build_parser() -> argparse.ArgumentParser:
    """`cli.build_parser` as argparse builds it by default."""
    parser = cli._Parser(
        prog="cskit",
        description="Construct, verify, search, and enumerate complementary sequence sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="decide whether a set file is complementary")
    p.add_argument("file")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("theorem1", help="size-4 set from two pairs (lengths M and N)")
    p.add_argument("--pair-a", required=True)
    p.add_argument("--pair-b", required=True)
    p.add_argument("--coeffs", required=True, metavar="x0,x1,y0,y1",
                   help="comma-separated; give a list that starts with - as --coeffs=<list>")
    p.add_argument("--complex", action="store_true",
                   help="coefficients as literals 1,-1,i,-i instead of exponents")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cli.cmd_concatenate, inputs=["pair_a", "pair_b"], record=cli.Coeffs4,
                   build=cli.cs4_from_pairs, rows=4)

    p = sub.add_parser("theorem2", help="size-8 set from a pair and a size-4 set")
    p.add_argument("--pair", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--coeffs", required=True, metavar="x0,x1,x2,x3,y0,y1",
                   help="comma-separated; give a list that starts with - as --coeffs=<list>")
    p.add_argument("--complex", action="store_true",
                   help="coefficients as literals 1,-1,i,-i instead of exponents")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cli.cmd_concatenate, inputs=["pair", "set"], record=cli.Coeffs8,
                   build=cli.cs8_from_pair_and_set, rows=8)

    p = sub.add_parser("stack", help="vertically concatenate verified sets")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cli.cmd_stack)

    p = sub.add_parser("gcp", help="compose a pair of a given length from seeds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(func=cli.cmd_gcp)

    p = sub.add_parser("enumerate", help="reachable set lengths with witnesses")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--size", type=int, choices=[4, 8], required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--table1", action="store_true",
                   help="diff against the embedded reference rows")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_enumerate)

    p = sub.add_parser("search", help="exhaustive set search, canonicalized")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--limit", type=int)
    p.add_argument("--work-bound", type=int, default=cli.DEFAULT_WORK_BOUND)
    p.set_defaults(func=cli.cmd_search)

    p = sub.add_parser("papr", help="per-row peak-to-average power ratio")
    p.add_argument("file")
    p.add_argument("--oversample", type=int, default=cli.DEFAULT_OVERSAMPLE)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_papr)

    p = sub.add_parser("seeds", help="seed database views")
    seeds_sub = p.add_subparsers(dest="seeds_command", required=True)
    pl = seeds_sub.add_parser("list", help="list the packaged seed pairs")
    pl.add_argument("--q", type=int)
    pl.set_defaults(func=cli.cmd_seeds)

    p = sub.add_parser("selftest", help="verify every packaged data file")
    p.set_defaults(func=cli.cmd_selftest)

    return parser


# ---------------------------------------------------------------------------
# Pair composition as it was before `reach.composition` planned it as a tree:
# exponent-tuple plans, replayed by loops that build the derivation chain
# string beside the pair. `gcp_for_length` must give the same chain and the
# same pair.

ORACLE_QUATERNARY_KERNELS = (13, 11, 5, 3, 2, 1)


def oracle_binary_composition_plan(length: int) -> Optional[tuple[int, int, int]]:
    """(doublings, factors of 10, factors of 26) realizing a binary length."""
    fact = in_gcp_pattern(2, length)
    return None if fact is None else fact.exponents


def oracle_quaternary_composition_plan(
    length: int,
) -> Optional[tuple[int, tuple[int, int, int]]]:
    """(seed kernel K, binary plan for length/K) realizing a quaternary length."""
    if length < 1:
        return None
    for kernel in ORACLE_QUATERNARY_KERNELS:
        if length % kernel == 0:
            plan = oracle_binary_composition_plan(length // kernel)
            if plan is not None:
                return kernel, plan
    return None


def _oracle_build_binary(plan: tuple[int, int, int]) -> tuple[ComplementarySet, str]:
    doublings, tens, twentysixes = plan
    pair = None
    chain = ""
    for count, ln in ((twentysixes, 26), (tens, 10)):
        for _ in range(count):
            record = seed_pair(2, ln)
            if pair is None:
                pair, chain = record.pair, f"seed(q=2, len={ln})"
            else:
                pair = turyn_product(record.pair, pair)
                chain = f"turyn(seed(q=2, len={ln}), {chain})"
    if pair is None:
        if doublings == 0:
            return seed_pair(2, 1).pair, "seed(q=2, len=1)"
        pair, chain = seed_pair(2, 2).pair, "seed(q=2, len=2)"
        doublings -= 1
    for _ in range(doublings):
        pair = golay_double(pair)
        chain = f"double({chain})"
    return pair, chain


def oracle_gcp(q: int, length: int) -> Optional[tuple[ComplementarySet, str]]:
    """(pair, derivation chain) of one length, or None when no plan reaches it."""
    if q == 2:
        plan = oracle_binary_composition_plan(length)
        return None if plan is None else _oracle_build_binary(plan)
    qplan = oracle_quaternary_composition_plan(length)
    if qplan is None:
        return None
    kernel, bplan = qplan
    record = seed_pair(4, kernel)
    if length == kernel:
        return record.pair, f"seed(q=4, len={kernel})"
    bpair, bchain = _oracle_build_binary(bplan)
    return turyn_product(bpair, record.pair), f"turyn({bchain}, seed(q=4, len={kernel}))"
