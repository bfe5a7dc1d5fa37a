"""Complementary-set constructors.

One concatenation rule gives sets of size 4 and 8. It joins a pair
(a_0, a_1) of length M to a second input r of 2m rows: a pair of length N
(m = 1: size 4, length M+N) or a size-4 set of length P (m = 2: size 8,
length M+P). Row 2i+j is x_i*a_j || y_{i//m}*r_{2(i mod m)+j} (i < 2m,
j < 2) for unimodular x_0 .. x_{2m-1}, y_0, y_1 with
x_i*conj(y_0) + x_{i+m}*conj(y_1) = 0 for each i < m. Together with
vertical stacking this reaches set sizes 4n and 8n. The classical Golay
doubling and Turyn product supply composite-length pairs from primitive
seeds.

Every constructor checks its own inputs, verified or not. It first checks
every fact the rows' shapes give (row counts, alphabets, lengths,
coefficients), with no correlation; then one exact pass over the inputs
not yet verified and the built set, sharing one row -> profile memo,
decides complementarity. A bad input raises InputError; a returned set is
always verified.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence as Seq

import numpy as np

from .algebra import Sequence
from .errors import InputError
from .verify import ComplementarySet, ensure_verified_all


def _require_pair(pair: ComplementarySet, name: str) -> None:
    if pair.size != 2:
        raise InputError(f"{name} must have exactly 2 rows, got {pair.size}")


def _recheck(rows: tuple[Sequence, ...], what: str, *inputs: ComplementarySet
             ) -> ComplementarySet:
    """The built set, verified in one pass with the inputs not yet verified:
    InputError for a bad input, RuntimeError if the output fails."""
    profiles: dict = {}
    ensure_verified_all(inputs, profiles)
    try:
        return ensure_verified_all((ComplementarySet(rows),), profiles)[0]
    except InputError as exc:
        # The inputs are complementary, so a defect here is a bug, not bad input.
        raise RuntimeError(f"internal error: {what} failed verification ({exc})") from None


def _reduced(coeffs, q: int):
    """The same coefficients, each exponent reduced mod q."""
    return type(coeffs)(*(v % q for v in coeffs))


def _violations(coeffs, q: int) -> list[str]:
    """A message for each identity x_i*conj(y0) + x_{i+m}*conj(y1) = 0,
    i < m, that the coefficients (x_0 .. x_{2m-1}, y0, y1) miss: with an
    even q it holds when (x_i - y0) == (x_{i+m} - y1) + q/2 (mod q)."""
    if q % 2:  # every identity needs -1 in U_q
        needs = ("x0*conj(y0) + x1*conj(y1) = 0 needs" if len(coeffs) == 4
                 else "the defining identities need")
        return [f"q={q} is odd, but {needs} -1 in U_q"]
    *x, y0, y1 = coeffs.reduced(q)
    m = len(x) // 2
    out = []
    for i in range(m):
        lhs, rhs = (x[i] - y0) % q, (x[i + m] - y1 + q // 2) % q
        if lhs != rhs:
            a, c = f"x{i}", f"x{i + m}"
            out.append(
                f"{a}*conj(y0) + {c}*conj(y1) != 0: "
                f"({a}-y0) mod {q} = {lhs} but ({c}-y1) + {q // 2} mod {q} = {rhs}"
            )
    return out


class Coeffs4(NamedTuple):
    """Unimodular constants (as U_q exponents) steering the size-4 rule.

    Admissible when x0*conj(y0) + x1*conj(y1) = 0, i.e. when
    (x0 - y0) == (x1 - y1) + q/2 (mod q). That needs an even q.
    Exponents are reduced mod q on use.
    """

    x0: int
    x1: int
    y0: int
    y1: int

    reduced = _reduced
    violations = _violations


class Coeffs8(NamedTuple):
    """Unimodular constants (as U_q exponents) steering the size-8 rule.

    Admissible when x0*conj(y0) + x2*conj(y1) = 0 and
    x1*conj(y0) + x3*conj(y1) = 0.
    """

    x0: int
    x1: int
    x2: int
    x3: int
    y0: int
    y1: int

    reduced = _reduced
    violations = _violations


def _concatenate(pair: ComplementarySet, r: ComplementarySet, coeffs) -> ComplementarySet:
    """The rule of the module docstring, once the row counts and alphabets
    are checked: row 2i+j is x_i*a_j || y_{i//m}*r_{2(i mod m)+j}."""
    bad = coeffs.violations(pair.q)
    if bad:
        raise InputError("inadmissible coefficients: " + "; ".join(bad))
    *x, y0, y1 = coeffs.reduced(pair.q)
    m, y = len(x) // 2, (y0, y1)
    rows = tuple(
        pair.rows[j].scale(x[i]).concat(r.rows[2 * (i % m) + j].scale(y[i // m]))
        for i in range(2 * m)
        for j in range(2)
    )
    return _recheck(rows, f"size-{len(rows)} construction", pair, r)


def cs4_from_pairs(
    pair_a: ComplementarySet, pair_b: ComplementarySet, coeffs: Coeffs4
) -> ComplementarySet:
    """Size-4 set of length M+N from Golay pairs of lengths M and N.

    Rows are x0*a||y0*c, x0*b||y0*d, x1*a||y1*c, x1*b||y1*d.
    """
    _require_pair(pair_a, "pair_a")
    _require_pair(pair_b, "pair_b")
    if pair_a.q != pair_b.q:
        raise InputError("both pairs must share one alphabet")
    return _concatenate(pair_a, pair_b, coeffs)


def cs8_from_pair_and_set(
    pair: ComplementarySet, set4: ComplementarySet, coeffs: Coeffs8
) -> ComplementarySet:
    """Size-8 set of length M+P from a Golay pair and a size-4 set."""
    _require_pair(pair, "pair")
    if set4.size != 4:
        raise InputError(f"set4 must have exactly 4 rows, got {set4.size}")
    if pair.q != set4.q:
        raise InputError("pair and set4 must share one alphabet")
    return _concatenate(pair, set4, coeffs)


def stack(sets: Seq[ComplementarySet]) -> ComplementarySet:
    """Vertical concatenation: sizes add, length is unchanged."""
    if not sets:
        raise InputError("stack needs at least one set")
    first = sets[0]
    rows: list[Sequence] = []
    for cs in sets:
        if cs.q != first.q:
            raise InputError("stacked sets must share one alphabet")
        if cs.length != first.length:
            raise InputError("stacked sets must share one length")
        rows.extend(cs.rows)
    return _recheck(tuple(rows), "stack", *sets)


def golay_double(pair: ComplementarySet) -> ComplementarySet:
    """Length-doubling concatenation: (a||b, a||-b)."""
    _require_pair(pair, "pair")
    a, b = pair.rows
    rows = (a.concat(b), a.concat(b.negate()))
    return _recheck(rows, "doubling", pair)


def _binary_bits(seq: Sequence) -> np.ndarray:
    """Entries of a (+1/-1)-valued sequence as 0/1 bits, or raise."""
    e = np.array(seq.exponents)
    minus = seq.q // 2 if seq.q % 2 == 0 else 0  # the exponent of -1, if U_q has it
    if np.any((e != 0) & (e != minus)):
        raise InputError("turyn_product needs a (+1/-1)-valued first pair")
    return (e != 0).astype(np.int64)


def turyn_product(pair_bin: ComplementarySet, pair_q: ComplementarySet) -> ComplementarySet:
    """Golay pair of length M*N from a binary pair (length M) and any pair (length N).

    Writes the binary pair (A, B) as half-sum and half-difference parts,
    which have disjoint support, and interleaves the second pair (C, D)
    against them:

        out1[i*M + j] = C_i * A_j          where A_j == B_j
                      = conj(D_{N-1-i}) * A_j   elsewhere
        out2[i*M + j] = D_i * A_j          where A_j == B_j
                      = -conj(C_{N-1-i}) * A_j  elsewhere

    The first pair may live over q=2 (it is embedded into the second
    pair's alphabet) or already over the target alphabet with all entries
    in {+1, -1}.
    """
    _require_pair(pair_bin, "pair_bin")
    _require_pair(pair_q, "pair_q")
    q = pair_q.q
    if q % 2:
        raise InputError("turyn_product needs an even target alphabet")
    a_bits, b_bits = (_binary_bits(row) for row in pair_bin.rows)
    half = q // 2
    # one row of the (N, M) grid per i, broadcast against the columns j
    ec, ed = (np.array(row.exponents)[:, None] for row in pair_q.rows)
    same, base = a_bits == b_bits, half * a_bits
    grids = (np.where(same, ec, -ed[::-1]) + base, np.where(same, ed, half - ec[::-1]) + base)
    rows = tuple(Sequence(q, tuple((g % q).ravel().tolist())) for g in grids)
    return _recheck(rows, "turyn product", pair_bin, pair_q)
