"""Independent oracles and generators used by the test suite.

Everything here recomputes from first principles (floating point sums,
unpruned product enumeration, direct window sums) so the library paths
under test are checked against a second route, not against themselves.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from cskit.algebra import Alphabet, RootSum, Sequence
from cskit.construct import Coeffs4, cs4_from_pairs
from cskit.search import canonical_rows
from cskit.seeds import gcp_for_length
from cskit.verify import ComplementarySet, ensure_verified, verify


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
    root by root in pure Python. accf(a, b).values must equal it."""
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


def brute_force_cs(q: int, set_size: int, length: int) -> set:
    """Unpruned reference enumeration, canonical forms of all solutions."""
    found = set()
    free = set_size * (length - 1)
    for combo in product(range(q), repeat=free):
        rows = tuple(
            (0,) + combo[r * (length - 1) : (r + 1) * (length - 1)]
            for r in range(set_size)
        )
        cs = ComplementarySet.of(*(Sequence.from_exponents(q, r) for r in rows))
        if verify(cs).is_cs:
            found.add(canonical_rows(q, rows))
    return found


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
    return Sequence(
        seq.alphabet, tuple((e + k * t) % q for k, e in enumerate(seq.exponents))
    )


def constructive_gcp_lengths(q: int, max_len: int) -> list[int]:
    from cskit.reach import gcp_lengths, has_composition_plan

    return [m for m in gcp_lengths(q, max_len) if has_composition_plan(q, m)]


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
        a, b = a.reverse(), b.reverse()
    if rng.random() < 0.5:
        a, b = a.conjugate(), b.conjugate()
    t = rng.randrange(q)
    if t:
        a, b = modulate(a, t), modulate(b, t)
    return ensure_verified(ComplementarySet.of(a, b))


def random_admissible_coeffs4(q: int, rng) -> Coeffs4:
    x0, x1, y0 = (rng.randrange(q) for _ in range(3))
    y1 = (x1 - x0 + y0 + q // 2) % q
    return Coeffs4(x0, x1, y0, y1)


def random_admissible_coeffs8(q: int, rng):
    from cskit.construct import Coeffs8

    x0, x1, y0, y1 = (rng.randrange(q) for _ in range(4))
    x2 = (x0 - y0 + y1 + q // 2) % q
    x3 = (x1 - y0 + y1 + q // 2) % q
    return Coeffs8(x0, x1, x2, x3, y0, y1)


def random_cs4(q: int, rng, max_pair_len: int = 10) -> ComplementarySet:
    pair_a = random_gcp(q, rng, max_pair_len)
    pair_b = random_gcp(q, rng, max_pair_len)
    return cs4_from_pairs(pair_a, pair_b, random_admissible_coeffs4(q, rng))
