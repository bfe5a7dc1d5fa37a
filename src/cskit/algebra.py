"""Exact arithmetic over q-th roots of unity and aperiodic correlation.

Sequence entries are stored as integer exponents t modulo q; the entry they
represent is exp(2*pi*sqrt(-1)*t/q). Correlation values are integer
combinations of the q-th roots of unity, kept in canonical coordinates of
the ring Z[zeta_q] (reduced modulo the q-th cyclotomic polynomial), so
equality and zero tests are exact for every q. For q in {1, 2, 4} the
canonical coordinates are literally Gaussian integers.

`accf` runs one numpy kernel for every q: float64 correlations of the
entries' canonical coordinates, exact because every partial sum is an
integer of magnitude at most N * max|c|^2 < 2^53 (c over the coordinates of
the q-th roots), folded into canonical coordinates in int64. Otherwise
floating point appears only in display helpers (`to_complex`, `abs`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense lists, lowest degree first).


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact long division by a monic integer polynomial."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [0], num
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    rem = num[:dd] if dd else [0]
    return quot, rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, lowest degree first."""
    if n < 1:
        raise InputError(f"cyclotomic polynomial needs n >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            quot, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise AssertionError("cyclotomic division left a remainder")
            poly = quot
    return tuple(poly)


def _reduce_counts(q: int, counts: Iterable[int]) -> tuple[int, ...]:
    """Canonical Z[zeta_q] coordinates of sum_t counts[t] * zeta_q^t."""
    phi = cyclotomic_polynomial(q)
    deg = len(phi) - 1
    _, rem = _poly_divmod(list(counts), list(phi))
    rem = rem + [0] * (deg - len(rem))
    return tuple(rem[:deg])


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSum:
    """An element of Z[zeta_q]: an integer combination of q-th roots of unity.

    `coords` is the canonical representative modulo the q-th cyclotomic
    polynomial, so dataclass equality is algebraic equality and the zero
    test is exact. Build instances through the classmethods; `coords`
    passed directly must already be canonical.
    """

    q: int
    coords: tuple[int, ...]

    @classmethod
    def from_counts(cls, q: int, counts: Iterable[int]) -> "RootSum":
        return cls(q, _reduce_counts(q, counts))

    @classmethod
    def from_exponent(cls, q: int, t: int) -> "RootSum":
        counts = [0] * q
        counts[t % q] = 1
        return cls.from_counts(q, counts)

    @classmethod
    def from_int(cls, q: int, n: int) -> "RootSum":
        counts = [0] * q
        counts[0] = n
        return cls.from_counts(q, counts)

    @classmethod
    def zero(cls, q: int) -> "RootSum":
        return cls.from_int(q, 0)

    def _check(self, other: "RootSum") -> None:
        if self.q != other.q:
            raise InputError(f"mixed root orders: {self.q} vs {other.q}")

    def __add__(self, other: "RootSum") -> "RootSum":
        self._check(other)
        return RootSum(self.q, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RootSum") -> "RootSum":
        self._check(other)
        return RootSum(self.q, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "RootSum":
        return RootSum(self.q, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return RootSum(self.q, tuple(a * other for a in self.coords))
        self._check(other)
        return RootSum.from_counts(self.q, _poly_mul(list(self.coords), list(other.coords)))

    __rmul__ = __mul__

    def rotated(self, t: int) -> "RootSum":
        """Multiply by zeta_q^t."""
        return self * RootSum.from_exponent(self.q, t)

    def conjugate(self) -> "RootSum":
        counts = [0] * self.q
        for t, c in enumerate(self.coords):
            counts[(-t) % self.q] += c
        return RootSum.from_counts(self.q, counts)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def gaussian(self) -> tuple[int, int]:
        """Exact (real, imag) integer parts; only defined for q in {1, 2, 4}."""
        if self.q == 1:
            return self.coords[0], 0
        if self.q == 2:
            return self.coords[0], 0
        if self.q == 4:
            return self.coords[0], self.coords[1]
        raise InputError(f"no exact Gaussian form for q={self.q}")

    def to_complex(self) -> complex:
        return sum(
            (c * cmath.exp(2j * cmath.pi * t / self.q) for t, c in enumerate(self.coords) if c),
            0j,
        )

    def __abs__(self) -> float:
        return abs(self.to_complex())


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Alphabet:
    """The group U_q of q-th roots of unity; elements are exponents in [0, q)."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise InputError(f"alphabet order must be >= 1, got {self.q}")

    @property
    def half(self) -> int:
        """The exponent of -1; only exists for even q."""
        if self.q % 2:
            raise InputError(f"-1 is not a {self.q}-th root of unity")
        return self.q // 2

    def root(self, t: int) -> complex:
        return cmath.exp(2j * cmath.pi * (t % self.q) / self.q)


_SIGN_TO_EXP = {"+": 0, "-": 1}
_PRETTY = {2: "+-", 4: "+i-î"}  # exponents 0,1,2,3 over q=4 are 1, i, -1, -i


@dataclass(frozen=True)
class Sequence:
    """A length-N vector over U_q, stored as integer exponents in [0, q)."""

    alphabet: Alphabet
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) < 1:
            raise InputError("sequences must be nonempty")
        q = self.alphabet.q
        for e in self.exponents:
            if not 0 <= e < q:
                raise InputError(f"exponent {e} outside [0, {q})")

    @classmethod
    def from_exponents(cls, q: int, exponents: Iterable[int]) -> "Sequence":
        return cls(Alphabet(q), tuple(e % q for e in exponents))

    @classmethod
    def from_signs(cls, signs: str) -> "Sequence":
        """Binary shorthand: '+' is +1, '-' is -1, over q=2."""
        try:
            exps = tuple(_SIGN_TO_EXP[ch] for ch in signs)
        except KeyError as exc:
            raise InputError(f"bad sign character {exc.args[0]!r}") from None
        return cls(Alphabet(2), exps)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    @property
    def q(self) -> int:
        return self.alphabet.q

    def scale(self, u: int) -> "Sequence":
        """Multiply every entry by zeta_q^u."""
        q = self.q
        if not 0 <= u < q:
            raise InputError(f"scale exponent {u} outside [0, {q})")
        return Sequence(self.alphabet, tuple((e + u) % q for e in self.exponents))

    def negate(self) -> "Sequence":
        return self.scale(self.alphabet.half)

    def reverse(self) -> "Sequence":
        return Sequence(self.alphabet, tuple(reversed(self.exponents)))

    def conjugate(self) -> "Sequence":
        q = self.q
        return Sequence(self.alphabet, tuple((-e) % q for e in self.exponents))

    def concat(self, other: "Sequence") -> "Sequence":
        if self.alphabet != other.alphabet:
            raise InputError("concat needs a shared alphabet")
        return Sequence(self.alphabet, self.exponents + other.exponents)

    def prefix(self, m: int) -> "Sequence":
        if not 1 <= m <= len(self):
            raise InputError(f"prefix length {m} outside [1, {len(self)}]")
        return Sequence(self.alphabet, self.exponents[:m])

    def embed(self, q: int) -> "Sequence":
        """Reinterpret over a larger alphabet whose order is a multiple of q."""
        if q % self.q:
            raise InputError(f"cannot embed U_{self.q} into U_{q}")
        step = q // self.q
        return Sequence(Alphabet(q), tuple(e * step for e in self.exponents))

    def as_complex(self) -> list[complex]:
        return [self.alphabet.root(e) for e in self.exponents]

    def render(self, pretty: bool = False) -> str:
        """Digit string by default; +,-,i,î glyphs for q in {2, 4} with pretty."""
        if pretty and self.q in _PRETTY:
            glyphs = _PRETTY[self.q]
            return "".join(glyphs[e] for e in self.exponents)
        if self.q > 10:
            raise InputError("digit rendering needs q <= 10")
        return "".join(str(e) for e in self.exponents)


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _kernel_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of zeta_q^d in column d (float64), and of zeta_q^(i+l) in
    row i*phi(q) + l (int64)."""
    ring = np.array([RootSum.from_exponent(q, d).coords for d in range(q)], dtype=np.int64)
    phi = ring.shape[1]
    return ring.T.astype(np.float64), ring[np.add.outer(np.arange(phi), np.arange(phi)).ravel() % q]


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """Correlation values over shifts tau in [-(N-1), N-1].

    `coords` is a (2N-1) x phi(q) int64 array; row tau + N - 1 holds the
    canonical Z[zeta_q] coordinates of the value at shift tau, so equality
    and zero tests on it are exact.
    """

    q: int
    length_n: int
    coords: np.ndarray

    def at(self, tau: int) -> RootSum:
        n = self.length_n
        if not -n < tau < n:
            raise InputError(f"shift {tau} outside [-(N-1), N-1] for N={n}")
        return RootSum(self.q, tuple(self.coords[tau + n - 1].tolist()))

    @property
    def peak(self) -> RootSum:
        return self.at(0)

    def shifts(self) -> range:
        n = self.length_n
        return range(-(n - 1), n)

    @property
    def values(self) -> tuple[RootSum, ...]:
        return tuple(RootSum(self.q, tuple(row)) for row in self.coords.tolist())

    def nonzero_shifts(self) -> list[int]:
        """The shifts whose value is not exactly zero, in increasing order."""
        return (np.flatnonzero(self.coords.any(axis=1)) - (self.length_n - 1)).tolist()

    def __add__(self, other: "CorrelationProfile") -> "CorrelationProfile":
        if (self.q, self.length_n) != (other.q, other.length_n):
            raise InputError("cannot add profiles of different root orders or lengths")
        return CorrelationProfile(self.q, self.length_n, self.coords + other.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorrelationProfile):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.coords, other.coords)


def accf(a: Sequence, b: Sequence) -> CorrelationProfile:
    """Aperiodic cross-correlation of two equal-length sequences.

    For 0 <= tau <= N-1 the value is sum_k a_k * conj(b_{k+tau}); negative
    shifts use the mirrored sum, which makes accf(a,b)[tau] the conjugate of
    accf(b,a)[-tau] for every tau.

    The value is the sum over i, l < phi(q) of C_il[tau] * zeta_q^(i+l),
    where C_il correlates coordinate l of conj(b) with coordinate i of a;
    the module docstring bounds these float64 correlations below 2^53.
    """
    if a.alphabet != b.alphabet:
        raise InputError("correlation needs a shared alphabet")
    if len(a) != len(b):
        raise InputError(f"correlation needs equal lengths, got {len(a)} and {len(b)}")
    q = a.q
    n = len(a)
    roots, fold = _kernel_tables(q)
    phi = roots.shape[0]
    ca = roots[:, a.exponents]
    cb = roots[:, [-e % q for e in b.exponents]]
    corr = np.empty((2 * n - 1, phi * phi))
    for i in range(phi):
        for l in range(phi):
            corr[:, i * phi + l] = np.correlate(cb[l], ca[i], "full")
    return CorrelationProfile(q, n, corr.astype(np.int64) @ fold)


def aacf(a: Sequence) -> CorrelationProfile:
    """Aperiodic autocorrelation: accf of a sequence with itself."""
    return accf(a, a)
