"""Exact values over q-th roots of unity and aperiodic correlation.

A `Sequence` holds its root order q in [1, MAX_Q] and integer exponents t
in [0, q); the entry t represents is exp(2*pi*sqrt(-1)*t/q). MAX_Q = 10, the
one alphabet range of the package, lets the text format write each entry as
one digit; `check_alphabet` refuses every other q. The maps (`scale`,
`render`, `as_complex`) look every entry up in a q-entry table in C
(`bytes.translate` or `map`). Correlation values are integer combinations of
the q-th roots of unity, kept in canonical coordinates of the ring Z[zeta_q]
(reduced modulo the q-th cyclotomic polynomial), so equality and zero tests
are exact. For q in {1, 2, 4} the canonical coordinates are literally
Gaussian integers. A `RootSum` holds one such value for comparison and
display; it has no arithmetic.

`accf` correlates each row pair with numpy, on one of two exact embeddings
that its cached table picks once per q (`aacf` gathers its row once):
- q in {1, 2, 4}: the entries themselves, +-1 in float64 or 1, i, -1, -i
  in complex128, in one `np.correlate`. Every product of two entries is
  +-1 or +-i, so every real and imaginary partial sum is an integer of
  magnitude at most N < 2^53 (set files are capped at 2^16), summed directly
  (no FFT); the real and imaginary parts are the canonical coordinates,
  read into int64.
- every other q: the entries' canonical coordinates, phi(q)^2 float64
  correlations whose partial sums are integers of magnitude at most
  N * max|c|^2 < 2^53 (c over the coordinates of the q-th roots), folded
  into canonical coordinates in int64.
No epsilon or rounding decides anything. Otherwise floating point appears
only in display helpers (`to_complex`, `abs`, `as_complex`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError

MAX_Q = 10  # the largest alphabet order (the module notes)


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense lists, lowest degree first).


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


# not a NamedTuple: tuple + would silently concatenate two ring elements
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
        return cls.from_counts(q, [int(d == t % q) for d in range(q)])

    def to_complex(self) -> complex:
        if self.q in (1, 2, 4):  # the coordinates are the real and imaginary parts
            return complex(*self.coords)
        return sum(
            (c * cmath.exp(2j * cmath.pi * t / self.q) for t, c in enumerate(self.coords) if c),
            0j,
        )

    def __abs__(self) -> float:
        return abs(self.to_complex())


# ---------------------------------------------------------------------------


def check_alphabet(q: int) -> None:
    """Raise InputError unless q is an alphabet order in [1, MAX_Q]."""
    if not 1 <= q <= MAX_Q:
        raise InputError(f"alphabet order must be in [1, {MAX_Q}], got {q}")


_PRETTY = {2: "+-", 4: "+i-î"}  # exponents 0,1,2,3 over q=4 are 1, i, -1, -i
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


# not a NamedTuple: tuple copy and pickle would run its __iter__ over the exponents
@dataclass(frozen=True)
class Sequence:
    """A length-N vector over U_q, stored as integer exponents in [0, q)."""

    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        q = self.q
        check_alphabet(q)
        if len(self.exponents) < 1:
            raise InputError("sequences must be nonempty")
        distinct = set(self.exponents)  # at most q values left for min and max
        if min(distinct) < 0 or max(distinct) >= q:
            bad = next(e for e in self.exponents if not 0 <= e < q)
            raise InputError(f"exponent {bad} outside [0, {q})")

    @classmethod
    def from_exponents(cls, q: int, exponents: Iterable[int]) -> "Sequence":
        # q < 1 reaches the check in __post_init__ instead of a modulo by zero
        return cls(q, tuple(e % q for e in exponents) if q >= 1 else ())

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def scale(self, u: int) -> "Sequence":
        """Multiply every entry by zeta_q^u."""
        q = self.q
        if not 0 <= u < q:
            raise InputError(f"scale exponent {u} outside [0, {q})")
        table = [*range(u, q), *range(u)]  # entry e holds (e + u) % q
        return Sequence(q, tuple(bytes(self.exponents).translate(bytes(table).ljust(256))))

    def negate(self) -> "Sequence":
        if self.q % 2:
            raise InputError(f"-1 is not a root of unity for q={self.q}")
        return self.scale(self.q // 2)

    def concat(self, other: "Sequence") -> "Sequence":
        if self.q != other.q:
            raise InputError("concat needs a shared alphabet")
        return Sequence(self.q, self.exponents + other.exponents)

    def as_complex(self) -> list[complex]:
        roots = [cmath.exp(2j * cmath.pi * t / self.q) for t in range(self.q)]
        return list(map(roots.__getitem__, self.exponents))

    def render(self, pretty: bool = False) -> str:
        """Digit string by default; +,-,i,î glyphs for q in {2, 4} with pretty."""
        if pretty and self.q in _PRETTY:
            return "".join(map(_PRETTY[self.q].__getitem__, self.exponents))
        return bytes(self.exponents).translate(_DIGITS).decode("ascii")


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def root_coords(q: int) -> np.ndarray:
    """Canonical coordinates of zeta_q^d in row d: a read-only q x phi(q)
    int64 array, built once per q."""
    ring = np.array([RootSum.from_exponent(q, d).coords for d in range(q)], dtype=np.int64)
    ring.flags.writeable = False
    return ring


@lru_cache(maxsize=None)
def _kernel_tables(q: int) -> tuple[np.ndarray, np.ndarray | None]:
    """For q in {1, 2, 4}: conj(zeta_q^d) at index d (float64, or complex128
    for q = 4) and no fold. Otherwise: coordinates of zeta_q^d in column d
    (float64), and of zeta_q^(i+l) in row i*phi(q) + l (int64)."""
    ring = root_coords(q)
    if q in (1, 2, 4):  # the coordinates are the real and imaginary parts
        return (ring[:, 0] - 1j * ring[:, 1] if q == 4 else ring[:, 0].astype(np.float64)), None
    phi = ring.shape[1]
    return ring.T.astype(np.float64), ring[np.add.outer(np.arange(phi), np.arange(phi)).ravel() % q]


# not a NamedTuple: __eq__ and __add__ act on the ndarray
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

    For q in {1, 2, 4} the value is one correlation of the entries, as
    Gaussian integers: each partial sum's real and imaginary parts are
    integers of magnitude at most N < 2^53, and they are the canonical
    coordinates. For every other q it is the sum over i, l < phi(q) of
    C_il[tau] * zeta_q^(i+l), where C_il correlates coordinate l of conj(b)
    with coordinate i of a; the module docstring bounds these float64
    correlations below 2^53.
    """
    if a.q != b.q:
        raise InputError("correlation needs a shared alphabet")
    if len(a) != len(b):
        raise InputError(f"correlation needs equal lengths, got {len(a)} and {len(b)}")
    q = a.q
    n = len(a)
    roots, fold = _kernel_tables(q)
    if fold is None:  # conj(b) against conj(a); np.correlate conjugates its second argument
        conj_a = roots[np.frombuffer(bytes(a.exponents), dtype=np.uint8)]
        conj_b = conj_a if b is a else roots[np.frombuffer(bytes(b.exponents), dtype=np.uint8)]
        corr = np.correlate(conj_b, conj_a, "full").view(np.float64)  # (re, im) pairs for q = 4
        return CorrelationProfile(q, n, corr.reshape(2 * n - 1, -1).astype(np.int64))
    phi = roots.shape[0]
    ia = np.array(a.exponents, dtype=np.intp)
    ca = roots[:, ia]
    cb = roots[:, -(ia if b is a else np.array(b.exponents, dtype=np.intp)) % q]
    corr = np.empty((2 * n - 1, phi * phi))
    for i in range(phi):
        for l in range(phi):
            corr[:, i * phi + l] = np.correlate(cb[l], ca[i], "full")
    return CorrelationProfile(q, n, corr.astype(np.int64) @ fold)


def aacf(a: Sequence) -> CorrelationProfile:
    """Aperiodic autocorrelation: accf of a sequence with itself."""
    return accf(a, a)
