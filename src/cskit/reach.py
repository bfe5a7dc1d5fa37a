"""Enumerate the sequence lengths the constructions can reach.

Golay pairs are known to exist at lengths 2^a * 10^b * 26^c for the
binary alphabet, and at 2^(a+u) * 3^b * 5^c * 11^e * 13^z with
b+c+e+z <= a+2u+1 and u <= c+z for the quaternary one. Size-4 sets then
live at every sum M+N of two pair lengths, and size-8 sets at every sum
M+P of a pair length and a size-4 length (or by stacking two size-4 sets
of equal length).

The pattern is decided once, in `in_gcp_pattern`, which factors one length
over the pattern's primes ({2, 5, 13} for q=2, {2, 3, 5, 11, 13} for q=4)
and checks the exponents; `gcp_lengths` lists every product of those primes
up to the maximum and keeps the ones it accepts. Its text is written once
too, in `_PATTERN_FORMS`: `LengthFactorization.describe` and `pattern_form`
(the reason `seeds.gcp_for_length` gives off the pattern) render it.

Existence of a pattern length does not imply this toolkit can emit a
pair: the shipped compositions only multiply a binary-pattern length
into a single primitive seed. `composition` plans that product once, as
a tree of seed, doubling and Turyn steps that `seeds.gcp_for_length`
replays, and is the only plan test: each enumerated length is labeled
constructive or existence-only by whether it has a plan, independently
of the abstract pattern.

One witness is kept per length. It comes from the constructive
candidates when there are any, else from all of them, and is the least
operand tuple there: the least M, and a stack only when no M+P is in that
pool. Each pass over the pattern lengths M, in ascending order, marks by
one shifted bitmask the lengths M + (partner) still without a witness and
keeps only their M, in a list indexed by length, so no candidate list is
built. The size-8 pass reads its partners from the size-4 pass's masks, and
each entry is built once, in length order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import InputError

# the primitive pairs shipped as seed files, largest first (the order the
# quaternary kernels are tried in)
SEED_LENGTHS = {2: (26, 10, 2, 1), 4: (13, 11, 5, 3, 2, 1)}
_PATTERN_PRIMES = {2: (2, 5, 13), 4: (2, 3, 5, 11, 13)}
# the pattern as text: the names of a LengthFactorization's exponents in
# order, the product over them, and the rule they obey beyond being >= 0
_PATTERN_FORMS = {
    2: ("abc", "2^{a} * 10^{b} * 26^{c}", ""),
    4: ("abcezu", "2^({a}+{u}) * 3^{b} * 5^{c} * 11^{e} * 13^{z}",
        " with b+c+e+z <= a+2u+1 and u <= c+z"),
}


class LengthFactorization(NamedTuple):
    """Pattern witness: (a, b, c) for q=2, (a, b, c, e, z, u) for q=4."""

    q: int
    exponents: tuple[int, ...]

    def describe(self) -> str:
        names, product, _ = _PATTERN_FORMS[self.q]
        return product.format(**dict(zip(names, self.exponents)))


def pattern_form(q: int) -> str:
    """The pattern with letters for its exponents: the product, then any rule."""
    names, product, rule = _PATTERN_FORMS[q]
    return product.format(**{name: name for name in names}) + rule


def require_pair_data(q: int, what: str) -> None:
    """Refuse an alphabet with no shipped pairs, naming the data asked for."""
    if q not in SEED_LENGTHS:
        supported = ", ".join(map(str, sorted(SEED_LENGTHS)))
        raise InputError(f"no {what} for q={q} (supported: {supported})")


def gcp_lengths(q: int, max_len: int) -> list[int]:
    """All pattern lengths <= max_len, sorted."""
    if max_len < 1:
        raise InputError("max length must be >= 1")
    require_pair_data(q, "pattern data")
    smooth = [1]
    for prime in _PATTERN_PRIMES[q]:
        for n in smooth[:]:
            while (n := n * prime) <= max_len:
                smooth.append(n)
    return sorted(n for n in smooth if in_gcp_pattern(q, n))


def _valuation(n: int, p: int) -> tuple[int, int]:
    """(t, n / p^t) for the largest power p^t dividing n."""
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t, n


def in_gcp_pattern(q: int, length: int) -> Optional[LengthFactorization]:
    """The pattern witness of one length, found by factoring the length."""
    require_pair_data(q, "pattern data")  # whatever the length
    if length < 1:
        return None
    exps = []
    for prime in _PATTERN_PRIMES[q]:
        t, length = _valuation(length, prime)
        exps.append(t)
    if length != 1:
        return None
    if q == 2:
        twos, b, c = exps
        return LengthFactorization(2, (twos - b - c, b, c)) if twos >= b + c else None
    twos, b, c, e, z = exps
    # the least u that passes: twos = a + u, b+c+e+z <= a+2u+1, u <= c+z
    u = max(0, b + c + e + z - twos - 1)
    if u > min(c + z, twos):
        return None
    return LengthFactorization(4, (twos - u, b, c, e, z, u))


class Composition(NamedTuple):
    """One step of a Golay-pair composition and the steps it takes as input."""

    op: str  # "seed", "double" (of parts[0]) or "turyn" (parts[0] binary, parts[1])
    q: int
    length: int
    parts: tuple[Composition, ...] = ()

    def describe(self) -> str:
        if self.op == "seed":
            return f"seed(q={self.q}, len={self.length})"
        return f"{self.op}({', '.join(part.describe() for part in self.parts)})"


def composition(q: int, length: int) -> Optional[Composition]:
    """The composition of a pair of one length from the shipped seeds, or None.

    A binary length 2^a * 10^b * 26^c is a Turyn chain over the seeds 26
    (c times) and then 10 (b times), doubled a times; with no chain the
    doublings start from the seed 2, or the length is the seed 1. A
    quaternary length is such a binary length times the largest primitive
    seed K that leaves one, so larger odd parts (9, 33, ...) stay out of
    reach even when the existence pattern admits them.
    """
    require_pair_data(q, "composition data")
    if q == 4:
        for kernel in SEED_LENGTHS[4]:
            chain = composition(2, length // kernel) if length % kernel == 0 else None
            if chain is not None:
                seed = Composition("seed", 4, kernel)
                return seed if length == kernel else Composition("turyn", 4, length, (chain, seed))
        return None
    fact = in_gcp_pattern(2, length)
    if fact is None:
        return None
    doublings, tens, twentysixes = fact.exponents
    node = None
    for kernel in (26,) * twentysixes + (10,) * tens:
        seed = Composition("seed", 2, kernel)
        node = seed if node is None else Composition("turyn", 2, kernel * node.length, (seed, node))
    if node is None:
        if doublings == 0:
            return Composition("seed", 2, 1)
        node, doublings = Composition("seed", 2, 2), doublings - 1
    for _ in range(doublings):
        node = Composition("double", 2, 2 * node.length, (node,))
    return node


# ---------------------------------------------------------------------------


class Derivation(NamedTuple):
    """How a set length arises: kind and operand lengths."""

    kind: str  # "pair-sum" (M+N), "pair-plus-set4" (M+P), or "stack"
    operands: tuple[int, ...]

    def describe(self) -> str:
        if self.kind == "pair-sum":
            return f"M+N = {self.operands[0]}+{self.operands[1]}"
        if self.kind == "pair-plus-set4":
            return f"M+P = {self.operands[0]}+{self.operands[1]}"
        return f"stack of two size-4 sets of length {self.operands[0]}"


class LengthEntry(NamedTuple):
    length: int
    witness: Derivation
    constructive: bool


class ReachabilitySet(NamedTuple):
    q: int
    set_size: int
    max_length: int
    entries: tuple[LengthEntry, ...]

    def lengths(self) -> list[int]:
        return [e.length for e in self.entries]


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]
    pos = digits.find("1")
    while pos >= 0:
        yield pos
        pos = digits.find("1", pos + 1)


def _mask(lengths) -> int:
    out = 0
    for length in lengths:
        out |= 1 << length
    return out


def _take(first: list, untaken: int, new: int, m: int) -> int:
    """Witness every length in the mask new by first operand m (0 for a stack)."""
    for length in _bits(new):
        first[length] = m
    return untaken ^ new


def _entries(first: list, reached: list[int], kind: str):
    """One entry per length in reached[1], ascending; those in reached[0] are constructive."""
    constructive = bin(reached[0])[:1:-1]
    for length in _bits(reached[1]):
        m = first[length]
        witness = Derivation(kind, (m, length - m)) if m else Derivation("stack", (length,))
        yield LengthEntry(length, witness, constructive[length:length + 1] == "1")


def _pools(q: int, max_len: int) -> tuple[list[int], list[int]]:
    """(the pattern lengths with a composition, all pattern lengths) up to max_len."""
    pattern = gcp_lengths(q, max_len)
    return [m for m in pattern if composition(q, m) is not None], pattern


def _pass(max_len: int, pools, partners: list[int], stacks: bool) -> tuple[list, list[int]]:
    """The least M of each length M + (a partner), and the masks of the lengths
    reached once each pool is done. With stacks, a partner L left over is a stack."""
    first = [0] * (max_len + 1)
    full = untaken = (1 << (max_len + 1)) - 1
    reached = []
    for pool, mask in zip(pools, partners):
        # with a pool as its own partners (size 4), M+N with N < M was taken at N
        for m in pool:
            untaken = _take(first, untaken, (mask << m) & untaken, m)
        if stacks:  # a stack (L,) sorts after every (M, P), so it only fills what is left
            untaken = _take(first, untaken, mask & untaken, 0)
        reached.append(full ^ untaken)
    return first, reached


def reachable_lengths(q: int, set_size: int, max_len: int) -> ReachabilitySet:
    """Reachable lengths of one set size: M+N of two pattern lengths M <= N
    for size 4; M+P of a pattern length and a size-4 length, or a stack,
    for size 8."""
    if set_size not in (4, 8):
        raise InputError(f"enumeration covers set sizes 4 and 8, got {set_size}")
    pools = _pools(q, max_len)
    first, reached = _pass(max_len, pools, [_mask(pool) for pool in pools], False)
    if set_size == 8:
        first, reached = _pass(max_len, pools, reached, True)
    kind = "pair-sum" if set_size == 4 else "pair-plus-set4"
    return ReachabilitySet(q, set_size, max_len, tuple(_entries(first, reached, kind)))


# ---------------------------------------------------------------------------
# Reference rows (lengths up to 34) used by the `enumerate --table1` check.

PUBLISHED_ROWS: dict[tuple[int, int], frozenset[int]] = {
    (2, 4): frozenset(
        {3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 16, 17, 18, 20, 21, 22, 24, 26, 27, 28, 30, 33, 34}
    ),
    (4, 4): frozenset(range(3, 35)),
    (2, 8): frozenset(range(3, 35)),
    (4, 8): frozenset(range(3, 35)),
}

PUBLISHED_MAX_LENGTH = 34


def published_row_diff(q: int, set_size: int, max_len: int) -> tuple[set[int], set[int]]:
    """(extras, missing) of the computed set against the reference row.

    The comparison window is capped at the reference row's own maximum
    length. Known extras: the computed sets legitimately contain lengths
    the reference rows omit (2 everywhere, and 32 for the binary size-4
    row), since those are sums of admissible pair lengths too.
    """
    key = (q, set_size)
    if key not in PUBLISHED_ROWS:
        raise InputError(f"no reference row for q={q}, size={set_size}")
    cap = min(max_len, PUBLISHED_MAX_LENGTH)
    computed = {length for length in reachable_lengths(q, set_size, cap).lengths()}
    published = {length for length in PUBLISHED_ROWS[key] if length <= cap}
    return computed - published, published - computed
