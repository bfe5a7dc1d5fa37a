"""Output checks: recorded digests and an independent numpy oracle.

A call's output is its exit code, its standard output and the set file it
writes. Exact outputs (set files, derivation lines, search results,
enumeration tables) are compared through a SHA-256 digest. Outputs with
floating-point fields (`verify`, `papr`) are split into a text skeleton,
compared exactly, and the list of numbers in it, compared with the
tolerance |actual - expected| <= FLOAT_TOL * max(1, |expected|).

The oracle decides complementarity from the set text alone with numpy
integer arithmetic; it shares no code with cskit.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

FLOAT_TOL = 1e-6
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_HEADER = re.compile(r"^q=(\d+) rows=(\d+) len=(\d+)$")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def digest(check: str, code: int, stdout: str, written: str | None):
    """What is recorded for one call: exact digest or skeleton plus numbers."""
    if check == "exact":
        return f"{code}:{_sha(stdout + chr(0) + (written or ''))}"
    numbers = [round(float(x), 9) + 0.0 for x in _NUMBER.findall(stdout)]
    runs: list[list] = []
    for x in numbers:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return [code, _sha(_NUMBER.sub("#", stdout)), runs]


def matches(expected, actual) -> bool:
    """True when a digest taken now agrees with the recorded one."""
    if isinstance(expected, str) or isinstance(actual, str):
        return expected == actual
    if expected[:2] != actual[:2]:
        return False
    want = [x for x, n in expected[2] for _ in range(n)]
    got = [x for x, n in actual[2] for _ in range(n)]
    return len(want) == len(got) and all(
        abs(g - w) <= FLOAT_TOL * max(1.0, abs(w)) for g, w in zip(got, want))


# ---------------------------------------------------------------------------
# Oracle


def parse_sets(text: str) -> list[tuple[int, np.ndarray]]:
    """Every set in a text of concatenated set files, as (q, rows x len exponents)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    out, i = [], 0
    while i < len(lines):
        m = _HEADER.match(lines[i])
        if not m:
            raise ValueError(f"bad set header {lines[i]!r}")
        q, rows, length = (int(g) for g in m.groups())
        body = lines[i + 1:i + 1 + rows]
        if len(body) != rows or any(len(r) != length or not r.isdigit() for r in body):
            raise ValueError("bad set body")
        exps = np.array([[int(c) for c in r] for r in body], dtype=np.int64)
        if exps.max() >= q:
            raise ValueError("exponent outside the alphabet")
        out.append((q, exps))
        i += 1 + rows
    return out


# Cyclotomic polynomials, lowest degree first; sum_t c_t zeta_q^t is zero
# exactly when sum_t c_t x^t is divisible by the q-th one.
_CYCLOTOMIC = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}


def _is_zero(q: int, counts: np.ndarray) -> bool:
    phi = _CYCLOTOMIC[q]
    rem = [int(c) for c in counts]
    deg = len(phi) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            for j, p in enumerate(phi):
                rem[top - deg + j] -= lead * p
    return not any(rem[:deg])


def shift_counts(q: int, exps: np.ndarray) -> np.ndarray:
    """counts[tau, t] = #{(row, k): e[row, k] - e[row, k + tau] = t mod q}, tau >= 0."""
    n = exps.shape[1]
    counts = np.zeros((n, q), dtype=np.int64)
    for row in exps:
        onehot = [(row == a).astype(np.int64) for a in range(q)]
        for a in range(q):
            if not onehot[a].any():
                continue
            for b in range(q):
                if onehot[b].any():
                    # full correlation; index n-1+tau pairs k with k+tau
                    corr = np.correlate(onehot[b], onehot[a], mode="full")[n - 1:]
                    counts[:, (a - b) % q] += corr
    return counts


def is_complementary(q: int, exps: np.ndarray) -> bool:
    """Exact test: zero off-peak autocorrelation sum and P*N at the peak."""
    p, n = exps.shape
    counts = shift_counts(q, exps)
    peak_ok = counts[0, 0] == p * n and not counts[0, 1:].any()
    return bool(peak_ok and all(_is_zero(q, counts[tau]) for tau in range(1, n)))


def papr_within_bound(q: int, exps: np.ndarray, oversample: int = 16) -> bool:
    """Every row's sampled PAPR is at most the set size."""
    p, n = exps.shape
    signal = np.exp(2j * np.pi * exps / q)
    spectrum = np.fft.fft(signal, n=oversample * n, axis=1)
    worst = float(np.max(np.abs(spectrum) ** 2)) / n
    return worst <= p * (1 + 1e-9)


class Oracle:
    """Caches verdicts by text, since passes repeat the same outputs."""

    def __init__(self):
        self._sets: dict[str, bool] = {}
        self._decisions: dict[str, bool] = {}

    def sets_ok(self, text: str) -> bool:
        """Each set in the text is complementary and within the PAPR bound."""
        if text not in self._sets:
            try:
                found = parse_sets(text)
            except ValueError:
                found = []
            self._sets[text] = bool(found) and all(
                is_complementary(q, e) and papr_within_bound(q, e) for q, e in found)
        return self._sets[text]

    def decide(self, text: str) -> bool:
        """Whether the single set in the text is complementary."""
        if text not in self._decisions:
            (q, exps), = parse_sets(text)
            self._decisions[text] = is_complementary(q, exps)
        return self._decisions[text]
