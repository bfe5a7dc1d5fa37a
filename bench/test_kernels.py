"""Micro-benchmarks of the exact correlation kernel and the paths built on it.

    PYTHONPATH=src python3 -m pytest bench --benchmark-json=out.json

These sit outside the tier-1 `testpaths` and run only when named. Every
input is fixed (seeded sequences, seed-database pairs), so two commits are
timed on identical work; each benchmark also checks its result.
"""

from __future__ import annotations

import random

import pytest

from cskit import cli
from cskit.algebra import Sequence, aacf
from cskit.construct import Coeffs4, cs4_from_pairs, stack
from cskit.seeds import gcp_for_length
from cskit.verify import verify


@pytest.fixture(scope="module")
def cs8_q4_len1040():
    """An 8-row quaternary set of length 1040: two size-4 sets from 520+520."""
    pair = gcp_for_length(4, 520).pair
    return stack([
        cs4_from_pairs(pair, pair, Coeffs4(0, 0, 0, 2)),
        cs4_from_pairs(pair, pair, Coeffs4(1, 0, 0, 1)),
    ])


@pytest.mark.parametrize("q,n", [(2, 1024), (4, 1040)])
def test_aacf(benchmark, q, n):
    rng = random.Random(q * 100_000 + n)
    seq = Sequence.from_exponents(q, [rng.randrange(q) for _ in range(n)])
    profile = benchmark(aacf, seq)
    assert profile.length_n == n


def test_verify_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    report = benchmark(verify, cs8_q4_len1040)
    assert report.is_cs


def test_gcp_for_length_cold(benchmark):
    def cold():
        gcp_for_length.cache_clear()
        return gcp_for_length(2, 1024)

    assert benchmark(cold).pair.length == 1024


def test_cs4_from_pairs_len2048(benchmark):
    pair = gcp_for_length(2, 1024).pair
    cs = benchmark(cs4_from_pairs, pair, pair, Coeffs4(0, 0, 0, 1))
    assert (cs.size, cs.length) == (4, 2048)


def test_report_dict_cs8_q4_len1040(benchmark, cs8_q4_len1040):
    report = verify(cs8_q4_len1040)
    record = benchmark(cli._report_dict, cs8_q4_len1040, report)
    assert record["is_cs"] and len(record["sum_profile"]) == 1040
