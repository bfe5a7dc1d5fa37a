"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. Every tolerance and runtime cap is pinned here.
"""

import random
import time
from contextlib import contextmanager

import pytest

from cskit.algebra import Sequence, aacf, accf
from cskit.cli import main as cli_main
from cskit.construct import (
    Coeffs4,
    Coeffs8,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    golay_double,
)
from cskit.errors import InputError
from cskit.io import serialize_set
from cskit.papr import papr
from cskit.reach import PUBLISHED_ROWS, reachable_lengths
from cskit.search import canonical_rows, search_cs
from cskit.seeds import gcp_for_length, load_seeds, seed_pair
from cskit.verify import ComplementarySet, ensure_verified, verify

from conftest import GOLDEN_DIR, load_golden
from helpers import (
    conj_rootsum,
    conjugate,
    int_rootsum,
    random_admissible_coeffs4,
    random_admissible_coeffs8,
    random_cs4,
    random_gcp,
    reverse,
)


@contextmanager
def criterion(n, cap_seconds, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {n:02d}] FAIL {label}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= cap_seconds:
        print(f"[criterion {n:02d}] FAIL {label} (runtime {elapsed:.2f}s >= {cap_seconds}s)")
        raise AssertionError(f"criterion {n} runtime {elapsed:.2f}s over cap {cap_seconds}s")
    print(f"[criterion {n:02d}] PASS {label} ({elapsed:.2f}s < {cap_seconds:g}s)")


def rows_of(cs):
    return tuple(r.exponents for r in cs.rows)


def test_criterion_01_golden_size4_reconstruction():
    with criterion(1, 1.0, "size-4 golden set is byte-identical, peak 56, off-peak zero"):
        pair_a = ensure_verified(load_golden("pair_q2_len10.txt"))
        pair_b = ensure_verified(load_golden("pair_q2_len4.txt"))
        built = cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 1))
        packaged = (GOLDEN_DIR / "cs4_q2_len14.txt").read_bytes()
        assert serialize_set(built).encode() == packaged
        report = verify(built)
        assert report.is_cs
        assert report.sum_profile.peak == int_rootsum(2, 56)
        assert not any(any(report.sum_profile.at(tau).coords) for tau in range(1, 14))


def test_criterion_02_golden_size8_reconstruction():
    with criterion(2, 1.0, "size-8 golden set is byte-identical, peak 104"):
        pair = ensure_verified(load_golden("pair_q2_len8.txt"))
        set4 = ensure_verified(load_golden("cs4_q2_len5.txt"))
        built = cs8_from_pair_and_set(pair, set4, Coeffs8(0, 1, 1, 0, 0, 0))
        packaged = (GOLDEN_DIR / "cs8_q2_len13.txt").read_bytes()
        assert serialize_set(built).encode() == packaged
        report = verify(built)
        assert report.is_cs
        assert report.sum_profile.peak == int_rootsum(2, 104)


def test_criterion_03_quaternary_length29_witness():
    with criterion(3, 1.0, "quaternary size-4 set of length 29 = 3 + 2*13"):
        pair3 = seed_pair(4, 3).pair
        pair26 = golay_double(seed_pair(4, 13).pair)
        assert pair26.length == 26
        built = cs4_from_pairs(pair3, pair26, Coeffs4(0, 0, 0, 2))
        assert built.length == 29 and built.size == 4 and built.q == 4
        report = verify(built)
        assert report.is_cs
        assert report.sum_profile.peak == int_rootsum(4, 4 * 29)


def test_criterion_04_reference_row_reproduction(capsys):
    label = "enumerations match the reference rows (documented extras only)"
    with criterion(4, 1.0, label):
        expected_extras = {(2, 4): {2, 32}, (2, 8): {2}, (4, 4): {2}, (4, 8): {2}}
        for (q, size), published in PUBLISHED_ROWS.items():
            computed = set(reachable_lengths(q, size, 34).lengths())
            assert computed == published | expected_extras[(q, size)], (q, size)
        # the CLI path reports the same diff
        code = cli_main(["enumerate", "--q", "2", "--size", "4", "--max", "34", "--table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "extras=[2, 32] missing=[]" in out
        code = cli_main(["enumerate", "--q", "2", "--size", "8", "--max", "34", "--table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "extras=[2] missing=[]" in out


def test_criterion_05_binary_constructive_coverage():
    with criterion(5, 10.0, "verified size-4 set built for every binary length <= 34"):
        reach = reachable_lengths(2, 4, 34)
        assert len(reach.entries) == 25
        for entry in reach.entries:
            m, n = entry.witness.operands
            pair_a = gcp_for_length(2, m)
            pair_b = gcp_for_length(2, n)
            assert pair_a.available and pair_b.available
            built = cs4_from_pairs(pair_a.pair, pair_b.pair, Coeffs4(0, 0, 0, 1))
            assert built.length == entry.length
            assert built.verified


def test_criterion_06_quaternary_desk_scale_coverage():
    with criterion(6, 30.0, "verified quaternary size-4 set for every length in [2, 40]"):
        by_length = {e.length: e for e in reachable_lengths(4, 4, 40).entries}
        assert set(range(2, 41)) <= set(by_length)
        for length in range(2, 41):
            entry = by_length[length]
            m, n = entry.witness.operands
            pair_a = gcp_for_length(4, m)
            pair_b = gcp_for_length(4, n)
            assert pair_a.available and pair_b.available, (length, entry)
            built = cs4_from_pairs(pair_a.pair, pair_b.pair, Coeffs4(0, 0, 0, 2))
            assert built.length == length
            assert built.verified


def test_criterion_07_randomized_property_suite():
    with criterion(7, 60.0, "200 randomized admissible trials per theorem per q"):
        for q in (2, 4):
            rng = random.Random(1000 + q)
            for _ in range(200):
                built = cs4_from_pairs(
                    random_gcp(q, rng, max_len=20),
                    random_gcp(q, rng, max_len=20),
                    random_admissible_coeffs4(q, rng),
                )
                assert built.verified
            for _ in range(200):
                built = cs8_from_pair_and_set(
                    random_gcp(q, rng, max_len=12),
                    random_cs4(q, rng, max_pair_len=8),
                    random_admissible_coeffs8(q, rng),
                )
                assert built.verified
        # the inadmissible witness: all-ones coefficients on the golden seeds
        a, b = load_golden("pair_q2_len10.txt").rows
        c, d = load_golden("pair_q2_len4.txt").rows
        witness = ComplementarySet((a.concat(c), b.concat(d), a.concat(c), b.concat(d)))
        assert not verify(witness).is_cs
        with pytest.raises(InputError):
            cs4_from_pairs(
                ensure_verified(load_golden("pair_q2_len10.txt")),
                ensure_verified(load_golden("pair_q2_len4.txt")),
                Coeffs4(0, 0, 0, 0),
            )


def test_criterion_08_oracle_consistency():
    with criterion(8, 300.0, "constructor outputs appear in exhaustive oracle lists"):
        assert search_cs(2, 2, 3).sets == ()

        pattern = {1: gcp_for_length(2, 1).pair, 2: gcp_for_length(2, 2).pair}
        coeff_tuples = []
        for x0 in range(2):
            for x1 in range(2):
                for y0 in range(2):
                    coeff_tuples.append(Coeffs4(x0, x1, y0, (x1 - x0 + y0 + 1) % 2))
        for length in (2, 3, 4):
            oracle = {rows_of(cs) for cs in search_cs(2, 4, length).sets}
            assert oracle
            pairs = [(m, length - m) for m in (1, 2) if (length - m) in pattern]
            for m, n in pairs:
                for coeffs in coeff_tuples:
                    built = cs4_from_pairs(pattern[m], pattern[n], coeffs)
                    assert canonical_rows(2, rows_of(built)) in oracle

        oracle_q4 = {rows_of(cs) for cs in search_cs(4, 2, 3).sets}
        composed = gcp_for_length(4, 3).pair
        assert canonical_rows(4, rows_of(composed)) in oracle_q4


def test_criterion_09_papr_bounds():
    with criterion(9, 10.0, "PAPR within set-size bound for sets, 2 for pairs"):
        tol = 1e-9
        golden_sets = [
            load_golden("cs4_q2_len5.txt"),
            load_golden("cs4_q2_len14.txt"),
            load_golden("cs8_q2_len13.txt"),
        ]
        pair3 = seed_pair(4, 3).pair
        pair26 = golay_double(seed_pair(4, 13).pair)
        golden_sets.append(cs4_from_pairs(pair3, pair26, Coeffs4(0, 0, 0, 2)))
        for cs in golden_sets:
            for row in cs.rows:
                assert papr(row, 16).papr <= cs.size + tol
        pairs = [record.pair for q in (2, 4) for record in load_seeds(q)]
        pairs += [gcp_for_length(2, 20).pair, gcp_for_length(2, 52).pair,
                  gcp_for_length(4, 26).pair, gcp_for_length(4, 30).pair]
        for pair in pairs:
            for row in pair.rows:
                assert papr(row, 16).papr <= 2 + tol


def test_criterion_10_core_algebra_invariants():
    with criterion(10, 10.0, "exact correlation identities on 1000 random sequences per q"):
        for q in (2, 4):
            rng = random.Random(2000 + q)
            for _ in range(1000):
                n = rng.randrange(1, 9)
                a = Sequence.from_exponents(q, [rng.randrange(q) for _ in range(n)])
                b = Sequence.from_exponents(q, [rng.randrange(q) for _ in range(n)])
                ab = accf(a, b)
                ba = accf(b, a)
                shifts = range(-(n - 1), n)
                for tau in shifts:
                    assert ab.at(tau) == conj_rootsum(ba.at(-tau))
                u = rng.randrange(q)
                assert accf(a.scale(u), b.scale(u)) == ab
                fwd = aacf(a)
                rev = aacf(reverse(a))
                conj = aacf(conjugate(a))
                for tau in shifts:
                    assert rev.at(tau) == conj_rootsum(fwd.at(tau))
                    assert conj.at(tau) == conj_rootsum(fwd.at(tau))
                assert fwd.peak == int_rootsum(q, n)
