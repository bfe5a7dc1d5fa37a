"""Peak-to-average power ratio checks against the analytic bounds."""

import random

import pytest

from cskit.algebra import Sequence
from cskit.errors import InputError
from cskit.papr import papr
from cskit.seeds import gcp_for_length, load_seeds

from conftest import load_golden
from helpers import random_gcp, signs

TOL = 1e-9


def test_constant_sequence_peaks_coherently():
    result = papr(signs("++++"))
    assert result.papr == pytest.approx(4.0)
    assert result.peak_t == 0.0


def test_golden_size4_rows_within_set_size_bound():
    for row in load_golden("cs4_q2_len14.txt").rows:
        assert papr(row, 16).papr <= 4 + TOL


def test_golden_size8_rows_within_set_size_bound():
    for row in load_golden("cs8_q2_len13.txt").rows:
        assert papr(row, 16).papr <= 8 + TOL


def test_pair_rows_within_pair_bound():
    for q in (2, 4):
        for record in load_seeds(q):
            for row in record.pair.rows:
                assert papr(row, 16).papr <= 2 + TOL
    for length in (20, 52):
        for row in gcp_for_length(2, length).pair.rows:
            assert papr(row, 16).papr <= 2 + TOL


def test_random_pair_rows_within_pair_bound():
    rng = random.Random(11)
    for q in (2, 4):
        for _ in range(10):
            for row in random_gcp(q, rng).rows:
                assert papr(row, 16).papr <= 2 + TOL


def test_invariant_under_common_scaling():
    rng = random.Random(12)
    for q in (2, 4):
        row = random_gcp(q, rng).rows[0]
        base = papr(row, 16).papr
        for u in range(q):
            assert papr(row.scale(u), 16).papr == pytest.approx(base, abs=1e-9)


def test_oversampling_refines_monotonically():
    rng = random.Random(13)
    rows = [random_gcp(2, rng).rows[0] for _ in range(5)]
    rows.append(load_golden("cs8_q2_len13.txt").rows[0])
    for row in rows:
        previous = papr(row, 4).papr
        for oversample in (8, 16, 32):
            current = papr(row, oversample).papr
            assert current + 1e-12 >= previous
            previous = current


def test_papr_at_least_one():
    rng = random.Random(14)
    for q in (2, 4):
        for _ in range(20):
            n = rng.randrange(1, 12)
            row = Sequence.from_exponents(q, [rng.randrange(q) for _ in range(n)])
            assert papr(row, 8).papr >= 1 - 1e-12


def test_peak_position_in_unit_interval():
    result = papr(signs("+-+-"), 16)
    assert 0 <= result.peak_t < 1


def test_oversample_validated():
    with pytest.raises(InputError):
        papr(signs("+"), 0)
