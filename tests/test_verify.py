"""Complementarity decision: examples, defect reporting, invariances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import RootSum, Sequence
from cskit.construct import Coeffs4, cs4_from_pairs, stack
from cskit.errors import InputError
from cskit.seeds import gcp_for_length
from cskit.verify import ComplementarySet, ensure_verified, is_gcp, verify

from conftest import load_golden
from helpers import float_sum_profile, random_cs4, random_gcp, rootsum_accf


def binary_set(*rows):
    return ComplementarySet.of(*(Sequence.from_signs(r) for r in rows))


def test_golden_size4_length5_set():
    cs = load_golden("cs4_q2_len5.txt")
    report = verify(cs)
    assert report.is_cs
    assert report.peak == RootSum.from_int(2, 20)
    assert report.first_defect_shift is None
    assert report.defect_magnitudes == {}


def test_sign_cancellation_stack():
    report = verify(binary_set("++", "++", "+-", "+-"))
    assert report.is_cs


def test_two_identical_rows_cannot_cancel():
    report = verify(binary_set("++", "++"))
    assert not report.is_cs
    assert report.first_defect_shift == 1
    assert report.defect_magnitudes[1] == pytest.approx(2.0)


def test_is_gcp_golden_length10():
    cs = load_golden("pair_q2_len10.txt")
    assert is_gcp(*cs.rows)


def test_is_gcp_length_one():
    one = Sequence.from_signs("+")
    assert is_gcp(one, one)


def test_is_gcp_quaternary_length3():
    a = Sequence.from_exponents(4, (0, 0, 2))
    b = Sequence.from_exponents(4, (0, 1, 0))
    assert is_gcp(a, b)


def test_is_gcp_rejects_mismatch():
    with pytest.raises(InputError):
        is_gcp(Sequence.from_signs("++"), Sequence.from_signs("+++"))


def test_set_constructor_rejects_ragged_and_mixed():
    with pytest.raises(InputError):
        ComplementarySet.of(Sequence.from_signs("++"), Sequence.from_signs("+++"))
    with pytest.raises(InputError):
        ComplementarySet.of(Sequence.from_signs("++"), Sequence.from_exponents(4, (0, 0)))
    with pytest.raises(InputError):
        ComplementarySet(())


def test_ensure_verified_sets_flag_and_rejects_defects():
    cs = load_golden("cs4_q2_len14.txt")
    assert not cs.verified
    ok = ensure_verified(cs)
    assert ok.verified
    with pytest.raises(InputError, match="first defect at shift"):
        ensure_verified(binary_set("++", "++"))


# ---------------------------------------------------------------------------
# Metamorphic invariances of the decision.


@pytest.fixture(scope="module")
def verified_examples():
    rng = random.Random(7)
    sets = [
        load_golden("cs4_q2_len5.txt"),
        load_golden("cs4_q2_len14.txt"),
        load_golden("cs8_q2_len13.txt"),
    ]
    sets += [random_cs4(2, rng) for _ in range(3)]
    sets += [random_cs4(4, rng) for _ in range(3)]
    return sets


def test_invariant_under_row_permutation(verified_examples):
    rng = random.Random(1)
    for cs in verified_examples:
        rows = list(cs.rows)
        rng.shuffle(rows)
        assert verify(ComplementarySet(tuple(rows))).is_cs


def test_invariant_under_single_row_scaling(verified_examples):
    rng = random.Random(2)
    for cs in verified_examples:
        rows = list(cs.rows)
        i = rng.randrange(len(rows))
        rows[i] = rows[i].scale(rng.randrange(cs.q))
        assert verify(ComplementarySet(tuple(rows))).is_cs


def test_invariant_under_simultaneous_reversal(verified_examples):
    for cs in verified_examples:
        assert verify(ComplementarySet(tuple(r.reverse() for r in cs.rows))).is_cs


def test_invariant_under_simultaneous_conjugation(verified_examples):
    for cs in verified_examples:
        assert verify(ComplementarySet(tuple(r.conjugate() for r in cs.rows))).is_cs


def test_stacking_two_verified_sets_verifies():
    from cskit.construct import Coeffs4, cs4_from_pairs
    from cskit.seeds import gcp_for_length

    for q in (2, 4):
        pair2 = gcp_for_length(q, 2).pair
        pair4 = gcp_for_length(q, 4).pair
        a = cs4_from_pairs(pair2, pair4, Coeffs4(0, 0, 0, q // 2))
        b = cs4_from_pairs(pair4, pair2, Coeffs4(0, q // 2, 0, 0))
        combined = ComplementarySet(a.rows + b.rows)
        report = verify(combined)
        assert report.is_cs
        assert report.peak == RootSum.from_int(q, (a.size + b.size) * a.length)


def test_verify_agrees_with_float_recomputation(verified_examples):
    rng = random.Random(4)
    candidates = list(verified_examples)
    candidates.append(binary_set("++", "++"))  # a failing instance too
    candidates.append(binary_set("+-+", "++-"))
    for cs in candidates:
        report = verify(cs)
        floats = float_sum_profile(cs)
        for tau in range(1, cs.length):
            exact = report.sum_profile.at(tau).to_complex()
            assert abs(exact - floats[tau]) < 1e-9
            assert report.sum_profile.at(tau).is_zero == (abs(floats[tau]) < 1e-9)
        assert abs(floats[0] - cs.size * cs.length) < 1e-9 or not report.is_cs


@given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_pairs_verify_and_transform(q, seed):
    rng = random.Random(seed)
    pair = random_gcp(q, rng)
    assert pair.verified
    report = verify(pair)
    assert report.is_cs
    assert report.peak == RootSum.from_int(q, 2 * pair.length)


def test_corrupted_long_quaternary_set_matches_rootsum_oracle():
    pair = gcp_for_length(4, 520).pair
    cs = stack([
        cs4_from_pairs(pair, pair, Coeffs4(0, 0, 0, 2)),
        cs4_from_pairs(pair, pair, Coeffs4(1, 0, 0, 1)),
    ])
    rows = list(cs.rows)
    exps = list(rows[3].exponents)
    exps[517] = (exps[517] + 1) % 4
    rows[3] = Sequence.from_exponents(4, exps)
    bad = ComplementarySet(tuple(rows))
    assert (bad.size, bad.length) == (8, 1040)

    n = bad.length
    per_row = [rootsum_accf(row, row) for row in bad.rows]
    total = [sum(values[1:], values[0]) for values in zip(*per_row)]
    defects = {tau: abs(total[tau + n - 1]) for tau in range(1, n)
               if not total[tau + n - 1].is_zero}
    peak_ok = total[n - 1] == RootSum.from_int(4, 8 * n)

    assert defects
    report = verify(bad)
    assert report.is_cs == (not defects and peak_ok)
    assert report.first_defect_shift == min(defects)
    assert report.defect_magnitudes == defects
    assert report.sum_profile.values == tuple(total)
