"""Complementarity decision: examples, defect reporting, invariances."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import Sequence, aacf
from cskit.construct import Coeffs4, cs4_from_pairs, stack
from cskit.errors import InputError
from cskit.reach import gcp_lengths
from cskit.seeds import gcp_for_length
from cskit.verify import ComplementarySet, ensure_verified, ensure_verified_all, verify

from conftest import load_golden
from helpers import (
    conjugate,
    float_sum_profile,
    int_rootsum,
    profile_values,
    random_cs4,
    random_gcp,
    reverse,
    rootsum_accf,
    signs,
    sum_rootsums,
)


def binary_set(*rows):
    return ComplementarySet(tuple(signs(r) for r in rows))


def test_golden_size4_length5_set():
    cs = load_golden("cs4_q2_len5.txt")
    report = verify(cs)
    assert report.is_cs
    assert report.sum_profile.peak == int_rootsum(2, 20)
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
    assert verify(cs).is_cs


def test_is_gcp_length_one():
    one = signs("+")
    assert verify(ComplementarySet((one, one))).is_cs


def test_is_gcp_quaternary_length3():
    a = Sequence.from_exponents(4, (0, 0, 2))
    b = Sequence.from_exponents(4, (0, 1, 0))
    assert verify(ComplementarySet((a, b))).is_cs


def test_is_gcp_rejects_mismatch():
    with pytest.raises(InputError):
        verify(ComplementarySet((signs("++"), signs("+++"))))


def test_set_constructor_rejects_ragged_and_mixed():
    with pytest.raises(InputError):
        ComplementarySet((signs("++"), signs("+++")))
    with pytest.raises(InputError):
        ComplementarySet((signs("++"), Sequence.from_exponents(4, (0, 0))))
    with pytest.raises(InputError):
        ComplementarySet(())


def test_ensure_verified_sets_flag_and_rejects_defects():
    cs = load_golden("cs4_q2_len14.txt")
    assert not cs.verified
    ok = ensure_verified(cs)
    assert ok.verified
    with pytest.raises(InputError, match="first defect at shift"):
        ensure_verified(binary_set("++", "++"))


def test_a_verified_copy_equals_and_hashes_like_its_stack():
    cs = ComplementarySet(gcp_for_length(2, 10).pair.rows)
    ok = ensure_verified(cs)
    assert ok.verified and not cs.verified
    assert ok == cs and hash(ok) == hash(cs)
    assert len({cs, ok}) == 1


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
        assert verify(ComplementarySet(tuple(reverse(r) for r in cs.rows))).is_cs


def test_invariant_under_simultaneous_conjugation(verified_examples):
    for cs in verified_examples:
        assert verify(ComplementarySet(tuple(conjugate(r) for r in cs.rows))).is_cs


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
        assert report.sum_profile.peak == int_rootsum(q, (a.size + b.size) * a.length)


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
            assert (not any(report.sum_profile.at(tau).coords)) == (abs(floats[tau]) < 1e-9)
        assert abs(floats[0] - cs.size * cs.length) < 1e-9 or not report.is_cs


@given(st.sampled_from([2, 4]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_pairs_verify_and_transform(q, seed):
    rng = random.Random(seed)
    pair = random_gcp(q, rng)
    assert pair.verified
    report = verify(pair)
    assert report.is_cs
    assert report.sum_profile.peak == int_rootsum(q, 2 * pair.length)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_repeated_rows_sum_like_one_profile_per_row(q):
    # the summed profile correlates each distinct row once and scales it
    rng = random.Random(q)
    a, b, c = (Sequence.from_exponents(q, [rng.randrange(q) for _ in range(9)])
               for _ in range(3))
    rows = (a, a, b, a, c, c, a)
    profile = verify(ComplementarySet(rows)).sum_profile
    per_row = aacf(a)
    for row in rows[1:]:
        per_row = per_row + aacf(row)
    assert profile == per_row
    oracle = [sum_rootsums(values) for values in zip(*(rootsum_accf(r, r) for r in rows))]
    assert profile_values(profile) == tuple(oracle)


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
    total = [sum_rootsums(values) for values in zip(*per_row)]
    defects = {tau: abs(total[tau + n - 1]) for tau in range(1, n)
               if any(total[tau + n - 1].coords)}
    peak_ok = total[n - 1] == int_rootsum(4, 8 * n)

    assert defects
    report = verify(bad)
    assert report.is_cs == (not defects and peak_ok)
    assert report.first_defect_shift == min(defects)
    assert report.defect_magnitudes == defects
    assert profile_values(report.sum_profile) == tuple(total)


# ---------------------------------------------------------------------------
# The batch decision over distinct rows.


def known_sets(q, n):
    """Complementary stacks of q-th roots of length n: the one-entry row, a
    binary or quaternary Golay pair carried to q, and the rows
    k -> (q/n)*r*k of the n-point DFT when n divides q."""
    known = [[[0]]] if n == 1 else []
    for base in (2, 4):
        if q % base == 0 and n in gcp_lengths(base, n):
            known.append([[e * q // base for e in row] for row in gcp_for_length(base, n).pair.rows])
    if q % n == 0:
        known.append([[q // n * r * k % q for k in range(n)] for r in range(n)])
    return known


@st.composite
def stacks(draw, q, n):
    """Exponent rows of a stack: random, or a known set or two stacked (which
    repeats rows), rows permuted and rescaled, often with one entry changed."""
    known = known_sets(q, n)
    if not known or draw(st.booleans()):
        return draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                             min_size=1, max_size=6))
    rows = draw(st.sampled_from(known))
    more = [k for k in known if len(k) + len(rows) <= 6]
    if more and draw(st.booleans()):
        rows = rows + draw(st.sampled_from(more))
    shifts = draw(st.lists(st.integers(0, q - 1), min_size=len(rows), max_size=len(rows)))
    rows = [[(e + u) % q for e in row] for row, u in zip(draw(st.permutations(rows)), shifts)]
    if q > 1 and draw(st.booleans()):
        r, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[r][k] = (rows[r][k] + draw(st.integers(1, q - 1))) % q
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ensure_verified_all_agrees_with_verify(data):
    q, n = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 12))
    batch = [ComplementarySet(tuple(Sequence(q, tuple(row)) for row in rows))
             for rows in data.draw(st.lists(stacks(q, n), min_size=1, max_size=5))]
    reports = [verify(cs) for cs in batch]
    for cs, report in zip(batch, reports):
        floats = float_sum_profile(cs)
        assert report.is_cs == all(abs(v) < 1e-6 for v in floats[1:])
    failing = next((r for r in reports if not r.is_cs), None)
    if failing is None:
        out = ensure_verified_all(batch)
        assert [cs.rows for cs in out] == [cs.rows for cs in batch]
        assert all(cs.verified for cs in out)
        assert all(a is b for a, b in zip(ensure_verified_all(out), out))  # kept as they are
    else:
        with pytest.raises(InputError, match=f"at shift {failing.first_defect_shift}$"):
            ensure_verified_all(batch)
    for cs, report in zip(batch, reports):
        if report.is_cs:
            assert ensure_verified(cs).verified
        else:
            with pytest.raises(InputError, match=f"at shift {report.first_defect_shift}$"):
                ensure_verified(cs)
