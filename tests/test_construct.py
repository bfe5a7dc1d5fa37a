"""Constructors: golden reproductions, admissibility, structural identities."""

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import RootSum, Sequence, aacf
from cskit.construct import (
    Coeffs4,
    Coeffs8,
    _recheck,
    cs4_from_pairs,
    cs8_from_pair_and_set,
    golay_double,
    stack,
    turyn_product,
)
from cskit.errors import InputError
from cskit.seeds import gcp_for_length, load_seeds, seed_pair
from cskit.verify import ComplementarySet, ensure_verified, verify

from conftest import load_golden
from helpers import (
    cross_tail,
    int_rootsum,
    oracle_cs4_rows,
    oracle_cs8_rows,
    oracle_turyn_rows,
    oracle_violations,
    random_admissible_coeffs4,
    random_admissible_coeffs8,
    random_cs4,
    random_gcp,
    rotate_rootsum,
    signs,
    sum_rootsums,
)


def pair_of(*rows):
    return ensure_verified(ComplementarySet(tuple(signs(s) for s in rows)))


ONES = pair_of("+", "+")


# ---------------------------------------------------------------------------
# Size-4 rule.


def test_size4_reproduces_golden_length14():
    pair_a = ensure_verified(load_golden("pair_q2_len10.txt"))
    pair_b = ensure_verified(load_golden("pair_q2_len4.txt"))
    cs = cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 1))
    assert cs.rows == load_golden("cs4_q2_len14.txt").rows
    assert cs.verified
    report = verify(cs)
    assert report.sum_profile.peak == int_rootsum(2, 56)


def test_size4_trivial_length_one_seeds():
    cs = cs4_from_pairs(ONES, ONES, Coeffs4(0, 0, 0, 1))
    assert [r.render() for r in cs.rows] == ["00", "00", "01", "01"]


def test_size4_quaternary_coefficients():
    pair = ensure_verified(
        ComplementarySet((Sequence.from_exponents(4, [0]), Sequence.from_exponents(4, [0])))
    )
    # x0=1, y0=1, x1=i, y1=-i: 1*1 + i*conj(-i) = 1 + i*i = 0
    cs = cs4_from_pairs(pair, pair, Coeffs4(0, 1, 0, 3))
    assert cs.verified
    assert cs.q == 4 and cs.length == 2


def test_size4_rejects_inadmissible_with_identity():
    pair_a = ensure_verified(load_golden("pair_q2_len10.txt"))
    pair_b = ensure_verified(load_golden("pair_q2_len4.txt"))
    with pytest.raises(InputError, match=r"x0\*conj\(y0\) \+ x1\*conj\(y1\)"):
        cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 0))


def test_size4_rejects_odd_alphabet():
    pair = ensure_verified(
        ComplementarySet((Sequence.from_exponents(3, [0]), Sequence.from_exponents(3, [0])))
    )
    with pytest.raises(InputError, match="odd"):
        cs4_from_pairs(pair, pair, Coeffs4(0, 0, 0, 1))


def test_inadmissible_all_ones_stack_fails_verification():
    # necessity witness: build the four rows by hand with x0=x1=y0=y1=1
    a, b = load_golden("pair_q2_len10.txt").rows
    c, d = load_golden("pair_q2_len4.txt").rows
    rows = (a.concat(c), b.concat(d), a.concat(c), b.concat(d))
    report = verify(ComplementarySet(rows))
    assert not report.is_cs
    assert report.first_defect_shift is not None


def test_constructor_computes_each_output_autocorrelation_once(monkeypatch):
    pair_a = ensure_verified(load_golden("pair_q2_len10.txt"))
    pair_b = ensure_verified(load_golden("pair_q2_len4.txt"))
    verify_module = importlib.import_module("cskit.verify")
    calls = []

    def counting_aacf(seq):
        calls.append(seq)
        return aacf(seq)

    monkeypatch.setattr(verify_module, "aacf", counting_aacf)
    cs = cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 1))
    assert cs.verified
    assert len(calls) == 4


def test_recheck_failure_is_an_internal_error():
    rows = (signs("++"), signs("++"))
    with pytest.raises(RuntimeError, match="internal error: doubling failed verification"):
        _recheck(rows, "doubling")


@pytest.mark.parametrize("q", [2, 4, 6, 8])
def test_coeffs4_admissibility_matches_complex_identity(q):
    for x0 in range(q):
        for x1 in range(q):
            for y0 in range(q):
                for y1 in range(q):
                    c = Coeffs4(x0, x1, y0, y1)
                    z = sum_rootsums([RootSum.from_exponent(q, x0 - y0),
                                      RootSum.from_exponent(q, x1 - y1)])
                    assert (not c.violations(q)) == (not any(z.coords))


def test_coeffs_odd_q_never_admissible():
    for q in (1, 3, 5):
        assert Coeffs4(0, 0, 0, 0).violations(q)
        assert Coeffs8(0, 0, 0, 0, 0, 0).violations(q)


# ---------------------------------------------------------------------------
# Size-8 rule.


def test_size8_reproduces_golden_length13():
    pair = ensure_verified(load_golden("pair_q2_len8.txt"))
    set4 = ensure_verified(load_golden("cs4_q2_len5.txt"))
    cs = cs8_from_pair_and_set(pair, set4, Coeffs8(0, 1, 1, 0, 0, 0))
    assert cs.rows == load_golden("cs8_q2_len13.txt").rows
    assert verify(cs).sum_profile.peak == int_rootsum(2, 104)


def test_size8_smallest_composition():
    set4 = cs4_from_pairs(ONES, ONES, Coeffs4(0, 0, 0, 1))
    cs = cs8_from_pair_and_set(ONES, set4, Coeffs8(0, 1, 1, 0, 0, 0))
    assert cs.size == 8 and cs.length == 3
    assert cs.verified


def test_size8_equal_leading_coefficients_force_opposition():
    # admissible tuples with x0 == y0 must have x2 == y1 + q/2
    q = 4
    for x1 in range(q):
        for y1 in range(q):
            for x0 in range(q):
                x2 = (x0 - x0 + y1 + q // 2) % q
                x3 = (x1 - x0 + y1 + q // 2) % q
                c = Coeffs8(x0, x1, x2, x3, x0, y1)
                assert not c.violations(q)
                assert x2 == (y1 + q // 2) % q


def test_size8_rejects_wrong_set_size():
    with pytest.raises(InputError, match="4 rows"):
        cs8_from_pair_and_set(ONES, ONES, Coeffs8(0, 1, 1, 0, 0, 0))


def test_size8_rejects_inadmissible():
    set4 = cs4_from_pairs(ONES, ONES, Coeffs4(0, 0, 0, 1))
    with pytest.raises(InputError, match=r"x1\*conj\(y0\) \+ x3\*conj\(y1\)"):
        cs8_from_pair_and_set(ONES, set4, Coeffs8(0, 1, 1, 1, 0, 0))


def test_violation_messages_name_each_failed_identity():
    assert Coeffs4(1, 0, 0, 0).violations(4) == [
        "x0*conj(y0) + x1*conj(y1) != 0: (x0-y0) mod 4 = 1 but (x1-y1) + 2 mod 4 = 2"
    ]
    assert Coeffs8(0, 1, 3, 2, 5, 1).violations(6) == [
        "x0*conj(y0) + x2*conj(y1) != 0: (x0-y0) mod 6 = 1 but (x2-y1) + 3 mod 6 = 5",
        "x1*conj(y0) + x3*conj(y1) != 0: (x1-y0) mod 6 = 2 but (x3-y1) + 3 mod 6 = 4",
    ]
    assert Coeffs8(0, 1, 3, 2, 5, 1).violations(3) == [
        "q=3 is odd, but the defining identities need -1 in U_q"
    ]


exponents = st.integers(-25, 25)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.tuples(*[exponents] * 4), st.tuples(*[exponents] * 6))
def test_violations_match_the_named_identity_oracle(q, c4, c8):
    # every alphabet, odd ones included, and exponents reduced mod q on use
    for coeffs in (Coeffs4(*c4), Coeffs8(*c8)):
        assert coeffs.violations(q) == oracle_violations(coeffs, q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]), st.randoms(use_true_random=False))
def test_constructors_build_the_oracle_row_tables(q, rng):
    pair_a, pair_b, pair = (random_gcp(q, rng, max_len=12) for _ in range(3))
    set4 = random_cs4(q, rng)
    c4 = Coeffs4(*(v + q * rng.randrange(-2, 3) for v in random_admissible_coeffs4(q, rng)))
    c8 = Coeffs8(*(v + q * rng.randrange(-2, 3) for v in random_admissible_coeffs8(q, rng)))
    assert cs4_from_pairs(pair_a, pair_b, c4).rows == oracle_cs4_rows(pair_a, pair_b, c4)
    assert cs8_from_pair_and_set(pair, set4, c8).rows == oracle_cs8_rows(pair, set4, c8)


# ---------------------------------------------------------------------------
# Structural identity: the off-peak sum of the construction factors through
# the admissibility sums, with seam cross-terms computed independently.


def times_coeff_sum(q, e1, e2, v):
    """(zeta_q^e1 + zeta_q^e2) * v, exactly."""
    return sum_rootsums([rotate_rootsum(v, e1), rotate_rootsum(v, e2)])


@pytest.mark.parametrize("q", [2, 4])
def test_size4_offpeak_sum_factors_through_admissibility(q):
    rng = random.Random(100 + q)
    for _ in range(30):
        pair_a = random_gcp(q, rng, max_len=12)
        pair_b = random_gcp(q, rng, max_len=12)
        a, b = pair_a.rows
        c, d = pair_b.rows
        x0, x1, y0, y1 = (rng.randrange(q) for _ in range(4))
        rows = (
            a.scale(x0).concat(c.scale(y0)),
            b.scale(x0).concat(d.scale(y0)),
            a.scale(x1).concat(c.scale(y1)),
            b.scale(x1).concat(d.scale(y1)),
        )
        total = verify(ComplementarySet(rows)).sum_profile
        for tau in range(1, len(a) + len(c)):
            seam = sum_rootsums([cross_tail(q, a, c, tau), cross_tail(q, b, d, tau)])
            assert total.at(tau) == times_coeff_sum(q, x0 - y0, x1 - y1, seam)


@pytest.mark.parametrize("q", [2, 4])
def test_size8_offpeak_sum_factors_through_admissibility(q):
    rng = random.Random(200 + q)
    for _ in range(15):
        pair = random_gcp(q, rng, max_len=10)
        set4 = random_cs4(q, rng, max_pair_len=8)
        a, b = pair.rows
        e, f, g, h = set4.rows
        x0, x1, x2, x3, y0, y1 = (rng.randrange(q) for _ in range(6))
        rows = (
            a.scale(x0).concat(e.scale(y0)),
            b.scale(x0).concat(f.scale(y0)),
            a.scale(x1).concat(g.scale(y0)),
            b.scale(x1).concat(h.scale(y0)),
            a.scale(x2).concat(e.scale(y1)),
            b.scale(x2).concat(f.scale(y1)),
            a.scale(x3).concat(g.scale(y1)),
            b.scale(x3).concat(h.scale(y1)),
        )
        total = verify(ComplementarySet(rows)).sum_profile
        for tau in range(1, pair.length + set4.length):
            seam1 = sum_rootsums([cross_tail(q, a, e, tau), cross_tail(q, b, f, tau)])
            seam2 = sum_rootsums([cross_tail(q, a, g, tau), cross_tail(q, b, h, tau)])
            assert total.at(tau) == sum_rootsums([
                times_coeff_sum(q, x0 - y0, x2 - y1, seam1),
                times_coeff_sum(q, x1 - y0, x3 - y1, seam2),
            ])


def test_size4_shift_ranges_vanish_independently():
    # with M < N the three seam regimes of the off-peak sum each vanish
    pair_a = ensure_verified(load_golden("pair_q2_len4.txt"))
    pair_b = ensure_verified(load_golden("pair_q2_len10.txt"))
    m, n = pair_a.length, pair_b.length
    cs = cs4_from_pairs(pair_a, pair_b, Coeffs4(0, 0, 0, 1))
    total = verify(cs).sum_profile
    ranges = [range(1, m), range(m, n), range(n, m + n)]
    for rng_ in ranges:
        assert not any(any(total.at(tau).coords) for tau in rng_)


# ---------------------------------------------------------------------------
# Randomized soundness (small sample here; the acceptance suite runs 200).


@pytest.mark.parametrize("q", [2, 4])
def test_size4_soundness_sample(q):
    rng = random.Random(300 + q)
    for _ in range(25):
        cs = cs4_from_pairs(
            random_gcp(q, rng), random_gcp(q, rng), random_admissible_coeffs4(q, rng)
        )
        assert cs.verified


@pytest.mark.parametrize("q", [2, 4])
def test_size8_soundness_sample(q):
    rng = random.Random(400 + q)
    for _ in range(25):
        cs = cs8_from_pair_and_set(
            random_gcp(q, rng), random_cs4(q, rng), random_admissible_coeffs8(q, rng)
        )
        assert cs.verified


# ---------------------------------------------------------------------------
# Stacking.


def test_stack_identity_and_additivity():
    cs = ensure_verified(load_golden("cs4_q2_len14.txt"))
    assert stack([cs]).rows == cs.rows
    doubled = stack([cs, cs])
    assert doubled.size == 8 and doubled.length == 14
    assert doubled.verified


def test_stack_of_two_distinct_trivial_sets():
    first = cs4_from_pairs(ONES, ONES, Coeffs4(0, 0, 0, 1))
    second = cs4_from_pairs(ONES, ONES, Coeffs4(0, 1, 0, 0))
    assert first.rows != second.rows
    combined = stack([first, second])
    assert combined.size == 8 and combined.length == 2


def test_stack_rejects_mismatches():
    cs14 = ensure_verified(load_golden("cs4_q2_len14.txt"))
    cs5 = ensure_verified(load_golden("cs4_q2_len5.txt"))
    with pytest.raises(InputError, match="length"):
        stack([cs14, cs5])
    with pytest.raises(InputError, match="at least one"):
        stack([])


# ---------------------------------------------------------------------------
# Every constructor checks its own inputs.


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_constructors_accept_unverified_inputs_and_reject_non_complementary_ones(data):
    # over the packaged seeds and admissible coefficients: a verified input
    # and an unverified copy of it give the same rows, and an input whose
    # rows all equal its first (not complementary from length 2 on) is an
    # input error, never the internal error kept for a failing output
    q = data.draw(st.sampled_from([2, 4]), label="q")
    rng = data.draw(st.randoms(use_true_random=False))
    seeds = st.sampled_from([record.pair for record in load_seeds(q)])
    a, b, c = (data.draw(seeds) for _ in range(3))
    binary = data.draw(st.sampled_from([record.pair for record in load_seeds(2)]))
    set4 = cs4_from_pairs(a, b, random_admissible_coeffs4(q, rng))
    other4 = cs4_from_pairs(a, b, random_admissible_coeffs4(q, rng))
    cases = [
        (lambda x, y, k=random_admissible_coeffs4(q, rng): cs4_from_pairs(x, y, k), (a, b)),
        (lambda x, y, k=random_admissible_coeffs8(q, rng): cs8_from_pair_and_set(x, y, k),
         (c, set4)),
        (lambda *sets: stack(sets), (set4, other4)),
        (golay_double, (a,)),
        (turyn_product, (binary, a)),
    ]
    for build, inputs in cases:
        assert all(cs.verified for cs in inputs)
        rows = build(*inputs).rows
        raw = [ComplementarySet(cs.rows) for cs in inputs]
        for i in range(len(raw)):
            mixed = inputs[:i] + tuple(raw[i:])
            built = build(*mixed)
            assert built.rows == rows and built.verified
        i = data.draw(st.integers(0, len(inputs) - 1))
        broken = list(inputs)
        broken[i] = ComplementarySet((inputs[i].rows[0],) * inputs[i].size)
        if inputs[i].length > 1:
            assert not verify(broken[i]).is_cs
            with pytest.raises(InputError, match="^not a complementary set: first defect at"):
                build(*broken)
        else:  # a length-1 stack is complementary whatever its rows
            assert build(*broken).verified


# ---------------------------------------------------------------------------
# Doubling and Turyn product.


def test_double_length_one():
    out = golay_double(ONES)
    assert [r.render() for r in out.rows] == ["00", "01"]


def test_double_golden_length4_pair():
    out = golay_double(ensure_verified(load_golden("pair_q2_len4.txt")))
    assert [r.render(pretty=True) for r in out.rows] == ["++-++++-", "++-+---+"]
    assert verify(out).is_cs


def test_double_golden_length10_pair():
    out = golay_double(ensure_verified(load_golden("pair_q2_len10.txt")))
    assert out.length == 20
    assert verify(out).is_cs


def test_double_rejects_odd_alphabet():
    pair = ensure_verified(
        ComplementarySet((Sequence.from_exponents(3, [0]), Sequence.from_exponents(3, [0])))
    )
    with pytest.raises(InputError):
        golay_double(pair)


def test_turyn_degenerate_product():
    two = pair_of("++", "+-")
    out = turyn_product(two, ONES)
    assert out.rows == two.rows


def test_turyn_binary_products_verify():
    two = pair_of("++", "+-")
    ten = ensure_verified(load_golden("pair_q2_len10.txt"))
    twentysix = seed_pair(2, 26).pair
    assert turyn_product(two, twentysix).length == 52
    big = turyn_product(ten, ten)
    assert big.length == 100
    assert verify(big).is_cs


def test_turyn_embeds_binary_into_quaternary():
    ten = ensure_verified(load_golden("pair_q2_len10.txt"))
    q3 = seed_pair(4, 3).pair
    out = turyn_product(ten, q3)
    assert out.q == 4 and out.length == 30
    assert verify(out).is_cs


def test_turyn_rejects_nonbinary_first_pair():
    q3 = seed_pair(4, 3).pair
    with pytest.raises(InputError, match=r"\+1/-1"):
        turyn_product(q3, q3)
    odd = ensure_verified(
        ComplementarySet((Sequence.from_exponents(3, [0]), Sequence.from_exponents(3, [0])))
    )
    with pytest.raises(InputError, match="^turyn_product needs an even target alphabet$"):
        turyn_product(seed_pair(2, 2).pair, odd)


@pytest.mark.parametrize("q", [2, 4])
def test_turyn_matches_double_loop_oracle(q):
    rng = random.Random(1200 + q)
    for _ in range(25):
        pair_bin = random_gcp(2, rng, 26)
        pair_q = random_gcp(q, rng, 26)
        if q == 4 and rng.random() < 0.5:
            # a binary pair already over the target alphabet: exponents 0 and 2
            pair_bin = ensure_verified(ComplementarySet(tuple(
                Sequence(4, tuple(2 * e for e in row.exponents)) for row in pair_bin.rows)))
        out = turyn_product(pair_bin, pair_q)
        assert tuple(row.exponents for row in out.rows) == oracle_turyn_rows(pair_bin, pair_q)


@pytest.mark.parametrize("first_q", [3, 4, 6])
def test_turyn_rejects_what_the_loop_oracle_rejects(first_q):
    # an entry that is neither +1 nor -1 (zeta_3, i, zeta_6) anywhere in the rows
    q4 = seed_pair(4, 3).pair
    for col in range(3):
        rows = tuple(Sequence(first_q, tuple(1 if k == col else 0 for k in range(3)))
                     for _ in range(2))
        pair = ComplementarySet(rows, verified=True)  # the shape check only reads entries
        with pytest.raises(InputError, match=r"\+1/-1") as exc:
            turyn_product(pair, q4)
        with pytest.raises(InputError) as expected:
            oracle_turyn_rows(pair, q4)
        assert str(exc.value) == str(expected.value)
