"""Core algebra: exact root-of-unity arithmetic and aperiodic correlation."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import (
    Alphabet,
    RootSum,
    Sequence,
    aacf,
    accf,
    cyclotomic_polynomial,
)
from cskit.errors import InputError

from helpers import rootsum_accf


def seq(q, *exps):
    return Sequence.from_exponents(q, exps)


def sequences(q, min_len=1, max_len=10):
    return st.lists(
        st.integers(0, q - 1), min_size=min_len, max_size=max_len
    ).map(lambda xs: Sequence.from_exponents(q, xs))


# ---------------------------------------------------------------------------
# Cyclotomic reduction and RootSum arithmetic.


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 12])
def test_full_orbit_sums_to_zero(q):
    assert RootSum.from_counts(q, [1] * q).is_zero


def test_gaussian_cancellation_is_exact():
    # 1 + zeta_4^2 = 1 + (-1) = 0, detected without floats
    v = RootSum.from_exponent(4, 0) + RootSum.from_exponent(4, 2)
    assert v.is_zero
    w = RootSum.from_exponent(4, 0) + RootSum.from_exponent(4, 1)
    assert not w.is_zero
    assert w.gaussian() == (1, 1)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
def test_rootsum_float_agreement(q):
    counts = [(7 * t + 3) % 5 for t in range(q)]
    v = RootSum.from_counts(q, counts)
    direct = sum(c * cmath.exp(2j * cmath.pi * t / q) for t, c in enumerate(counts))
    assert abs(v.to_complex() - direct) < 1e-9


@given(st.integers(2, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_rootsum_ring_laws(q, data):
    exps = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    a = RootSum.from_counts(q, [exps.count(t) for t in range(q)])
    t = data.draw(st.integers(0, q - 1))
    b = RootSum.from_exponent(q, t)
    assert a + b == b + a
    assert a * b == b * a
    assert (a - a).is_zero
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.rotated(t) == a * b


def test_rootsum_mixed_orders_rejected():
    with pytest.raises(InputError):
        RootSum.from_int(2, 1) + RootSum.from_int(4, 1)


# ---------------------------------------------------------------------------
# Correlation against frozen hand-evaluated values.


def test_aacf_of_plus_plus_minus_plus():
    prof = aacf(Sequence.from_signs("++-+"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [-1, 0, 1]


def test_aacf_length_one_identity():
    prof = aacf(Sequence.from_signs("+"))
    assert prof.length_n == 1
    assert prof.at(0) == RootSum.from_int(2, 1)
    with pytest.raises(InputError):
        prof.at(1)


def test_accf_two_term_hand_values():
    prof = accf(Sequence.from_signs("++"), Sequence.from_signs("+-"))
    assert [prof.at(t).to_complex() for t in (-1, 0, 1)] == [1, 0, -1]


def test_aacf_of_plus3_minus():
    prof = aacf(Sequence.from_signs("+++-"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [1, 0, -1]


def test_aacf_constant_sequence():
    prof = aacf(Sequence.from_signs("++++"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [3, 2, 1]


def test_aacf_quaternary_brute_values():
    # (1, i, 1): shift 1 gives conj(i) + i = 0, shift 2 gives 1
    prof = aacf(seq(4, 0, 1, 0))
    assert prof.at(1).is_zero
    assert prof.at(2) == RootSum.from_int(4, 1)


def test_accf_rejects_mismatches():
    with pytest.raises(InputError):
        accf(Sequence.from_signs("++"), Sequence.from_signs("+++"))
    with pytest.raises(InputError):
        accf(Sequence.from_signs("++"), seq(4, 0, 0))


# ---------------------------------------------------------------------------
# Elementwise operations.


def test_scale_is_sign_flip_for_binary():
    assert Sequence.from_signs("++-").scale(1) == Sequence.from_signs("--+")


def test_reverse_and_concat():
    assert Sequence.from_signs("++-").reverse() == Sequence.from_signs("-++")
    assert Sequence.from_signs("+-").concat(Sequence.from_signs("+")) == Sequence.from_signs("+-+")


def test_conjugate_negates_exponents():
    assert seq(4, 0, 1, 2, 3).conjugate() == seq(4, 0, 3, 2, 1)


def test_scale_range_checked():
    with pytest.raises(InputError):
        Sequence.from_signs("++").scale(2)


def test_concat_alphabet_checked():
    with pytest.raises(InputError):
        Sequence.from_signs("++").concat(seq(4, 0))


def test_embed_preserves_values():
    s = Sequence.from_signs("+-+")
    e = s.embed(4)
    assert e.q == 4
    assert e.as_complex() == pytest.approx(s.as_complex())
    with pytest.raises(InputError):
        seq(4, 1).embed(6)


def test_sequence_constructor_invariants():
    with pytest.raises(InputError):
        Sequence(Alphabet(2), ())
    with pytest.raises(InputError):
        Sequence(Alphabet(2), (0, 2))
    with pytest.raises(InputError):
        Alphabet(0)


def test_render_pretty_quaternary():
    assert seq(4, 0, 1, 2, 3).render(pretty=True) == "+i-î"
    assert seq(4, 0, 1, 2, 3).render() == "0123"


def test_prefix_takes_leading_elements():
    assert Sequence.from_signs("+-+").prefix(2) == Sequence.from_signs("+-")
    with pytest.raises(InputError):
        Sequence.from_signs("+-+").prefix(0)
    with pytest.raises(InputError):
        Sequence.from_signs("+-+").prefix(4)


# ---------------------------------------------------------------------------
# Algebraic invariants on random sequences.


@given(st.sampled_from([2, 4]), st.data())
@settings(max_examples=80, deadline=None)
def test_conjugate_symmetry(q, data):
    n = data.draw(st.integers(1, 8))
    a = data.draw(sequences(q, n, n))
    b = data.draw(sequences(q, n, n))
    ab = accf(a, b)
    ba = accf(b, a)
    for tau in ab.shifts():
        assert ab.at(tau) == ba.at(-tau).conjugate()


@given(st.sampled_from([2, 4]), st.data())
@settings(max_examples=80, deadline=None)
def test_common_scaling_cancels(q, data):
    n = data.draw(st.integers(1, 8))
    a = data.draw(sequences(q, n, n))
    b = data.draw(sequences(q, n, n))
    u = data.draw(st.integers(0, q - 1))
    assert accf(a.scale(u), b.scale(u)) == accf(a, b)


@given(st.sampled_from([2, 4]), st.data())
@settings(max_examples=80, deadline=None)
def test_reversal_conjugates_aacf(q, data):
    a = data.draw(sequences(q))
    fwd = aacf(a)
    rev = aacf(a.reverse())
    for tau in fwd.shifts():
        assert rev.at(tau) == fwd.at(tau).conjugate()


@given(st.sampled_from([1, 2, 3, 4, 6]), st.data())
@settings(max_examples=80, deadline=None)
def test_conjugation_conjugates_aacf(q, data):
    a = data.draw(sequences(q))
    fwd = aacf(a)
    conj = aacf(a.conjugate())
    for tau in fwd.shifts():
        assert conj.at(tau) == fwd.at(tau).conjugate()


@given(st.sampled_from([1, 2, 3, 4, 6, 8]), st.data())
@settings(max_examples=80, deadline=None)
def test_unimodular_peak_is_exactly_n(q, data):
    a = data.draw(sequences(q))
    assert aacf(a).peak == RootSum.from_int(q, len(a))


@given(st.sampled_from([1, 2, 4]), st.data())
@settings(max_examples=60, deadline=None)
def test_gaussian_coordinates_for_small_q(q, data):
    a = data.draw(sequences(q))
    b = data.draw(sequences(q, len(a), len(a)))
    for tau in range(len(a)):
        v = accf(a, b).at(tau)
        re, im = v.gaussian()
        assert abs(complex(re, im) - v.to_complex()) < 1e-9


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12]), st.integers(1, 70), st.data())
@settings(max_examples=120, deadline=None)
def test_accf_matches_rootsum_oracle(q, n, data):
    a = data.draw(sequences(q, n, n))
    b = data.draw(sequences(q, n, n))
    assert accf(a, b).values == rootsum_accf(a, b)
    assert aacf(a).values == rootsum_accf(a, a)
