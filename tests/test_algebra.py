"""Core algebra: exact root-of-unity arithmetic and aperiodic correlation."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import (
    RootSum,
    Sequence,
    aacf,
    accf,
    cyclotomic_polynomial,
)
from cskit.errors import InputError
from cskit.io import SET_LEN_CAP

from helpers import (
    conj_rootsum,
    conjugate,
    int_rootsum,
    oracle_as_complex,
    oracle_coordinate_accf,
    oracle_render,
    oracle_scale,
    profile_values,
    reverse,
    rootsum_accf,
    signs,
)


def seq(q, *exps):
    return Sequence.from_exponents(q, exps)


def sequences(q, min_len=1, max_len=10):
    return st.lists(
        st.integers(0, q - 1), min_size=min_len, max_size=max_len
    ).map(lambda xs: Sequence.from_exponents(q, xs))


# ---------------------------------------------------------------------------
# Cyclotomic reduction into canonical RootSum coordinates.


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(InputError, match="^cyclotomic polynomial needs n >= 1, got 0$"):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 6, 8, 12])
def test_full_orbit_sums_to_zero(q):
    assert not any(RootSum.from_counts(q, [1] * q).coords)


def test_gaussian_cancellation_is_exact():
    # 1 + zeta_4^2 = 1 + (-1) = 0, detected without floats
    assert RootSum.from_counts(4, [1, 0, 1, 0]) == int_rootsum(4, 0)
    assert RootSum.from_counts(4, [1, 1, 0, 0]).coords == (1, 1)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 8])
def test_rootsum_float_agreement(q):
    counts = [(7 * t + 3) % 5 for t in range(q)]
    v = RootSum.from_counts(q, counts)
    direct = sum(c * cmath.exp(2j * cmath.pi * t / q) for t, c in enumerate(counts))
    assert abs(v.to_complex() - direct) < 1e-9


# ---------------------------------------------------------------------------
# Correlation against frozen hand-evaluated values.


def test_aacf_of_plus_plus_minus_plus():
    prof = aacf(signs("++-+"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [-1, 0, 1]


def test_aacf_length_one_identity():
    prof = aacf(signs("+"))
    assert prof.length_n == 1
    assert prof.at(0) == int_rootsum(2, 1)
    with pytest.raises(InputError):
        prof.at(1)
    with pytest.raises(InputError, match="^cannot add profiles of different root orders or "
                                         "lengths$"):
        prof + aacf(signs("++"))
    assert prof != prof.at(0) and prof.__eq__(prof.at(0)) is NotImplemented


def test_accf_two_term_hand_values():
    prof = accf(signs("++"), signs("+-"))
    assert [prof.at(t).to_complex() for t in (-1, 0, 1)] == [1, 0, -1]


def test_aacf_of_plus3_minus():
    prof = aacf(signs("+++-"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [1, 0, -1]


def test_aacf_constant_sequence():
    prof = aacf(signs("++++"))
    assert [prof.at(t).to_complex() for t in (1, 2, 3)] == [3, 2, 1]


def test_aacf_quaternary_brute_values():
    # (1, i, 1): shift 1 gives conj(i) + i = 0, shift 2 gives 1
    prof = aacf(seq(4, 0, 1, 0))
    assert not any(prof.at(1).coords)
    assert prof.at(2) == int_rootsum(4, 1)


def test_accf_rejects_mismatches():
    with pytest.raises(InputError):
        accf(signs("++"), signs("+++"))
    with pytest.raises(InputError):
        accf(signs("++"), seq(4, 0, 0))


# ---------------------------------------------------------------------------
# Elementwise operations.


def test_scale_is_sign_flip_for_binary():
    assert signs("++-").scale(1) == signs("--+")


def test_reverse_and_concat():
    assert reverse(signs("++-")) == signs("-++")
    assert signs("+-").concat(signs("+")) == signs("+-+")


def test_conjugate_negates_exponents():
    assert conjugate(seq(4, 0, 1, 2, 3)) == seq(4, 0, 3, 2, 1)


def test_scale_range_checked():
    with pytest.raises(InputError):
        signs("++").scale(2)


def test_concat_alphabet_checked():
    with pytest.raises(InputError):
        signs("++").concat(seq(4, 0))


def test_sequence_constructor_invariants():
    with pytest.raises(InputError):
        Sequence(2, ())
    with pytest.raises(InputError):
        Sequence(2, (0, 2))
    with pytest.raises(InputError, match="alphabet order"):
        Sequence(0, (0,))
    with pytest.raises(InputError, match="alphabet order"):
        Sequence.from_exponents(0, (0,))
    # the message names the first entry out of range, not the extreme one
    with pytest.raises(InputError, match=r"^exponent 5 outside \[0, 4\)$"):
        Sequence(4, (0, 5, -1, 9))


def test_render_pretty_quaternary():
    assert seq(4, 0, 1, 2, 3).render(pretty=True) == "+i-î"
    assert seq(4, 0, 1, 2, 3).render() == "0123"


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
    for tau in range(-(n - 1), n):
        assert ab.at(tau) == conj_rootsum(ba.at(-tau))


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
    rev = aacf(reverse(a))
    for tau in range(-(len(a) - 1), len(a)):
        assert rev.at(tau) == conj_rootsum(fwd.at(tau))


@given(st.sampled_from([1, 2, 3, 4, 6]), st.data())
@settings(max_examples=80, deadline=None)
def test_conjugation_conjugates_aacf(q, data):
    a = data.draw(sequences(q))
    fwd = aacf(a)
    conj = aacf(conjugate(a))
    for tau in range(-(len(a) - 1), len(a)):
        assert conj.at(tau) == conj_rootsum(fwd.at(tau))


@given(st.sampled_from([1, 2, 3, 4, 6, 8]), st.data())
@settings(max_examples=80, deadline=None)
def test_unimodular_peak_is_exactly_n(q, data):
    a = data.draw(sequences(q))
    assert aacf(a).peak == int_rootsum(q, len(a))


@given(st.sampled_from([1, 2, 4]), st.data())
@settings(max_examples=60, deadline=None)
def test_gaussian_coordinates_for_small_q(q, data):
    # the canonical coordinates are the real part, then (q=4) the imaginary part
    a = data.draw(sequences(q))
    b = data.draw(sequences(q, len(a), len(a)))
    for tau in range(len(a)):
        v = accf(a, b).at(tau)
        assert abs(complex(*v.coords) - v.to_complex()) < 1e-9


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10]), st.integers(1, 70), st.data())
@settings(max_examples=120, deadline=None)
def test_accf_matches_rootsum_oracle(q, n, data):
    a = data.draw(sequences(q, n, n))
    b = data.draw(sequences(q, n, n))
    assert profile_values(accf(a, b)) == rootsum_accf(a, b)
    assert profile_values(aacf(a)) == rootsum_accf(a, a)


@st.composite
def gaussian_rows(draw, q, n):
    # random, constant or alternating (1, -1 or 1, i) rows over q in {1, 2, 4}
    kind = draw(st.sampled_from(["random", "constant", "alternating"]))
    if kind == "random":
        return draw(sequences(q, n, n))
    if kind == "constant":
        return Sequence.from_exponents(q, [draw(st.integers(0, q - 1))] * n)
    step = draw(st.sampled_from([q // 2, q // 4] if q == 4 else [q // 2]))
    return Sequence.from_exponents(q, [k % 2 * step for k in range(n)])


@given(st.sampled_from([1, 2, 4]), st.integers(1, 300), st.data())
@settings(max_examples=120, deadline=None)
def test_gaussian_kernel_matches_coordinate_oracle(q, n, data):
    a, b = data.draw(gaussian_rows(q, n)), data.draw(gaussian_rows(q, n))
    phi = 1 + (q == 4)
    for got, want in ((accf(a, b).coords, oracle_coordinate_accf(a, b)),
                      (aacf(a).coords, oracle_coordinate_accf(a, a))):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (2 * n - 1, phi)
        assert np.array_equal(got, want)


def test_gaussian_kernel_is_exact_at_the_set_length_cap():
    # closed forms: a constant row gives N - |tau| at shift tau, and an
    # alternating +-1 row (-1)^tau (N - |tau|); every partial sum is an integer
    n = SET_LEN_CAP
    tau = np.arange(-(n - 1), n)
    const = aacf(Sequence.from_exponents(4, [1] * n)).coords
    assert np.array_equal(const[:, 0], n - abs(tau)) and not const[:, 1].any()
    alternating = aacf(Sequence.from_exponents(2, [k % 2 for k in range(n)])).coords
    assert np.array_equal(alternating[:, 0], (-1) ** abs(tau) * (n - abs(tau)))


@pytest.mark.parametrize("q,correlations", [(1, 1), (2, 1), (4, 1), (3, 4), (8, 16)])
def test_kernel_correlations_per_row_pair(monkeypatch, q, correlations):
    # one Gaussian-integer correlation for q in {1, 2, 4}; phi(q)^2 otherwise
    calls = []
    real = np.correlate
    monkeypatch.setattr(np, "correlate", lambda *args: calls.append(1) or real(*args))
    a = Sequence.from_exponents(q, range(7))
    aacf(a)
    accf(a, a.scale(q - 1))
    assert len(calls) == 2 * correlations


# ---------------------------------------------------------------------------
# Entry maps against the per-entry loops they replaced.


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 10]), st.data())
@settings(max_examples=150, deadline=None)
def test_scale_and_negate_match_loop_oracle(q, data):
    a = data.draw(sequences(q, 1, 40))
    u = data.draw(st.integers(0, q - 1))
    assert a.scale(u).exponents == oracle_scale(a, u)
    if q % 2 == 0:
        assert a.negate().exponents == oracle_scale(a, q // 2)
    else:
        with pytest.raises(InputError, match=f"^-1 is not a root of unity for q={q}$"):
            a.negate()


@given(st.sampled_from([1, 2, 3, 4, 5, 8, 10]), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_render_matches_loop_oracle(q, pretty, data):
    a = data.draw(sequences(q, 1, 40))
    assert a.render(pretty) == oracle_render(a, pretty)


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8]), st.data())
@settings(max_examples=150, deadline=None)
def test_as_complex_is_bit_identical_to_loop_oracle(q, data):
    a = data.draw(sequences(q, 1, 40))
    # repr tells -0.0 from 0.0, so equal reprs are equal bits
    assert list(map(repr, a.as_complex())) == list(map(repr, oracle_as_complex(a)))
