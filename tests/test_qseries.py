"""Exact q-expansion arithmetic: golden coefficients, identities, properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from millerzeros.qseries import (
    QSeries, FormId, bernoulli, eisenstein, delta, jfunction,
    ZeroLeadingError, UnsupportedWeightError,
    EXTRA_WEIGHTS,
)

from conftest import ramanujan_residuals


def S(lead, coeffs, trunc=None):
    if trunc is None:
        trunc = lead + len(coeffs) - 1
    pad = trunc - lead + 1 - len(coeffs)
    return QSeries.from_coeffs(lead, [Fraction(c) for c in coeffs] + [Fraction(0)] * pad, trunc)


# ---------------------------------------------------------------------------
# ring operations

def test_add_cancellation():
    a = S(0, [1, 1], trunc=5)
    b = S(0, [-1, 1], trunc=5)
    c = a + b
    assert c.lead == 1 and c.coeff(1) == 2 and c.trunc == 5


def test_add_mixed_leads():
    a = S(-1, [1], trunc=3)
    b = S(0, [744], trunc=3)
    c = a + b
    assert c.coeff(-1) == 1 and c.coeff(0) == 744 and c.trunc == 3


def test_constant_below_the_truncation_is_absorbed():
    # j to q^-1 stops below q^0, so a constant lies in its O(q^0)
    j = jfunction(-1)
    assert j + 1 == j and 1 + j == j and j - Fraction(1, 2) == j
    assert 1 - j == -j and (1 - j).trunc == -1
    assert (jfunction(0) + 1).coeffs == (1, 745)


def test_additive_inverse_preserves_trunc():
    e4 = eisenstein(4, 10)
    z = e4 + e4.scale(-1)
    assert z.is_zero() and z.trunc == 10


def test_mul_difference_of_squares():
    a = S(0, [1, 1], trunc=8)
    b = S(0, [1, -1], trunc=8)
    c = a * b
    assert c.coeff(0) == 1 and c.coeff(1) == 0 and c.coeff(2) == -1


def test_pow_empty_product():
    a = S(0, [1, 1], trunc=6)
    assert (a ** 0).coeff(0) == 1 and (a ** 0).lead == 0


def test_pow_cube():
    a = S(0, [1, 1], trunc=6)
    c = a ** 3
    assert [c.coeff(n) for n in range(4)] == [1, 3, 3, 1]


def test_delta_square_lead():
    d = delta(8)
    assert (d * d).lead == 2


def test_recip_geometric():
    a = S(0, [1, -1], trunc=8)
    r = a ** -1
    assert all(r.coeff(n) == 1 for n in range(9))


def test_recip_delta_long_division():
    # long division of 1 by q - 24q^2 + 252q^3 - 1472q^4 + 4830q^5, by hand
    r = delta(8) ** -1
    assert r.lead == -1
    assert [r.coeff(n) for n in range(-1, 4)] == [1, 24, 324, 3200, 25650]


def test_recip_involution():
    e4 = eisenstein(4, 12)
    rr = (e4 ** -1) ** -1
    assert (rr + e4.scale(-1)).is_zero()


def test_recip_zero_leading():
    with pytest.raises(ZeroLeadingError):
        QSeries.zero(3) ** -1


# ---------------------------------------------------------------------------
# named series

def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_eisenstein_goldens():
    e4 = eisenstein(4, 2)
    assert [e4.coeff(n) for n in range(3)] == [1, 240, 2160]
    e6 = eisenstein(6, 2)
    assert [e6.coeff(n) for n in range(3)] == [1, -504, -16632]
    e2 = eisenstein(2, 1)
    assert [e2.coeff(n) for n in range(2)] == [1, -24]
    e0 = eisenstein(0, 5)
    assert e0.coeff(0) == 1 and all(e0.coeff(n) == 0 for n in range(1, 6))


def test_eisenstein_rejects_bad_weight():
    for k in (5, -2, 3):
        with pytest.raises(UnsupportedWeightError):
            eisenstein(k, 4)


def test_truncation_below_the_lowest_names_it():
    with pytest.raises(ValueError, match="at least -1 for j, got -2"):
        jfunction(-2)
    with pytest.raises(ValueError, match="at least 0 for E_4, got -1"):
        eisenstein(4, -1)
    assert jfunction(-1).coeffs == (1,) and eisenstein(4, 0).coeffs == (1,)


@pytest.mark.parametrize("k", EXTRA_WEIGHTS[1:])
def test_eisenstein_integrality(k):
    e = eisenstein(k, 64)
    assert all(e.coeff(n).denominator == 1 for n in range(65))


def test_delta_goldens():
    d = delta(6)
    assert [d.coeff(n) for n in range(1, 7)] == [1, -24, 252, -1472, 4830, -6048]


def test_delta_vs_eisenstein_route():
    e4, e6 = eisenstein(4, 64), eisenstein(6, 64)
    alt = (e4 ** 3 + (e6 * e6).scale(-1)).scale(Fraction(1, 1728))
    assert (delta(64) + alt.scale(-1)).is_zero()


def _list_mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i, x in enumerate(a):
        if x:
            for j_, y in enumerate(b):
                if y and i + j_ <= N:
                    out[i + j_] += x * y
    return out


def eta24_oracle(N):
    """Independent oracle: prod (1-q^n)^24 to q^N, multiplied out with plain lists."""
    poly = [Fraction(1)] + [Fraction(0)] * N
    for n in range(1, N + 1):
        factor = [Fraction(1)] + [Fraction(0)] * N
        factor[n] = Fraction(-1)
        for _ in range(24):
            poly = _list_mul(poly, factor, N)
    return poly


def test_pentagonal_product_brute_force():
    N = 24
    poly = eta24_oracle(N)
    d = delta(N)
    assert all(d.coeff(n + 1) == poly[n] for n in range(N))


def test_j_is_e4_cubed_over_oracle_delta():
    # 1/Delta = q^-1 / prod (1-q^n)^24, the inverse by long division on the oracle
    N = 16
    eta = eta24_oracle(N)
    inv = [Fraction(1)]
    for n in range(1, N + 1):
        inv.append(-sum(eta[i] * inv[n - i] for i in range(1, n + 1)))
    e4 = [eisenstein(4, N).coeff(n) for n in range(N + 1)]
    qj = _list_mul(_list_mul(_list_mul(e4, e4, N), e4, N), inv, N)     # q j
    j = jfunction(N - 1)
    assert j.lead == -1 and j.trunc == N - 1
    assert [j.coeff(n) for n in range(-1, N)] == qj


def test_j_goldens():
    j = jfunction(8)
    assert j.lead == -1 and j.coeff(-1) == 1 and j.coeff(0) == 744
    assert j.coeff(1) == 196884
    assert j.coeff(2) == 21493760
    assert j.coeff(7) == 44656994071935


def test_j_coefficient_bound():
    j = jfunction(64)
    for n in range(1, 65):
        c = j.coeff(n)
        assert c >= 1
        cap = math.exp(4 * math.pi * math.sqrt(n)) / (math.sqrt(2) * n ** 0.75)
        assert float(c) <= cap


def test_delta_times_j_is_e4_cubed():
    d, j = delta(40), jfunction(40)
    lhs = d * j
    rhs = eisenstein(4, 40) ** 3
    assert (lhs + rhs.scale(-1)).is_zero()


def test_weight_identities_exact():
    e4, e6 = eisenstein(4, 64), eisenstein(6, 64)
    assert (eisenstein(8, 64) + (e4 * e4).scale(-1)).is_zero()
    assert (eisenstein(10, 64) + (e4 * e6).scale(-1)).is_zero()
    assert (eisenstein(14, 64) + (e4 * e4 * e6).scale(-1)).is_zero()


def test_ramanujan_residuals_vanish():
    assert all(r.is_zero() for r in ramanujan_residuals(64))


# ---------------------------------------------------------------------------
# properties

def series_strategy(maxlen=7, denmax=4):
    def build(lead, nums, dens):
        coeffs = [Fraction(n, d) for n, d in zip(nums, dens)]
        return QSeries._make(lead, coeffs, lead + len(coeffs) - 1)
    return st.builds(
        build,
        st.integers(min_value=-2, max_value=3),
        st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=maxlen),
        st.lists(st.integers(min_value=1, max_value=denmax), min_size=maxlen, max_size=maxlen),
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(), series_strategy())
def test_mul_commutative(a, b):
    lhs, rhs = a * b, b * a
    assert lhs.lead == rhs.lead and lhs.trunc == rhs.trunc
    assert (lhs + rhs.scale(-1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(series_strategy(5), series_strategy(5), series_strategy(5))
def test_mul_associative(a, b, c):
    lhs, rhs = (a * b) * c, a * (b * c)
    assert lhs.trunc == rhs.trunc
    assert (lhs + rhs.scale(-1)).is_zero()


@settings(max_examples=40, deadline=None)
@given(series_strategy(), series_strategy())
def test_add_trunc_min_rule(a, b):
    assert (a + b).trunc == min(a.trunc, b.trunc)


@settings(max_examples=40, deadline=None)
@given(series_strategy())
def test_recip_two_sided(a):
    if a.is_zero():
        return
    r = a ** -1
    assert r.lead == -a.order
    for prod in (a * r, r * a):
        assert prod.coeff(0) == 1
        assert all(prod.coeff(n) == 0 for n in range(1, prod.trunc + 1))


@settings(max_examples=25, deadline=None)
@given(series_strategy(4), st.integers(min_value=1, max_value=5))
def test_pow_matches_repeated_mul(a, e):
    p = a ** e
    acc = a
    for _ in range(e - 1):
        acc = acc * a
    hi = min(p.trunc, acc.trunc)
    lo = min(p.lead, acc.lead)
    assert all(p.coeff(n) == acc.coeff(n) for n in range(lo, hi + 1))


def nonzero_series(maxlen=6):
    """Leads -2..3 and a nonzero leading coefficient: a unit, a non-unit
    integer or a Fraction; the rest integers or Fractions."""
    coeff = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=5))
    head = st.one_of(st.just(1), st.integers(-9, 9).filter(bool),
                     st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool))
    return st.builds(lambda lead, c0, rest: QSeries.from_coeffs(lead, [c0] + rest),
                     st.integers(-2, 3), head, st.lists(coeff, max_size=maxlen - 1))


@settings(max_examples=60, deadline=None)
@given(nonzero_series(), st.integers(min_value=-3, max_value=5))
def test_pow_any_integer_inverts(a, e):
    p, q = a ** e, a ** -e
    prod = p * q
    assert prod.lead == 0 and prod.coeff(0) == 1
    assert all(prod.coeff(n) == 0 for n in range(1, prod.trunc + 1))
    if e:
        assert prod.trunc == a.trunc - a.lead
        assert (p.lead, p.trunc) == (e * a.lead, e * a.lead + a.trunc - a.lead)
    else:
        assert p == QSeries.one(max(a.trunc, 0))
    for s in (p, q):
        assert all(type(c) in (int, Fraction) for c in s.coeffs)


@settings(max_examples=40, deadline=None)
@given(nonzero_series(), st.integers(min_value=1, max_value=3))
def test_negative_pow_matches_repeated_reciprocal(a, e):
    p, r = a ** -e, a ** -1
    acc = r
    for _ in range(e - 1):
        acc = acc * r
    assert (p.lead, p.trunc) == (acc.lead, acc.trunc)
    assert all(p.coeff(n) == acc.coeff(n) for n in range(p.lead, p.trunc + 1))


def test_pow_zero_series():
    z = QSeries.zero(3)
    assert z ** 2 == QSeries.zero(6)
    for e in (-1, -3):
        with pytest.raises(ZeroLeadingError):
            z ** e


def test_pow_exact_zero_coefficients():
    # 1/(2 + q^2) has zero odd coefficients; each stays an exact 0
    r = QSeries.from_coeffs(0, [2, 0, 1, 0, 0]) ** -1
    assert [r.coeff(n) for n in range(5)] == [Fraction(1, 2), 0, Fraction(-1, 4), 0, Fraction(1, 8)]
    assert all(type(c) in (int, Fraction) for c in r.coeffs)


# ---------------------------------------------------------------------------
# FormId and serialization

def test_formid_partition():
    for k in range(4, 400, 2):
        fid = FormId.from_k(k, 0)
        assert fid.k == 12 * fid.ell + fid.kprime
        assert fid.kprime in EXTRA_WEIGHTS
    f26 = FormId.from_k(26, 1)
    assert f26.kprime == 14 and f26.ell == 1


def test_formid_rejects_bad_index():
    with pytest.raises(ValueError):
        FormId.from_k(48, 5)        # ell = 4
    with pytest.raises(ValueError):
        FormId.from_k(13, 0)
