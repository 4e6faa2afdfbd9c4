"""Echelon basis construction and Faber polynomial extraction."""

import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from millerzeros.qseries import (EXTRA_WEIGHTS, FormId, QSeries, _power, delta, eisenstein,
                                jfunction)
from millerzeros.miller import (
    IntPolynomial, MillerForm, miller_basis, miller_form,
    faber_json, default_trunc,
    NotInSpaceError, NonIntegralFaberError, _exact_div, _q_over_t, _t_series,
)

from conftest import faber_of, raw_basis, reconstruct

F48_1 = (-24903328, 931860, -2136, 1)
F124_1 = (-21437679033112542661656, 5718177043459037019999,
          -188671766710386398400, 1942806055074346280,
          -8750844530401680, 20207360640402, -25703594848,
          18182340, -6696, 1)


# ---------------------------------------------------------------------------
# raw basis

def test_raw_basis_weight_12_is_delta():
    e = raw_basis(FormId.from_k(12, 1), trunc=8)
    d = delta(8)
    assert (e - d).is_zero()


def test_raw_basis_weight_16():
    e = raw_basis(FormId.from_k(16, 1), trunc=6)
    assert e.coeff(1) == 1 and e.coeff(2) == 216


def test_raw_basis_lead_normalisation():
    for k in (12, 24, 36, 48, 60, 72, 76, 86):
        ell = FormId.from_k(k, 0).ell
        if ell > 6:
            continue
        for m in range(0, ell + 1):
            e = raw_basis(FormId.from_k(k, m))
            assert e.order == m and e.coeff(m) == 1


# ---------------------------------------------------------------------------
# golden Faber polynomials

def test_faber_48_1_golden(form_48_1):
    assert form_48_1.faber.coeffs == F48_1
    assert form_48_1.faber.as_text() == "t^3 - 2136*t^2 + 931860*t - 24903328"


def test_faber_124_1_golden(form_124_1):
    assert form_124_1.faber.coeffs == F124_1


def test_weight_12_faber_is_constant_one():
    f = miller_form(12, 1)
    assert f.faber.coeffs == (1,)
    assert (f.series - delta(f.series.trunc)).is_zero()


def test_basis_invariants_sampled():
    for k in (24, 52, 90, 124, 158, 180):
        for f in miller_basis(k):
            fid = f.id
            assert f.series.coeff(fid.m) == 1
            assert all(f.series.coeff(n) == 0 for n in range(fid.m + 1, fid.ell + 1))
            assert f.faber.degree == fid.ell - fid.m
            assert f.faber.is_monic()
            assert all(isinstance(c, int) for c in f.faber.coeffs)
            f.check()


def test_reconstruction_up_to_180():
    for k in range(12, 181, 12):
        for f in miller_basis(k):
            assert (reconstruct(f) - f.series).is_zero()
    for k in (124, 134, 158, 166):
        f = miller_form(k, 1)
        assert (reconstruct(f) - f.series).is_zero()


def test_uniqueness_against_dense_elimination():
    # independent oracle: textbook row reduction over Fractions
    for k in (48, 66):
        fid0 = FormId.from_k(k, 0)
        ell = fid0.ell
        trunc = default_trunc(ell)
        rows = [[Fraction(raw_basis(FormId.from_k(k, m), trunc).coeff(n))
                 for n in range(trunc + 1)] for m in range(1, ell + 1)]
        nrows = len(rows)
        for i in range(nrows):
            piv = rows[i][i + 1]
            assert piv != 0
            rows[i] = [c / piv for c in rows[i]]
            for r in range(nrows):
                if r != i and rows[r][i + 1] != 0:
                    f = rows[r][i + 1]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
        for m, f in zip(range(1, ell + 1), miller_basis(k, trunc=trunc)):
            assert [Fraction(f.series.coeff(n)) for n in range(trunc + 1)] == rows[m - 1]


@lru_cache(maxsize=None)
def _raw(k, m, trunc):
    return raw_basis(FormId.from_k(k, m), trunc)


def reference_form(k, m, trunc=None):
    """g_{k,m} and F_{k,m} by division-free elimination against the raw family.

    q^(m+1)..q^ell of e_{k,m} are cancelled in turn by e_{k,n}, n > m;
    every pivot leads with 1, so the multipliers are the integers being
    cancelled, and the subtracted multiples of j^(ell-n) make up F.
    """
    ell = FormId.from_k(k, m).ell
    if trunc is None:
        trunc = default_trunc(ell)
    poly = [0] * (ell - m) + [1]
    r = _raw(k, m, trunc)
    for n in range(m + 1, ell + 1):
        c = r.coeff(n)
        if c:
            r = r - _raw(k, n, trunc).scale(c)
        poly[ell - n] = -c
    return r, IntPolynomial.make(poly)


def test_single_forms_match_family_elimination_small_weights():
    # every weight with ell <= 14, every k' and every 0 <= m <= ell
    for ell in range(15):
        for kprime in EXTRA_WEIGHTS:
            k = 12 * ell + kprime
            for m in range(ell + 1):
                series, faber = reference_form(k, m)
                form = miller_form(k, m)
                assert form.series == series and form.faber == faber, (k, m)


@pytest.mark.parametrize("k, m, trunc", [(48, 1, 64), (392, 1, None), (448, 1, None),
                                         (340, 2, None)])
def test_single_forms_match_family_elimination(k, m, trunc):
    series, faber = reference_form(k, m, trunc)
    form = miller_form(k, m, trunc)
    assert form.series == series and form.faber == faber


def test_trunc_must_reach_ell_plus_one():
    with pytest.raises(ValueError):
        miller_form(48, 1, trunc=4)         # ell = 4
    with pytest.raises(ValueError):
        miller_form(48, 0, trunc=4)
    assert miller_form(48, 1, trunc=5).series.trunc == 5


def test_gap_form():
    g = miller_form(36, 0)
    assert g.id.m == 0
    assert g.series.coeff(0) == 1
    assert all(g.series.coeff(n) == 0 for n in range(1, 4))
    assert g.faber.degree == 3 and g.faber.is_monic()
    assert (reconstruct(g) - g.series).is_zero()


def test_no_cusp_forms_below_weight_12():
    assert miller_basis(4) == ()
    assert miller_basis(10) == ()
    with pytest.raises(ValueError):
        miller_form(4, 1)           # m exceeds ell = 0


def test_trunc_is_resolved_before_the_basis_cache():
    misses = miller_basis.cache_info().misses
    one = miller_basis(100)
    assert miller_basis(100, trunc=None) is one
    assert miller_basis(100, default_trunc(8)) is one
    assert miller_basis.cache_info().misses <= misses + 1
    assert miller_basis(100, default_trunc(8) + 1) is not one


# ---------------------------------------------------------------------------
# the series in t = 1/j, checked in q by an independent composition

def _in_q(coeffs, n):
    """sum_r coeffs[r] t^r with t = 1/j, as a q-series to q^n, by Horner."""
    t = jfunction(n) ** -1
    acc = QSeries.zero(n)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc.truncate(n)


def test_t_series_are_e4_e6_and_q_over_t():
    n = 60
    a_t, b_t = _t_series(n + 1)
    q_t = _q_over_t(a_t, b_t, 1)
    a_q, b_q = _in_q(a_t, n), _in_q(b_t, n)
    t = jfunction(n) ** -1
    assert a_q * a_q == eisenstein(4, n)
    e6 = eisenstein(6, n)
    assert (a_q ** 6 * (1 - t.scale(1728))).truncate(n) == e6 * e6
    assert e6 * b_q == a_q ** 3
    assert (t * _in_q(q_t, n)).truncate(n) == QSeries.monomial(1, n)
    assert _q_over_t(a_t, b_t, 3) == _power(q_t, 3)
    assert _q_over_t(a_t, b_t, 0) == [1] + [0] * n


def test_exact_div_refuses_a_remainder():
    assert _exact_div(-12, 4) == -3
    with pytest.raises(NonIntegralFaberError):
        _exact_div(13, 4)


# ---------------------------------------------------------------------------
# regression goldens for the build: sha256 of faber_json(f), and of
# faber_json(f) + "\n" + f.series.to_json() for whole forms, taken from the
# greedy q-domain reduction

FABER_SHA256 = {
    1900: "902118e4d5f05c59b8104da8f8c6e2de3bfd975b22455e98e09b8aa26e9b6969",
    1912: "248870378a62218ed83aa3e3a105d463917e2611f4f878e118b966573a21ed5b",
    1924: "aa0b2df9d1bc25dd58a8a0ae7728f34df4dc3241b3c1ee016b00ab9810d29ead",
    1936: "d5975225f906fe75f73411edbbed83f2603141701299b6bd6546072830ea6b1f",
}

FORM_SHA256 = {
    (300, 0, None): "eb43c9eda0d2def5097461dc5e8c00ccec601e2416f5ff0d3f19b4e74edc89df",
    (300, 12, None): "ef9aad8488b9d806a1bdb1a2f7cefa668ee102fab8797b7bccd93371130f74ef",
    (304, 0, None): "22b90d9962417faf950e3ba52bd5de716f37d2819cb920e5d69aa6d363b9af8f",
    (304, 12, None): "8038a853fde0f5a73aedcac82f8b1f9a85e1bbec7a2140a071255ffc00eebe69",
    (306, 0, None): "444dda1c5b8164c537bcc123e894e3247555a7a38e74cdc558682abc3cf96562",
    (306, 12, None): "ec100bf18b97655e8fc951b56f6e62a50c1e3f5cf68a1063e378cc3962a21e1d",
    (308, 0, None): "e8c7db07b0b5bafc9c5977423f917dc80732d8567bbb4eaa4a445374d38bf4ce",
    (308, 12, None): "97f2ce4d977719b8c8519046d4e93c0dcffbd03afafce60e0a5f6b2c4c9300fe",
    (310, 0, None): "d185a209de30e834ec0da0a3a67630d0ce195b5f84ebc7eccde237850f69ee2a",
    (310, 12, None): "d4469aeb5d225f1b4fb209a089d1864d1cbafb3eb3608508684903f6be72b776",
    (314, 0, None): "b4b787d8a0d6da10537f1c929224537ed13782d34cff28f2d0d19dcdd3740dfa",
    (314, 12, None): "eb7fb6b26508850e4f72359326fa5162bb6407673ff254eccfa3a0efbc2aca61",
    (48, 1, 64): "e63ba2cef674c2629b58ba22cd9875ae779c9658515949edd73ba48a98022609",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(FABER_SHA256))
def test_large_weight_faber_golden(k):
    assert _sha256(faber_json(miller_form(k, 1))) == FABER_SHA256[k]


@pytest.mark.parametrize("k, m, trunc", sorted(FORM_SHA256, key=str))
def test_form_golden(k, m, trunc):
    f = miller_form(k, m, trunc)
    assert _sha256(faber_json(f) + "\n" + f.series.to_json()) == FORM_SHA256[(k, m, trunc)]


@pytest.mark.parametrize("k", [120, 124, 126, 128, 130, 134])
def test_build_agrees_with_q_domain_reduction(k):
    # every k' once: the basis, the single forms and faber_of's greedy
    # q-domain reduction of each series give one and the same form
    basis = miller_basis(k)
    assert len(basis) == FormId.from_k(k, 0).ell
    for m, f in enumerate(basis, start=1):
        assert f == miller_form(k, m)
        assert faber_of(f.series, f.id) == f.faber
    g = miller_form(k, 0)
    assert faber_of(g.series, g.id) == g.faber


# ---------------------------------------------------------------------------
# faber_of

def test_faber_of_raw_bottom_is_one():
    fid = FormId.from_k(48, 4)
    e = raw_basis(fid)
    assert faber_of(e, fid).coeffs == (1,)


def test_faber_of_weight_22_product():
    # E4 * E6 * Delta has ell = 1, kprime = 10, ord_infty = 1
    n = 8
    s = eisenstein(4, n) * eisenstein(6, n) * delta(n)
    assert faber_of(s, FormId.from_k(22, 1)).coeffs == (1,)


def test_faber_of_miller_forms_round_trip(form_48_1, form_124_1):
    for f in (form_48_1, form_124_1):
        assert faber_of(f.series, f.id) == f.faber


def test_faber_of_rejects_outside_space(form_48_1):
    fid = form_48_1.id
    tampered = form_48_1.series + QSeries.monomial(fid.ell + 2, form_48_1.series.trunc)
    with pytest.raises(NotInSpaceError):
        faber_of(tampered, fid)


def test_faber_of_rejects_vanishing_series(form_48_1):
    fid = form_48_1.id
    zero = QSeries.zero(fid.ell + 6)
    with pytest.raises(NotInSpaceError):
        faber_of(zero, fid)


def test_faber_of_rejects_pole():
    j = jfunction(12)
    with pytest.raises(NotInSpaceError):
        faber_of(j, FormId.from_k(24, 0))


def test_faber_of_non_integral(form_48_1):
    half = form_48_1.series.scale(Fraction(1, 2))
    with pytest.raises(NonIntegralFaberError):
        faber_of(half, form_48_1.id)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
def test_faber_of_linearity(a, b):
    f1 = miller_form(60, 1)
    f2 = miller_form(60, 2)
    comb = f1.series.scale(a) + f2.series.scale(b)
    if comb.is_zero():
        return
    p = faber_of(comb, FormId.from_k(60, comb.order))
    want = a * f1.faber + b * f2.faber
    assert p == want


# ---------------------------------------------------------------------------
# polynomial helpers and serialization

def test_intpolynomial_horner_exact():
    p = IntPolynomial.make([-6, 11, -6, 1])      # (x-1)(x-2)(x-3)
    assert p(1) == 0 and p(2) == 0 and p(3) == 0
    assert p(Fraction(1, 2)) == Fraction(-15, 8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=7),
       st.lists(st.integers(-50, 50), min_size=1, max_size=7), st.integers(-9, 9))
def test_intpolynomial_product_is_the_product_of_values(a, b, x):
    p, q = IntPolynomial.make(a), IntPolynomial.make(b)
    assert (p * q)(x) == p(x) * q(x)
    assert (p * q).degree == (-1 if p.degree < 0 or q.degree < 0 else p.degree + q.degree)
    assert (p * 3).coeffs == tuple(3 * c for c in p.coeffs) and (p * 0).degree == -1


def test_intpolynomial_derivative():
    p = IntPolynomial.make([5, 0, -3, 2])
    assert p.derivative().coeffs == (0, -6, 6)


def test_faber_json_shape(form_48_1):
    import json
    d = json.loads(faber_json(form_48_1))
    assert d["k"] == 48 and d["m"] == 1
    assert d["coeffs"] == ["1", "-2136", "931860", "-24903328"]


def test_millerform_check_detects_tampering(form_48_1):
    bad = MillerForm(form_48_1.id, form_48_1.series,
                     IntPolynomial.make([1, 1]))
    with pytest.raises(NotInSpaceError):
        bad.check()
