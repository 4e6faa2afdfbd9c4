"""Bound-certification machinery: basis conversions, certificates, ledgers."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, workprec

from millerzeros import certify
from millerzeros.evalnum import CertValue, _exact, arc_functions, arc_grid
from millerzeros.certify import (
    BoundLedgerEntry, DomainError,
    _cheb_t, chebyshev_to_monomial, polynomial_derivative, goursat_transform, horner,
    _certified_root_decreasing, j_approx, j_approx_error,
    monotonicity_certificate_075, magnitude_certificate_065,
    j_difference_bounds, delta_line_lower, delta_line_upper,
    residue_term, residue_entries, _residue_slope, _table_value,
    proposition_mrl_check, _amplitude, _entry_lower, _entry_upper,
    full_ledger, _LINE_CASES, _dominated_tail, _pad_of,
    _ARC_CLAIMS, _DEPTH, _arc_slopes, _bisect_claims, arc_eisenstein_bounds,
)
from millerzeros.evalnum import EisensteinTail, eval_series
from millerzeros.qseries import eisenstein
from millerzeros.qseries import bernoulli

PRINTED_TABLE = {
    ("075", 0): 51.31, ("075", 4): 21.72, ("075", 6): 19.5,
    ("075", 8): 9.2, ("075", 10): 8.3, ("075", 14): 3.5,
    ("065", 0): 166.7, ("065", 4): 25.1, ("065", 6): 33.78,
    ("065", 8): 3.8, ("065", 10): 5.08, ("065", 14): 1.0,
}


# ---------------------------------------------------------------------------
# basis conversions

def test_chebyshev_goldens():
    assert _cheb_t(0) == (1,)
    assert _cheb_t(1) == (0, 1)
    assert _cheb_t(2) == (-1, 0, 2)
    assert _cheb_t(3) == (0, -3, 0, 4)
    assert _cheb_t(4) == (1, 0, -8, 0, 8)
    assert _cheb_t(5) == (0, 5, 0, -20, 0, 16)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=1, max_size=9),
       st.fractions(min_value=-1, max_value=1, max_denominator=16))
def test_chebyshev_to_monomial_matches_recurrence(coeffs, z):
    # sum c_k T_k(z) with T_(k+1) = 2 z T_k - T_(k-1)
    t_prev, t, total = Fraction(1), z, Fraction(0)
    for k, c in enumerate(coeffs):
        total += c * (t_prev if k == 0 else t)
        if k:
            t_prev, t = t, 2 * z * t - t_prev
    assert horner(chebyshev_to_monomial(coeffs), z) == total


def test_polynomial_derivative():
    assert polynomial_derivative([Fraction(5), Fraction(0), Fraction(-3), Fraction(2)]) \
        == [Fraction(0), Fraction(-6), Fraction(6)]


def test_goursat_transform_hand_cases():
    # P(t) = t, degree 1: (1+z) * (1-z)/(1+z) = 1 - z
    assert goursat_transform([Fraction(0), Fraction(1)]) == [1, -1]
    # P(t) = t^2, degree 2: (1-z)^2
    assert goursat_transform([Fraction(0), Fraction(0), Fraction(1)]) == [1, -2, 1]
    # P(t) = 1 + t, degree 1: (1+z) + (1-z) = 2
    assert goursat_transform([Fraction(1), Fraction(1)]) == [2, 0]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6),
       st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4),
                    max_denominator=64))
def test_goursat_is_change_of_variable(coeffs, t):
    # P(t) * (1+z)^d == G(z) at z = (1-t)/(1+t), exactly over rationals
    coeffs = [Fraction(c) for c in coeffs]
    d = len(coeffs) - 1
    g = goursat_transform(coeffs)
    z = (1 - t) / (1 + t)
    lhs = horner(coeffs, t) * (1 + z) ** d
    assert horner(g, z) == lhs


def test_certified_root_simple():
    coeffs = [CertValue(mpf(2)), CertValue(mpf(-1))]       # 2 - x
    r = _certified_root_decreasing(coeffs, 0.0, 4.0)
    assert abs(r.value - 2) <= r.err + mpf(10) ** -10


# ---------------------------------------------------------------------------
# truncated j approximations

def test_j_approx_reference_angle():
    with workprec(140):
        a = mp.sin(mpf("1.9"))
        f19 = j_approx(6, a, mp.cos(mpf("1.9")))
        assert abs(f19.real().value - mpf("271.09885")) < 1e-3
        assert j_approx_error(6, a) < 4e-4


def test_j_approx_error_magnitudes():
    assert j_approx_error(5, 0.75) < 10
    assert j_approx_error(7, 0.65) < 10
    assert j_approx_error(7, 0.65) < j_approx_error(5, 0.65)


# ---------------------------------------------------------------------------
# analytic certificates

def test_monotonicity_certificate(ledger_by_name):
    cert = monotonicity_certificate_075()
    assert abs(cert.x0.value - mpf("0.253311")) < 1e-4
    assert all(e.satisfied for e in cert.entries)
    assert 0.2 < float(cert.x0.value) < 0.5
    assert ledger_by_name["refit.x0"].satisfied


def test_magnitude_certificate(ledger_by_name):
    cert = magnitude_certificate_065()
    assert abs(cert.value_at_half.value - mpf("593.543")) < 1e-2
    assert all(e.satisfied for e in cert.entries)
    assert ledger_by_name["magfit.value-at-half"].satisfied


def test_j_difference_bounds():
    rep = j_difference_bounds()
    assert rep.min_diff_075 >= 176
    assert rep.min_diff_065 >= 311
    assert 271 < rep.j19.value < 272
    assert all(e.satisfied for e in rep.entries)


def test_j_difference_bounds_carry_no_floats():
    # the separations are exact rationals, the tail bounds mpf upper bounds,
    # and j19 is widened by Im f19 and the tail without rounding either down
    rep = j_difference_bounds()
    assert isinstance(rep.min_diff_075, Fraction) and isinstance(rep.min_diff_065, Fraction)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["jdiff.sep-075"].computed == float(rep.min_diff_075)
    assert by_name["jdiff.sep-065"].computed == float(rep.min_diff_065)
    with workprec(140):
        a19 = mp.sin(mpf(1.9))
        err19 = j_approx_error(6, a19)
        f19 = j_approx(6, a19, mp.cos(mpf(1.9)))
    assert isinstance(err19, mpf)
    assert by_name["jdiff.approx-error-19"].computed == float(err19)
    need = _exact(f19.err) + _exact(err19) + abs(_exact(f19.imag().value))
    assert _exact(rep.j19.err) >= need


# ---------------------------------------------------------------------------
# delta and residue bounds

def test_delta_line_bounds():
    assert delta_line_lower("0.65") > mpf("0.01")
    assert delta_line_lower("0.75") > mpf("0.007")
    for y in ("0.65", "0.75", "1.0"):
        assert delta_line_lower(y) < delta_line_upper(y)
    with pytest.raises(DomainError):
        delta_line_lower("0.05")


def test_residue_term_at_corner():
    with workprec(120):
        rho_end = 2 * mp.pi / 3
        for (k, m) in ((192, 1), (48, 2)):
            rv = residue_term(rho_end, k, m)
            assert abs(rv.value - 1) <= rv.err + mpf(10) ** -20


def test_residue_entries_all_satisfied():
    entries = residue_entries(192, 1)
    assert entries and all(e.satisfied for e in entries)


def _log_residue_slope(t, k, m):
    return (mp.pi * m * (2 * mp.cos(t) - mp.sec(t / 2) ** 2 / 2)
            + k * mp.tan(t / 2) / 2)


@pytest.mark.parametrize("k,m", [(192, 1), (48, 2), (40, 3)])
def test_residue_slope_encloses_the_log_derivative(k, m):
    # every enclosure the bisection visits holds D = (log r)' at 200 angles
    # of its interval, ends included; (40, 3) is below k >= 8 pi m / sqrt 3
    # and D > 0 still certifies there
    seen = []

    def enclose(a, b):
        seen.append((a, b, _residue_slope(a, b, k, m)))
        return seen[-1][2]
    with workprec(140):
        held, _ = _bisect_claims(enclose, mp.pi / 2, 2 * mp.pi / 3, {"D": (lambda v: v, 1)})
    assert held == {"D"}
    with workprec(300):
        for a, b, v in seen:
            for i in range(200):
                t = a + (b - a) * i / 199
                assert abs(_log_residue_slope(t, k, m) - v.value) <= v.err
        # the tangent lines of log r at a central difference agree with D
        t, h = mpf("1.8"), mpf(10) ** -30
        log_r = lambda s: mp.pi * m * (2 * mp.sin(s) - mp.tan(s / 2)) - k * mp.log(2 * mp.cos(s / 2))
        assert abs((log_r(t + h) - log_r(t - h)) / (2 * h) - _log_residue_slope(t, k, m)) < 1e-20
    by_name = {e.name: e for e in residue_entries(k, m)}
    assert by_name["residue.below-one"].satisfied
    assert by_name["residue.monotone"].satisfied == (k >= 8 * mp.pi * m / mp.sqrt(3))


def test_residue_flags_fail_where_the_slope_turns_negative():
    # D(2 pi / 3) = -3 pi m + k sqrt(3) / 2 < 0 at (30, 3): r falls into rho
    by_name = {e.name: e for e in residue_entries(30, 3)}
    assert not by_name["residue.monotone"].satisfied
    assert not by_name["residue.below-one"].satisfied


# ---------------------------------------------------------------------------
# the H table and global constants

def test_h_table_below_printed_caps():
    for (label, kprime), cap in PRINTED_TABLE.items():
        got = _table_value(kprime, label)
        assert isinstance(got, Fraction)
        assert got < Fraction(str(cap))
        assert got > Fraction(str(cap)) / 2        # sanity floor


def test_growth_constants(ledger_by_name):
    c1 = ledger_by_name["growth.c1"]
    assert c1.satisfied and abs(c1.computed - 4.4039996) < 1e-5
    c2 = ledger_by_name["growth.c2"]
    assert c2.satisfied and abs(c2.computed - 9.110132) < 1e-3
    for name in ("growth.b1", "growth.b2", "growth.c1-cap", "growth.c2-cap"):
        assert ledger_by_name[name].satisfied


# ---------------------------------------------------------------------------
# ledger plumbing

def test_ledger_all_satisfied(ledger_entries):
    assert len(ledger_entries) >= 100
    assert all(e.satisfied for e in ledger_entries)


def test_ledger_key_presence(ledger_by_name):
    for name in ("delta.at-i", "delta.at-rho",
                 "delta.line-065.lower", "delta.line-075.lower",
                 "jdiff.sep-075", "jdiff.sep-065", "jdiff.j19-window",
                 "e4.arc.upper-075", "e6.arc.upper-075",
                 "e4.arc.upper-065", "e6.arc.upper-065", "residue.at-rho",
                 "e4.line.075.assembled", "e6.line.075.assembled",
                 "e4.line.065.assembled", "e6.line.065.assembled"):
        assert name in ledger_by_name, name
    for kp in (0, 4, 6, 8, 10, 14):
        assert f"table.075.k{kp}" in ledger_by_name
        assert f"table.065.k{kp}" in ledger_by_name


def test_assembled_line_caps(ledger_by_name):
    caps = {"e4.line.065.assembled": 5.9, "e4.line.075.assembled": 3.45,
            "e6.line.065.assembled": 14.26, "e6.line.075.assembled": 5.25}
    for name, cap in caps.items():
        e = ledger_by_name[name]
        assert e.satisfied and e.claimed == pytest.approx(cap)


def test_ledger_json_round_trip(ledger_entries):
    e = ledger_entries[0]
    d = json.loads(e.to_json())
    assert set(d) >= {"name", "claimed", "computed", "err", "satisfied"}
    assert d["name"] == e.name


def test_ledger_deterministic_order(ledger_entries):
    again = [e.name for e in full_ledger()]
    assert again == [e.name for e in ledger_entries]


def test_entry_helpers():
    good = BoundLedgerEntry(name="x", claimed=1.0, computed=0.9, err=0.01,
                            satisfied=True, paper_ref="demo")
    assert good.to_json_dict()["satisfied"] is True


# ---------------------------------------------------------------------------
# oscillation report off-hypothesis

def test_mrl_report_off_hypothesis():
    rep = proposition_mrl_check(132, 9, grid_step=2e-2)
    assert rep.hypothesis_ok is False
    assert rep.grid_max > 0
    assert rep.k == 132 and rep.m == 9


def test_mrl_report_lists_violations():
    rep = proposition_mrl_check(48, 3, grid_step=1e-2)
    assert not rep.passed
    assert rep.violations and all(1.57 < t < 2.1 for t in rep.violations)
    assert rep.undecided == []


def test_mrl_report_lists_undecided_angles(monkeypatch):
    # (1200, 3) straddles 2 at some angles at its starting precision; without
    # the ladder they are undecided, neither violations nor passes
    monkeypatch.setattr(certify, "_MRL_LADDER", (1,))
    rep = proposition_mrl_check(1200, 3, grid_step=2e-2)
    assert rep.undecided and rep.violations == []
    assert not rep.passed


def test_amplitude_encloses_the_exponential_at_m_20():
    # x = 2 pi m sin theta reaches 126; the radius grows with x, past the
    # fixed 2^(8 - prec) relative pad it replaces
    for theta in arc_grid(5e-2):
        with workprec(140):
            amp = _amplitude(20, mpf(theta))
            assert amp.err > mp.ldexp(amp.value, 8 - mp.prec)
        with workprec(560):
            want = mp.exp(2 * mp.pi * 20 * mp.sin(mpf(theta)))
            assert abs(want - amp.value) <= amp.err


def test_entry_bounds_compare_with_the_decimal_claim():
    # the double nearest 3.45 is 3.45 + 1.8e-16; a value between the two
    # exceeds the decimal claim although it lies below the double
    with workprec(128):
        between = CertValue(mpf(345) / 100 + mpf(10) ** -17)
        assert between.value < mpf(3.45)
    assert not _entry_upper("x", "demo", between, 3.45).satisfied
    assert _entry_lower("x", "demo", between, 3.45).satisfied


def test_dominated_tail_within_its_pad():
    # the tail is built from the exact rationals, so its only error is
    # ambient rounding, well inside the pad the line ledger gives it
    for k, y, _, _, _, dom in _LINE_CASES:
        with workprec(140):
            tail, dom_ok = _dominated_tail(k, y, 3, dom)
            pad = _pad_of(tail)
        assert dom_ok
        with workprec(256):
            gamma = abs(Fraction(2 * k) / bernoulli(k))
            half = mp.e ** (-mp.pi * y.numerator / y.denominator)
            exact = (mpf(gamma.numerator) / gamma.denominator * dom.numerator
                     / dom.denominator * half ** 3 / (1 - half))
            assert abs(tail - exact) <= pad


def line_maxima(monkeypatch, cases=_LINE_CASES):
    """The .grid entries of eisenstein_line_bounds and the eval_series calls made."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return eval_series(*args, **kwargs)
    monkeypatch.setattr(certify, "eval_series", counting)
    monkeypatch.setattr(certify, "_LINE_CASES", cases)
    grid = {e.name: e for e in certify.eisenstein_line_bounds() if e.name.endswith(".grid")}
    return grid, len(calls)


def test_line_maxima_enclose_the_maximum_within_budget(monkeypatch):
    grid, evaluations = line_maxima(monkeypatch)
    assert evaluations <= 250
    assert all(e.satisfied for e in grid.values()) and len(grid) == 4
    for k, y, *_ in _LINE_CASES:
        e = grid[f"e{k}.line.{'065' if y == Fraction(13, 20) else '075'}.grid"]
        with workprec(400):
            at = [eval_series(eisenstein(k, 100), mp.mpc(mpf(i) / 100, mpf(y.numerator) / y.denominator),
                              EisensteinTail(k), prec=400).abs_upper() for i in range(51)]
        # every value lies under hi; lo sits below the sampled maximum
        assert e.computed - e.err <= max(at) <= e.computed + e.err


@pytest.mark.parametrize("depth", (_DEPTH, 2 * _DEPTH))
def test_line_cap_below_the_maximum_never_holds(depth, monkeypatch):
    # |E_4(0.75 i)| = 3.3353; a cap of 3.30 is false at x = 0
    monkeypatch.setattr(certify, "_DEPTH", depth)
    grid, _ = line_maxima(monkeypatch, ((4, Fraction(3, 4), 3.4, 0.05, 3.30, Fraction(1, 5)),))
    e = grid["e4.line.075.grid"]
    assert not e.satisfied and e.computed - e.err > 3.30


def test_line_claim_fails_at_the_depth_limit(monkeypatch):
    monkeypatch.setattr(certify, "_DEPTH", 1)
    grid, evaluations = line_maxima(monkeypatch, _LINE_CASES[3:])
    assert not grid["e6.line.075.grid"].satisfied and evaluations <= 3


# ---------------------------------------------------------------------------
# arc shape claims

@pytest.mark.parametrize("theta", ("1.6", "1.7", "1.8", "1.9", "2.05"))
def test_arc_slope_identities_match_central_differences(theta):
    prec, eps = 200, mpf(2) ** -30
    with workprec(prec + 12):
        t = mpf(theta)
        at, up, down = (arc_functions(x, prec=prec) for x in (t, t + eps, t - eps))
        slopes = [s.value for s in _arc_slopes(at)]
        slopes.append(-2 * mp.pi * at.e2.value * at.delta_arc.value)
        for name, slope in zip(("e2", "e4", "e6", "delta_arc"), slopes):
            diff = (getattr(up, name).value - getattr(down, name).value) / (2 * eps)
            assert abs(diff - slope) < 1e-10, (name, theta)


def decide_on_arc(claims):
    """(claims that hold on the arc, evaluations), as arc_eisenstein_bounds decides them."""
    calls = []
    with workprec(140):
        held, _ = _bisect_claims(lambda a, b: calls.append(a) or arc_functions((a, b)),
                                 mp.pi / 2, 2 * mp.pi / 3, claims)
    return held, len(calls)


def test_arc_claims_decided_within_budget():
    held, evaluations = decide_on_arc(_ARC_CLAIMS)
    assert held == set(_ARC_CLAIMS)
    assert evaluations <= 40


@pytest.mark.parametrize("depth", (_DEPTH, 2 * _DEPTH))
def test_false_arc_claims_never_hold(depth, monkeypatch):
    # delta > 0, e4^2 - e2 e6 < 0 and e2' > 0
    monkeypatch.setattr(certify, "_DEPTH", depth)
    false = {name: (f, -sign) for name, (f, sign) in _ARC_CLAIMS.items() if name != "R3"}
    assert decide_on_arc(false)[0] == set()
    for name in false:
        assert decide_on_arc({name: false[name]})[0] == set()


def test_open_claims_fail_at_the_depth_limit(monkeypatch):
    monkeypatch.setattr(certify, "_DEPTH", 1)
    held, evaluations = decide_on_arc(_ARC_CLAIMS)
    assert held != set(_ARC_CLAIMS)
    assert evaluations <= 3


def test_arc_flags_follow_their_claims(monkeypatch):
    f, sign = _ARC_CLAIMS["R1"]
    monkeypatch.setattr(certify, "_ARC_CLAIMS", {**_ARC_CLAIMS, "R1": (f, -sign)})
    flags = {e.name: e.satisfied for e in arc_eisenstein_bounds()
             if e.name.endswith((".monotone", ".sign"))}
    assert flags == {"e4.arc.monotone": True, "e6.arc.monotone": True,
                     "delta.arc.monotone": False, "e4.arc.sign": True,
                     "e6.arc.sign": True, "delta.arc.sign": False, "e2.arc.sign": True}
