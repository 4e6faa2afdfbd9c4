"""Bound-certification machinery: basis conversions, certificates, ledgers."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf, workprec

from millerzeros import certify, evalnum
from millerzeros.evalnum import CertValue, _corner_angles, _exact, arc_functions, arc_grid
from millerzeros.certify import (
    BoundLedgerEntry, DomainError,
    _chebyshev, _goursat, _goursat_of_derivative, _hull,
    _certified_root_decreasing,
    monotonicity_certificate_075, magnitude_certificate_065,
    j_difference_bounds, delta_line_bounds,
    residue_term, residue_entries, _residue_slope, _table_value,
    proposition_mrl_check, _oscillation, _abs_ends, _entry_lower, _entry_upper, _entry_value,
    full_ledger, _LINE_CASES, _dominated_tail,
    _ARC_CLAIMS, _DEPTH, _arc_slopes, _bisect_claims, arc_eisenstein_bounds,
)
from millerzeros.evalnum import EisensteinTail, eval_abs, eval_series, j_tail_bound, modular_bounds
from conftest import iv_pair, iv_prec, mid_rad
from millerzeros.miller import IntPolynomial
from millerzeros.qseries import eisenstein, jfunction
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
    assert _chebyshev(0).coeffs == (1,)
    assert _chebyshev(1).coeffs == (0, 1)
    assert _chebyshev(2).coeffs == (-1, 0, 2)
    assert _chebyshev(3).coeffs == (0, -3, 0, 4)
    assert _chebyshev(4).coeffs == (1, 0, -8, 0, 8)
    assert _chebyshev(5).coeffs == (0, 5, 0, -20, 0, 16)


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
    assert sum(c * _chebyshev(k)(z) for k, c in enumerate(coeffs)) == total


def test_goursat_transform_hand_cases():
    # P(t) = t, degree 1: (1+z) * (1-z)/(1+z) = 1 - z
    assert _goursat(IntPolynomial((0, 1)), 1).coeffs == (1, -1)
    # P(t) = t^2, degree 2: (1-z)^2
    assert _goursat(IntPolynomial((0, 0, 1)), 2).coeffs == (1, -2, 1)
    # P(t) = 1 + t, degree 1: (1+z) + (1-z) = 2
    assert _goursat(IntPolynomial((1, 1)), 1).coeffs == (2,)
    # P(t) = 1 taken at degree 2: (1+z)^2
    assert _goursat(IntPolynomial((1,)), 2).coeffs == (1, 2, 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=6),
       st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4),
                    max_denominator=64))
def test_goursat_is_change_of_variable(coeffs, t):
    # P(t) * (1+z)^d == G(z) at z = (1-t)/(1+t), exactly over rationals; a
    # zero leading coefficient leaves deg P below d
    p = IntPolynomial.make(coeffs)
    d = len(coeffs) - 1
    g = _goursat(p, d)
    z = (1 - t) / (1 + t)
    assert g(z) == p(t) * (1 + z) ** d


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6), min_size=2, max_size=9))
def test_goursat_of_derivative_holds_the_exact_coefficients(a):
    # the ball sum of the per-T_n images against the image of the exact sum
    p = IntPolynomial((0,))
    for n, c in enumerate(a):
        p = p + c * _chebyshev(n)
    want = _goursat(p.derivative(), len(a) - 2).coeffs
    with workprec(140):
        got = _goursat_of_derivative([CertValue(c) for c in a])
    assert len(got) == len(a) - 1
    for i, ball in enumerate(got):
        w = want[i] if i < len(want) else 0
        assert abs(_exact(ball.value) - w) <= _exact(ball.err)


def test_certified_root_simple():
    coeffs = [CertValue(mpf(2)), CertValue(mpf(-1))]       # 2 - x
    r = _certified_root_decreasing(coeffs, 0.0, 4.0)
    assert abs(r.value - 2) <= r.err + mpf(10) ** -10


# ---------------------------------------------------------------------------
# truncated j approximations

def test_j_approx_reference_angle():
    with workprec(140):
        a = mp.sin(mpf("1.9"))
        f19, _ = eval_series(jfunction(6), mpc(mp.cos(mpf("1.9")), a), None)
        assert abs(f19.value - mpf("271.09885")) < 1e-3
        assert j_tail_bound(6, a) < 4e-4


def test_j_approx_error_magnitudes():
    assert j_tail_bound(5, 0.75) < 10
    assert j_tail_bound(7, 0.65) < 10
    assert j_tail_bound(7, 0.65) < j_tail_bound(5, 0.65)


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


def test_square_consistency_fails_on_a_small_mismatch(monkeypatch):
    # p(-1) off by 1e-13, far above both radii and far below the old 1e-12 slack
    agree = certify._entry_agree

    def off(name, ref, a, b):
        if name == "magfit.square-consistency":
            a = a + Fraction(1, 10 ** 13)
        return agree(name, ref, a, b)
    flags = {e.name: e.satisfied for e in magnitude_certificate_065().entries}
    assert flags["magfit.square-consistency"]
    monkeypatch.setattr(certify, "_entry_agree", off)
    flags = {e.name: e.satisfied for e in magnitude_certificate_065().entries}
    assert not flags["magfit.square-consistency"]


@pytest.mark.parametrize("n", range(1, 6))
def test_sin_range_holds_the_extrema(n):
    # the intervals [n pi/5, 2n pi/5] of the Im f_{5,3/4} bound; at 2000 bits
    # the extrema are the larger and smaller of the end values and of the
    # +-1 at each pi/2 + k pi inside, and the interval sine holds both,
    # within 2^-120 of each end
    with workprec(140):
        sine = (CertValue.pi() * _hull(Fraction(n, 5), Fraction(2 * n, 5))).sin()
    lo, hi = (_exact(t) for t in sine.re)
    with workprec(2000):
        a, b = n * mp.pi / 5, 2 * n * mp.pi / 5
        values = [mp.sin(a), mp.sin(b)]
        k = int(mp.ceil(a / mp.pi - mpf(1) / 2))
        while mp.pi / 2 + k * mp.pi <= b:
            values.append(mpf(-1) ** k)
            k += 1
        least, most = _exact(min(values)), _exact(max(values))
    assert lo <= least <= lo + Fraction(1, 2 ** 120)
    assert hi - Fraction(1, 2 ** 120) <= most <= hi


def test_j_difference_bounds():
    rep = j_difference_bounds()
    assert rep.min_diff_075 >= 176
    assert rep.min_diff_065 >= 311
    assert 271 < rep.j19.value < 272
    assert all(e.satisfied for e in rep.entries)


def test_j19_window_rests_on_the_arc_enclosures(monkeypatch):
    # the window is decided on arc_j at the doubles either side of 19/10,
    # not on the line route at a rounded point: arc enclosures of 300 turn
    # it false, although the line route still reads about 271.1
    monkeypatch.setattr(certify, "arc_j", lambda theta, *args: CertValue(300))
    rep = j_difference_bounds()
    assert 271 < rep.j19.value < 272
    assert not {e.name: e for e in rep.entries}["jdiff.j19-window"].satisfied


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
        err19 = j_tail_bound(6, a19)
        f19 = eval_series(jfunction(6), mpc(mp.cos(mpf(1.9)), a19), None)
    assert isinstance(err19, mpf)
    assert by_name["jdiff.approx-error-19"].computed == float(err19)
    need = _exact(mid_rad(iv_pair(f19))[1]) + _exact(err19) + abs(_exact(f19[1].value))
    assert _exact(rep.j19.err) >= need


# ---------------------------------------------------------------------------
# delta and residue bounds

def test_delta_line_bounds():
    assert delta_line_bounds("0.65")[0] > mpf("0.01")
    assert delta_line_bounds("0.75")[0] > mpf("0.007")
    for y in ("0.65", "0.75", "1.0"):
        lo, up = delta_line_bounds(y)
        assert lo < up
    with pytest.raises(DomainError):
        delta_line_bounds("0.05")


def test_residue_term_at_corner():
    with workprec(120):
        rho_end = 2 * mp.pi / 3
        for (k, m) in ((192, 1), (48, 2)):
            rv = residue_term(rho_end, k, m)
            assert abs(rv.value - 1) <= rv.err + mpf(10) ** -20


def test_abs_ends_take_a_real_ball_only():
    assert _abs_ends(CertValue(-2, 1)) == (1, 3)
    assert _abs_ends(CertValue(mpf("0.25"), 1)) == (0, Fraction(5, 4))
    with pytest.raises(TypeError):
        CertValue(mpc(1, 1))


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


# the ledger entries that certify each contour-table ingredient, in the
# order of certify._INGREDIENTS: |E_4| and |E_6| on the arc and on the
# line (caps), then the |Delta| minimum and the j separation (lower bounds)
INGREDIENT_ENTRIES = {
    label: ([f"e4.arc.upper-{label}"], [f"e6.arc.upper-{label}"],
            [f"e4.line.{label}.assembled", f"e4.line.{label}.grid"],
            [f"e6.line.{label}.assembled", f"e6.line.{label}.grid"],
            [f"delta.line-{label}.lower"], [f"jdiff.sep-{label}"])
    for label in ("075", "065")
}


def test_contour_table_ingredients_rest_on_satisfied_entries(ledger_by_name):
    # a cap used in the table is no smaller, and a lower bound no larger,
    # than the claim a satisfied entry certifies: 1.46 on e4.arc.upper-075,
    # the line cap 6 against the certified 5.9, 0.007 and 176 exactly
    assert set(INGREDIENT_ENTRIES) == set(certify._INGREDIENTS)
    for label, ingredients in certify._INGREDIENTS.items():
        assert len(ingredients) == len(INGREDIENT_ENTRIES[label]) == 6
        for i, (value, names) in enumerate(zip(ingredients, INGREDIENT_ENTRIES[label])):
            for name in names:
                entry = ledger_by_name[name]
                claim = certify._decimal(entry.claimed)
                assert entry.satisfied, name
                assert (value >= claim if i < 4 else value <= claim), (name, value, claim)


def test_ledger_json_round_trip(ledger_entries):
    e = ledger_entries[0]
    d = json.loads(e.to_json())
    assert set(d) >= {"name", "claimed", "computed", "err", "satisfied"}
    assert d["name"] == e.name


def test_ledger_deterministic_order(ledger_entries):
    again = [e.name for e in full_ledger()]
    assert again == [e.name for e in ledger_entries]


def test_printed_lo_hi_hold_the_exact_enclosure(ledger_entries):
    # computed is rounded to nearest, so computed +- err may miss the
    # enclosure; the printed lo and hi are its ends rounded outward
    for e in ledger_entries:
        d = json.loads(e.to_json())
        lo, hi = e.enclosure
        assert Fraction(d["lo"]) <= lo <= hi <= Fraction(d["hi"]), e.name
        # the tightest doubles that do so
        assert Fraction(math.nextafter(d["lo"], math.inf)) > lo, e.name
        assert Fraction(math.nextafter(d["hi"], -math.inf)) < hi, e.name


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
    # off the hypothesis, the three angles nearest rho are at or above 2
    rep = proposition_mrl_check(48, 3, grid_step=1e-2)
    assert not rep.passed
    assert rep.violations == [2.0807963267948963, 2.0907963267948966, 2.0943951023931957]
    assert rep.undecided == []


def test_mrl_report_lists_undecided_angles(monkeypatch):
    # (1200, 3) straddles 2 at its starting precision at the 16 angles
    # nearest i, where F's slope near j = 1728 widens the ball; without
    # the ladder they are undecided, neither violations nor passes
    monkeypatch.setattr(certify, "_MRL_LADDER", (1,))
    rep = proposition_mrl_check(1200, 3, grid_step=2e-2)
    assert rep.undecided == arc_grid(2e-2)[:16] and rep.violations == []
    assert not rep.passed and rep.escalated == 0


@pytest.mark.parametrize("k,m,step,escalated", [(1200, 3, 2e-2, 16), (340, 2, 1e-3, 0)])
def test_mrl_report_counts_escalations_and_bounds_the_grid(k, m, step, escalated):
    # escalated counts the angles the ladder took above the starting
    # precision: the undecided angles of the test above at (1200, 3), none
    # at (340, 2); upper_max, the largest abs_upper() rounded up to a
    # double, is at least every |midpoint| plus its radius and below 2
    rep = proposition_mrl_check(k, m, grid_step=step)
    assert rep.passed and rep.escalated == escalated
    assert rep.grid_max + rep.err_at_max <= rep.upper_max < 2


def test_oscillation_at_the_last_grid_double_is_the_ball_at_rho():
    # arc_grid ends on the double 2.0943951023931957, 2.1e-16 above rho;
    # every factor of the ball, g as well as h(theta) and sin(theta), is
    # taken at rho itself
    from millerzeros.evalnum import form_arc_prec
    from millerzeros.miller import miller_form
    last = arc_grid(1e-2)[-1]
    assert last == 2.0943951023931957
    with workprec(300):
        rho = 2 * mp.pi / 3
    form = miller_form(340, 2)
    prec = form_arc_prec(form.id.ell, 2)
    at_double, at_rho = _oscillation(form, 2, last, prec), _oscillation(form, 2, rho, prec)
    assert (at_double.value, at_double.err) == (at_rho.value, at_rho.err)


@pytest.mark.parametrize("k,m", [(192, 1), (340, 2), (48, 3), (1200, 3)])
def test_oscillation_holds_the_direct_product(k, m, direct_arc):
    # the ball holds e^(2 pi m sin t) G(t) - 2 cos h(t) for every G(t) in the
    # ball of the direct complex evaluation, the factors taken 400 bits
    # beyond the precision.  G is evaluated 200 bits beyond it at interior
    # angles, where its ball is far narrower than the one checked, and at
    # the same precision at the grid's ends, which stand for the corners
    # as that precision rounds them.  (1200, 3), whose angles near i
    # escalate, is checked at the ladder's second precision too
    from millerzeros.evalnum import _theta_mpf, form_arc_prec
    from millerzeros.miller import miller_form
    form = miller_form(k, m)
    start = form_arc_prec(form.id.ell, m)
    grid = arc_grid(2e-2)
    with workprec(start + 12):
        assert [_theta_mpf(t) for t in (grid[0], grid[-1])] == list(_corner_angles(start + 12))
    for prec in (start, 2 * start) if k == 1200 else (start,):
        for theta in grid:
            with workprec(prec + 12):
                t = _theta_mpf(theta)
            at_corner = theta in (grid[0], grid[-1])
            got = _oscillation(form, m, theta, prec)
            ref = direct_arc(form, theta, prec=prec if at_corner else prec + 200)
            with workprec(prec + 400):
                amp = mp.exp(2 * mp.pi * m * mp.sin(t))
                want = ref.value * amp - 2 * mp.cos(k * t / 2 + 2 * mp.pi * m * mp.cos(t))
                slack = mpf(2) ** -(prec + 360)         # the rounding of want, |want| < 3
                assert abs(got.value - want) <= got.err + ref.err * amp + slack


def test_oscillation_builds_one_q_point_per_angle(monkeypatch):
    # g, e^(2 pi m sin t) and e^(i h) all come from one arc point and one
    # _theta_mpf; no other q-point is built
    from millerzeros.miller import miller_form
    calls = {"_Point": 0, "_theta_mpf": 0}

    def counted(*args, _inner=evalnum._theta_mpf):
        calls["_theta_mpf"] += 1
        return _inner(*args)
    monkeypatch.setattr(evalnum, "_theta_mpf", counted)
    init = evalnum._Point.__init__

    def counted_init(self, *args, **kwargs):
        calls["_Point"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(evalnum._Point, "__init__", counted_init)
    form = miller_form(340, 2)
    grid = arc_grid(5e-2)
    for theta in grid:
        _oscillation(form, 2, theta, 160)
    assert calls == {"_Point": len(grid), "_theta_mpf": len(grid)}


def test_oscillation_takes_no_ball_arithmetic_and_forms_one_ball(monkeypatch):
    # every step from e4 and e6 to the turn runs on integer ends: a warm
    # _oscillation multiplies, divides, subtracts and powers no ball, and
    # forms exactly one interval, at the end
    from millerzeros.miller import miller_form
    form = miller_form(340, 2)
    angles = arc_grid(5e-2)
    for theta in angles:
        _oscillation(form, 2, theta, 160)           # fills the per-precision caches
    calls = []

    def counted(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return call
    for name in ("__mul__", "__rmul__", "__truediv__", "__sub__", "__rsub__", "pow_int",
                 "__init__"):
        monkeypatch.setattr(CertValue, name, counted(name, getattr(CertValue, name)))
    monkeypatch.setattr(evalnum, "_interval", counted("ball", evalnum._interval))
    for theta in angles:
        calls.clear()
        _oscillation(form, 2, theta, 160)
        assert calls == ["ball"]


def test_table_check_values_match_separate_evaluations(monkeypatch):
    # at every grid point, modular_bounds' values against the rectangle route:
    # E_4 and E_6 as the rectangles of two eval_series parts, Delta and j by
    # mpmath.iv powers and quotients.  Each disk bound lies inside the
    # rectangle's enclosure and is at least as tight, and the two j disks meet
    points = []

    def separate(tau):
        got = modular_bounds(tau)
        hi4, hi6, low, centre, radius = got
        e4, e6 = (iv_pair(eval_series(eisenstein(k, 48), tau, EisensteinTail(k))) for k in (4, 6))
        with iv_prec():
            cube = e4 ** 3
            delta = (cube - e6 ** 2) / 1728
            jv = cube / delta
            moduli = [[mp.make_mpf(t) for t in abs(z)._mpi_] for z in (e4, e6, delta)]
        for (lo, hi), bound in zip(moduli, (hi4, hi6, low)):
            assert lo <= bound <= hi
        assert radius <= mid_rad(jv)[1]
        with workprec(400):
            value, err = mid_rad(jv)
            assert abs(value - centre) <= err + radius
        points.append(tau)
        return got
    shared = certify._table_numeric_check()
    monkeypatch.setattr(certify, "modular_bounds", separate)
    assert certify._table_numeric_check() == shared
    assert len(points) == 2 * 51


def test_amplitude_encloses_the_exponential_at_m_20():
    # x = 2 pi m sin theta reaches 126, and the radius of e^x grows with x;
    # the ball chain of CertValue.exp must still hold e^x
    for theta in arc_grid(5e-2):
        with workprec(140):
            amp = (CertValue.pi() * 40 * CertValue(mpf(theta)).sin()).exp()
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
    # the double nearest 1e-5 is 1e-5 + 8.2e-22: a value that far from the
    # claim meets the double tolerance but not the decimal one
    at_double = CertValue(mpf(1e-5))
    assert at_double.value == mpf(1e-5)
    assert not _entry_value("x", "demo", at_double, 0, 1e-5).satisfied
    assert _entry_value("x", "demo", CertValue(mpf(10) ** -6), 0, 1e-5).satisfied


def test_ledger_enclosures_contain_what_they_bound(monkeypatch):
    # checked in exact Fractions: each .grid enclosure holds both ends of
    # [largest abs_lower, largest abs_upper] over its leaves, each delta
    # ratio the quotient of the arc maximum by the line minimum; the ends
    # are taken at the precision the ledger itself runs at
    given, quotient, line_ends = {}, {}, []

    def upper(name, ref, cv, claimed):
        given[name] = cv
        return _entry_upper(name, ref, cv, claimed)

    def lower(name, ref, cv, claimed):
        quotient[name] = _exact(cv.value)
        return _entry_lower(name, ref, cv, claimed)

    def value(name, ref, cv, claimed, tol):
        if name == "delta.at-rho":
            quotient["arc-max"] = _exact(cv.abs_upper())
        return _entry_value(name, ref, cv, claimed, tol)

    def bisect(enclose, lo, hi, claims):
        held, leaves = _bisect_claims(enclose, lo, hi, claims)
        caps = leaves["cap"]
        line_ends.append((max(_exact(v.abs_lower()) for v in caps),
                          max(_exact(v.abs_upper()) for v in caps)))
        return held, leaves

    monkeypatch.setattr(certify, "_entry_upper", upper)
    monkeypatch.setattr(certify, "_entry_lower", lower)
    monkeypatch.setattr(certify, "_entry_value", value)
    monkeypatch.setattr(certify, "_bisect_claims", bisect)
    certify.delta_ledger()
    certify.eisenstein_line_bounds()

    def holds(cv, x):
        return _exact(cv.value) - _exact(cv.err) <= x <= _exact(cv.value) + _exact(cv.err)

    for h in ("065", "075"):
        ratio = quotient["arc-max"] / quotient[f"delta.line-{h}.lower"]
        assert holds(given[f"delta.ratio-{h}"], ratio), h
    grids = [name for name in given if name.endswith(".grid")]
    assert len(grids) == len(line_ends) == len(_LINE_CASES)
    for name, (lo, hi) in zip(grids, line_ends):
        assert holds(given[name], lo) and holds(given[name], hi), name


def test_dominated_tail_within_its_pad():
    # the tail is a ball built from the exact rationals: it must hold the
    # 256-bit value of its closed form
    for k, y, _, _, _, dom in _LINE_CASES:
        with workprec(140):
            tail, dom_ok = _dominated_tail(k, y, 3, dom)
        assert dom_ok
        with workprec(256):
            gamma = abs(Fraction(2 * k) / bernoulli(k))
            half = mp.e ** (-mp.pi * y.numerator / y.denominator)
            exact = (mpf(gamma.numerator) / gamma.denominator * dom.numerator
                     / dom.denominator * half ** 3 / (1 - half))
            assert abs(tail.value - exact) <= tail.err


def test_certify_leaves_rounding_to_the_ball_layer():
    # evalnum.CertValue is the one place that knows how the working
    # precision rounds; a pad, a shift by the precision or a read of it in
    # certify would be a hand-derived radius outside the ball arithmetic
    # and its tests
    source = Path(certify.__file__).read_text()
    for token in ("_pad", "ldexp(", "mp.prec"):
        assert token not in source, token


def test_evaluation_points_leave_rounding_to_the_units():
    # evalnum's evaluation section, from the point class through arc_j,
    # works in integer units from one point: no pad, no shift by the
    # precision, no complex exp and no phase from expj; its ball section,
    # from CertValue's helpers to the tails, rounds outward through libmpi
    # and takes no 16-ulp pad of a midpoint
    source = Path(evalnum.__file__).read_text()
    start, end = source.index("class _Point:"), source.index("def arc_j(")
    section = source[start:source.index("\n\n\n", end)]
    for token in ("_pad(", "ldexp(", "expj", "mp.exp(", "mp.e **", "cmath"):
        assert token not in section, token
    balls = source[source.index("class TailUnboundedError"):start]
    for token in ("_pad", "4 - mp.prec", "ldexp("):
        assert token not in balls, token


def line_maxima(monkeypatch, cases=_LINE_CASES):
    """The .grid entries of eisenstein_line_bounds and the eval_abs calls made."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return eval_abs(*args, **kwargs)
    monkeypatch.setattr(certify, "eval_abs", counting)
    monkeypatch.setattr(certify, "_LINE_CASES", cases)
    grid = {e.name: e for e in certify.eisenstein_line_bounds() if e.name.endswith(".grid")}
    return grid, len(calls)


def test_line_maxima_enclose_the_maximum_within_budget(monkeypatch):
    grid, evaluations = line_maxima(monkeypatch)
    assert evaluations == 192
    assert all(e.satisfied for e in grid.values()) and len(grid) == 4
    for k, y, *_ in _LINE_CASES:
        e = grid[f"e{k}.line.{'065' if y == Fraction(13, 20) else '075'}.grid"]
        with iv_prec(400):
            at = [mp.make_mpf(abs(iv_pair(eval_series(
                eisenstein(k, 100), mp.mpc(mpf(i) / 100, mpf(y.numerator) / y.denominator),
                EisensteinTail(k), prec=400)))._mpi_[1]) for i in range(51)]
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
