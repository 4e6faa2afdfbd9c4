"""Certified evaluation: error propagation, arc functions, reference values."""

import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, workprec

from millerzeros.qseries import (EISENSTEIN_FACTORS, QSeries, _pentagonal_euler_product, delta,
                                 eisenstein, jfunction)
from millerzeros.miller import miller_form
from millerzeros.zeros import HFunction
from millerzeros.evalnum import (
    CertValue, NotRealError, TailUnboundedError, _abs_upper, _exact,
    EisensteinTail, JCoeffTail, EtaProductTail, GeometricTail, j_tail_bound,
    eval_poly, eval_series, eval_delta_eta,
    arc_functions, arc_form, arc_j, arc_grid, export_arc_csv,
    lemniscate_constants, form_arc_prec, auto_trunc,
)

TAU_GRID = (mpc(0, 1), mpc("0.1", "1.2"), mpc("-0.3", "0.95"),
            mpc("0.45", "1.05"), mpc("0.25", "0.9"))


# ---------------------------------------------------------------------------
# CertValue arithmetic

def test_certvalue_rejects_negative_radius():
    with pytest.raises(ValueError):
        CertValue(1.0, -1e-3)


def test_certvalue_exact_fraction():
    cv = CertValue.exact(Fraction(1, 3))
    assert cv.err > 0                      # 1/3 is not representable
    assert abs(cv.value - mpf(1) / 3) <= cv.err
    assert CertValue.exact(Fraction(3, 4)).err == 0


def test_certvalue_add_sub_radii():
    a, b = CertValue(1.0, 0.25), CertValue(2.0, 0.5)
    assert (a + b).err >= 0.75
    assert (a - b).err >= 0.75
    assert (2 + a).value == 3 and (2 - a).value == 1
    assert (3 * a).err >= 0.75


def test_certvalue_division_guard():
    with pytest.raises(ZeroDivisionError):
        CertValue(1.0) / CertValue(0.1, 0.2)


def test_certvalue_sign_and_abs():
    a = CertValue(-2.0, 0.5)
    assert a.certified_sign() == -1
    assert a.abs_upper() >= 2.5 and a.abs_lower() <= 1.5
    assert CertValue(0.1, 0.2).certified_sign() == 0


def test_certvalue_as_real():
    with pytest.raises(NotRealError):
        CertValue(mpc(1, 1), 0.01).as_real()
    r = CertValue(mpc(1, 0), 0.01).as_real()
    assert r.value == 1


@settings(max_examples=80, deadline=None)
@given(st.floats(-5, 5), st.floats(0, 0.5), st.floats(-5, 5), st.floats(0, 0.5),
       st.floats(-1, 1), st.floats(-1, 1))
def test_certvalue_encloses_true_products(a, ea, b, eb, s, t):
    # any point of the input boxes must stay inside the output box
    x = CertValue(mpf(a), mpf(ea))
    y = CertValue(mpf(b), mpf(eb))
    ax, by = mpf(a) + s * mpf(ea), mpf(b) + t * mpf(eb)
    prod = x * y
    assert abs(ax * by - prod.value) <= prod.err * (1 + 1e-12) + mpf(2) ** -45
    tot = x + y
    assert abs((ax + by) - tot.value) <= tot.err + mpf(2) ** -45


def test_certvalue_pow_int():
    a = CertValue(2.0, 0.01)
    p = a.pow_int(3)
    assert abs(p.value - 8) < 1e-12
    assert p.err >= 3 * 4 * 0.01 * (1 - 1e-9)
    with pytest.raises(ValueError):
        a.pow_int(-1)


UNIT = st.floats(0, 1)
# odd 140-bit mantissas keep every part exactly 140 bits long, so the
# branch mpmath takes for a complex power is known from n and the exponents
MANTISSA = st.integers(2 ** 138, 2 ** 139 - 1).map(lambda x: 2 * x + 1)


def _mpc_pow_branch(v, n: int) -> str:
    """The branch of mpmath's mpc_pow_int for a complex v with two nonzero parts."""
    (_, _, a_exp, a_bc), (_, _, b_exp, b_bc) = v._mpc_
    return "exact" if n * (abs(a_exp - b_exp) + max(a_bc, b_bc)) < 10000 else "log"


@pytest.mark.parametrize("branch, n_range", [("real", (1, 200)), ("exact", (3, 60)),
                                             ("log", (80, 200))])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_pow_int_encloses_every_power(branch, n_range, data):
    # every w with |w - v| <= e must have w^n inside the result, for the
    # exact complex power and for exp(n log v) alike
    draw = data.draw
    scale = draw(st.integers(-1000, 1000))
    with workprec(140):
        def part():
            sign = draw(st.sampled_from((-1, 1)))
            return sign * mp.ldexp(draw(MANTISSA), scale + draw(st.integers(-8, 8)) - 140)
        n = draw(st.integers(*n_range))
        v = part() if branch == "real" else mpc(part(), part())
        if branch != "real":
            assert _mpc_pow_branch(v, n) == branch
        e = abs(v) * mpf(10) ** -20 * draw(UNIT)
        got = CertValue(v, e).pow_int(n)
    u, phi = draw(UNIT), 2 * math.pi * draw(UNIT)
    with workprec(2000):
        direction = mp.expj(phi) if branch != "real" else mp.sign(phi - math.pi)
        w = v + e * (1 - mpf(2) ** -100) * mpf(u) * direction
        assert abs(w ** n - got.value) <= got.err


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 200), st.integers(-2 ** 200, 2 ** 200), st.integers(-400, 400),
       st.integers(-300, 300), st.booleans())
def test_abs_upper_is_a_tight_upper_bound(a, b, scale, shift, real):
    # exactly: |v| <= bound <= (1 + 2^-20) |v|, for parts of any length and scale
    with workprec(240):
        v = mp.ldexp(a, scale) if real else mpc(mp.ldexp(a, scale), mp.ldexp(b, scale + shift))
    square = sum(_exact(p) ** 2 for p in ((v,) if real else (v.real, v.imag)))
    bound = _exact(_abs_upper(v))
    assert square <= bound ** 2 <= (1 + Fraction(1, 2 ** 20)) ** 2 * square


@pytest.mark.parametrize("value, mag", [(mpf(1), 1), (mpf(-1), 1), (mpc(3, 4), 5)])
def test_abs_bounds_round_outward(value, mag):
    # |v| +- 2^-80 at 53 bits: the nearest-rounded sum is |v| itself, one ulp
    # inside the exact enclosure; the directed bounds stay outside it
    tiny = Fraction(1, 2 ** 80)
    with workprec(53):
        cv = CertValue(value, mpf(2) ** -80)
        assert abs(cv.value) + cv.err == mag
        hi, lo = _exact(cv.abs_upper()), _exact(cv.abs_lower())
    assert mag + tiny <= hi <= mag * (1 + Fraction(1, 2 ** 50))
    assert mag * (1 - Fraction(1, 2 ** 50)) <= lo <= mag - tiny


def test_abs_of_a_complex_value_encloses_the_modulus():
    # the modulus is rounded to nearest; its radius takes that rounding in
    cv = CertValue(mpc(1, 1), 0)
    with workprec(53):
        mod = cv.abs()
    with workprec(300):
        assert abs(mod.value - mp.sqrt(2)) <= mod.err
    real = CertValue(mpf(-3), mpf(2) ** -40).abs()
    assert real.value == 3 and real.err == mpf(2) ** -40


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4), st.floats(0, 0.5), st.floats(0, 0.5),
       st.lists(st.floats(0, 1), min_size=4, max_size=4))
def test_certvalue_encloses_complex_products_and_quotients(parts, ea, eb, u):
    # radii of complex products and quotients take |v| from _abs_upper
    a, b = mpc(parts[0], parts[1]), mpc(parts[2], parts[3])
    x, y = CertValue(a, ea), CertValue(b, eb)
    with workprec(140):
        prod = x * y
        quot = x / y if abs(b) > eb else None
    with workprec(400):
        # shrink by 1 - 2^-100 so that the 400-bit rounding keeps each point in its disk
        ax, by = (c + e * (1 - mpf(2) ** -100) * s * mp.expj(2 * mp.pi * t)
                  for c, e, s, t in ((a, ea, u[0], u[1]), (b, eb, u[2], u[3])))
        assert abs(ax * by - prod.value) <= prod.err
        if quot is not None:
            assert abs(ax / by - quot.value) <= quot.err


# ---------------------------------------------------------------------------
# the fixed-point Horner kernel

INTS = st.integers(-10 ** 30, 10 ** 30)
FRACTIONS = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6))


@st.composite
def kernel_cases(draw):
    coeffs = draw(st.lists(st.one_of(INTS, FRACTIONS), min_size=1, max_size=41))
    size = draw(st.sampled_from((0.999, 2000)))
    modulus, angle = size * draw(UNIT), 2 * math.pi * draw(UNIT)
    z = mpc(modulus * math.cos(angle), modulus * math.sin(angle))
    if draw(st.booleans()):
        z = z.real
    radius = draw(st.sampled_from((0, 1e-30, 1e-12, 1e-4))) * draw(UNIT)
    return coeffs, z, radius, draw(UNIT), 2 * math.pi * draw(UNIT)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_eval_poly_encloses_every_point_of_the_disk(case):
    coeffs, z, radius, u, phi = case
    with workprec(140):
        got = eval_poly(coeffs, z, radius)
        assert isinstance(got.value, mpc) == isinstance(z, mpc)
    with workprec(2000):
        # shrink by 1 - 2^-100 so that the 2000-bit rounding keeps w in the disk
        w = mpc(z) + mpf(radius) * (1 - mpf(2) ** -100) * mpf(u) * mp.expj(phi)
        exact = mpc(0)
        for c in reversed(coeffs):
            exact = exact * w + mpf(c.numerator) / c.denominator
        assert abs(exact - got.value) <= got.err


def test_eval_poly_is_tight_without_radius():
    e4 = eisenstein(4, 48).coeffs
    with workprec(140):
        q = mp.e ** (2j * mp.pi * mpc("0.2", "0.65"))
        got = eval_poly(e4, q)
        assert got.err <= abs(got.value) * mpf(2) ** -130
        assert eval_poly([Fraction(1, 3)], 5).err <= mpf(2) ** -135
        assert eval_poly([7, 0, 1], mpf(2)).value == 11


def reference_eval_series(s, tau, tail, prec=128):
    """The CertValue Horner with per-operation pads that eval_series replaced."""
    with workprec(prec + 12):
        q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
        qc = CertValue(q, abs(q) * mpf(2) ** (4 - mp.prec))
        acc = CertValue(mpf(0))
        for c in reversed(s.coeffs):
            acc = acc * qc
            if c != 0:
                acc = acc + CertValue.exact(c)
        if s.lead > 0:
            acc = acc * qc.pow_int(s.lead)
        elif s.lead < 0:
            acc = acc / qc.pow_int(-s.lead)
        return acc.widened(tail.bound(s.trunc, abs(q), mp.im(tau)))


@pytest.mark.parametrize("name", ["e2", "e4", "e6", "j"])
def test_eval_series_matches_reference_horner(name):
    series, tail = {"e2": (eisenstein(2, 48), EisensteinTail(2)),
                    "e4": (eisenstein(4, 48), EisensteinTail(4)),
                    "e6": (eisenstein(6, 48), EisensteinTail(6)),
                    "j": (jfunction(48), JCoeffTail())}[name]
    with workprec(140):
        points = [mp.expj(mpf(t)) for t in (mp.pi / 2, 1.7, 1.9, 2 * mp.pi / 3)]
        points += [mpc(x, y) for x in ("0", "0.2", "0.37", "0.5") for y in ("0.65", "0.75")]
    for tau in points:
        got = eval_series(series, tau, tail)
        ref = reference_eval_series(series, tau, tail)
        assert abs(got.value - ref.value) <= got.err + ref.err
        assert got.err <= 2 * ref.err


def test_zero_width_segment_is_the_point():
    with workprec(140):
        points = [mpc(x, y) for x in ("0", "0.2", "0.5") for y in ("0.65", "0.75")]
    for series, tail in ((eisenstein(4, 48), EisensteinTail(4)),
                         (eisenstein(6, 48), EisensteinTail(6)), (jfunction(48), JCoeffTail())):
        for prec in (96, 128, 200):
            for tau in points + [0.1 + 0.7j]:
                point, span = (eval_series(series, t, tail, prec=prec) for t in (tau, (tau, tau)))
                assert (span.value, span.err) == (point.value, point.err)
    for bad in ((mpc("0.2", "0.7"), mpc("0.3", "0.75")), (mpc("0.3", "0.7"), mpc("0.2", "0.7"))):
        with pytest.raises(ValueError):
            eval_series(eisenstein(4, 48), bad, EisensteinTail(4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 6)), st.sampled_from(("0.65", "0.75")), st.floats(0, 1),
       st.floats(-6, -0.3), st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
def test_line_segment_encloses_every_point(k, height, where, log_width, at):
    # a subsegment of [0, 1/2] of width 1e-6 to 1/2 and x in it, ends included,
    # against a 400-bit evaluation at the same height
    with workprec(140):
        y = mpf(height)
        width = mpf(10) ** log_width
        lo = mpf(where) * (mpf(1) / 2 - width)
        hi = lo + width
        x = min(hi, max(lo, lo + mpf(at) * width))
    span = eval_series(eisenstein(k, 48), (mpc(lo, y), mpc(hi, y)), EisensteinTail(k))
    ref = eval_series(eisenstein(k, 100), mpc(x, y), EisensteinTail(k), prec=400)
    assert ref.err < mpf(2) ** -300
    assert abs(span.value - ref.value) <= span.err + ref.err


# ---------------------------------------------------------------------------
# tail bounds

def test_tail_domination_actual_remainders():
    j = jfunction(48)
    with workprec(96):
        for tau in (mpc(0, 1), mpc("0.3", "0.8")):
            r = abs(mp.e ** (2j * mp.pi * tau))
            for n in (12, 20, 36):
                tail_true = sum(int(j.coeff(i)) * r ** i for i in range(n + 1, 49))
                assert tail_true <= JCoeffTail().bound(n, r, tau.imag)
        e6 = eisenstein(6, 48)
        r = mp.e ** (-2 * mp.pi * mpf("0.65"))
        for n in (8, 16):
            tail_true = sum(abs(int(e6.coeff(i))) * r ** i for i in range(n + 1, 49))
            assert tail_true <= EisensteinTail(6).bound(n, r, mpf("0.65"))


def test_tail_unbounded_guards():
    with pytest.raises(TailUnboundedError):
        j_tail_bound(2, 0.5)
    with pytest.raises(TailUnboundedError):
        EtaProductTail().bound(5, mpf(1), mpf(0))
    with pytest.raises(TailUnboundedError):
        GeometricTail(2.0, 2.0).bound(5, mpf(1), mpf(0))
    assert GeometricTail(0.0, 0.0).bound(5, mpf("0.5"), mp.log(2) / (2 * mp.pi)) == 0


def test_eval_below_height_floor():
    with pytest.raises(ValueError):
        eval_series(eisenstein(4, 16), mpc(0, "0.3"), EisensteinTail(4))


# ---------------------------------------------------------------------------
# point evaluation

def test_constant_series_evaluates_exactly():
    one = QSeries.one(6)
    cv = eval_series(one, mpc(0, 1), GeometricTail(0.0, 0.0))
    assert cv.value == 1 and cv.err <= mpf(2) ** -90


def test_delta_at_i_two_routes():
    tau = mpc(0, 1)
    via_eta = eval_delta_eta(tau)
    via_series = eval_series(delta(64), tau, EtaProductTail())
    assert abs(via_eta.value - mpf("0.00178537")) < 1e-6
    assert via_eta.real().value > 0
    assert abs(via_eta.value - via_series.value) <= via_eta.err + via_series.err


def test_delta_line_grids():
    for y, floor in (("0.65", "0.01"), ("0.75", "0.007")):
        for x in ("-0.5", "-0.25", "0", "0.25", "0.5"):
            cv = eval_delta_eta(mpc(x, y))
            assert cv.abs_lower() > mpf(floor)


def test_eval_form_matches_direct_sum(direct_form):
    # the factored route must agree with a long plain partial sum; the
    # leftover is the q^65 series tail, far below the slack used here
    f = miller_form(48, 1, trunc=64)
    tau = mpc("0.1", "0.9")
    got = direct_form(f, tau, prec=128)
    with workprec(300):
        q = mp.e ** (2j * mp.pi * mpc(tau))
        direct = sum(int(f.series.coeff(n)) * q ** n
                     for n in range(1, f.series.trunc + 1))
    assert abs(got.value - direct) <= got.err + mpf(10) ** -25


def test_eval_form_weight_12_is_delta(direct_form):
    f = miller_form(12, 1)
    for tau in (mpc(0, 1), mpc("0.2", "0.8")):
        a = direct_form(f, tau)
        b = eval_delta_eta(tau)
        assert abs(a.value - b.value) <= a.err + b.err


# ---------------------------------------------------------------------------
# arc functions

def test_arc_endpoint_values():
    # the corner angles must carry working precision, otherwise the input
    # representation error (~1e-16 at double precision) dominates
    with workprec(140):
        half_pi = mp.pi / 2
        rho_end = 2 * mp.pi / 3
        av_i = arc_functions(half_pi)
        assert abs(av_i.e2.value) <= av_i.e2.err + mpf(10) ** -25
        assert abs(av_i.e4.value + mpf("1.455761")) < 1e-5
        assert abs(av_i.delta_arc.value + mpf("0.00178537")) < 1e-6
        av_r = arc_functions(rho_end)
        assert abs(av_r.e4.value) <= av_r.e4.err + mpf(10) ** -25
        assert abs(av_r.e6.value - mpf("2.881536")) < 1e-5
        ji = arc_j(half_pi)
        assert abs(ji.value - 1728) <= ji.err + mpf(10) ** -20
        jr = arc_j(rho_end)
        assert abs(jr.value) <= jr.err + mpf(10) ** -20


def test_arc_point_validation():
    with pytest.raises(ValueError):
        arc_functions(2.2)
    with pytest.raises(ValueError):
        arc_functions((1.4, 1.6))
    with pytest.raises(ValueError):
        arc_functions((1.9, 1.8))


def test_arc_monotonicity_and_signs_sampled():
    step = 5e-3
    prev = None
    grid = arc_grid(step)
    for theta in grid:
        av = arc_functions(theta, prec=96)
        interior_hi = theta < grid[-1] - 1e-9
        interior_lo = theta > grid[0] + 1e-9
        assert av.delta_arc.certified_sign() == -1
        if interior_hi:
            assert av.e4.certified_sign() == -1
        if interior_lo:
            assert av.e2.certified_sign() == -1
            assert av.e6.certified_sign() == 1
        if prev is not None:
            p4, p6, pd = prev
            gap = mpf(10) ** -12
            assert av.delta_arc.value < pd.value - gap          # decreasing
            assert abs(av.e4.value) < abs(p4.value) + gap       # |E4| falls
            assert abs(av.e6.value) > abs(p6.value) - gap       # |E6| grows
        prev = (av.e4, av.e6, av.delta_arc)


def power_by_squaring(x, n):
    """The binary-powering chain of padded CertValue products pow_int replaced."""
    result = CertValue(mpf(1))
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def separate_q(tau):
    q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
    return q, abs(q) * mpf(2) ** (4 - mp.prec)


def separate_q_series(s, tau, tail, prec=128):
    """eval_series as it was: its own q, the q^lead factor by squaring."""
    with workprec(prec + 12):
        q, pad = separate_q(tau)
        acc = eval_poly(s.coeffs, q, pad)
        if s.lead:
            qc = power_by_squaring(CertValue(q, pad), abs(s.lead))
            acc = acc * qc if s.lead > 0 else acc / qc
        return acc.widened(tail.bound(s.trunc, abs(q), mp.im(tau)))


def separate_q_delta(tau, terms, prec=128):
    """eval_delta_eta as it was: its own q, P^24 by squaring."""
    with workprec(prec + 12):
        q, pad = separate_q(tau)
        p = eval_poly(_pentagonal_euler_product(terms).coeffs, q, pad)
        p = p.widened(EtaProductTail().bound(terms, abs(q), mp.im(tau)))
        return power_by_squaring(p, 24) * CertValue(q, pad)


def separate_q_arc_functions(theta, prec=128):
    """arc_functions as it was: q once per series, phases as powers of e^(i theta)."""
    with workprec(prec + 12):
        theta = mpf(theta)
        tau = mp.e ** (1j * theta)
        n = auto_trunc(mp.sin(theta), prec)
        ph = CertValue(tau, abs(tau) * mpf(2) ** (4 - mp.prec))
        e2, e4, e6 = (separate_q_series(eisenstein(k, n), tau, EisensteinTail(k), prec)
                      for k in (2, 4, 6))
        d = separate_q_delta(tau, n, prec)
        e2 = (ph * e2 + CertValue(mpc(0, -3) / mp.pi, mpf(2) ** (4 - mp.prec))).as_real()
        return (e2, (power_by_squaring(ph, 2) * e4).as_real(),
                (power_by_squaring(ph, 3) * e6).as_real(),
                (power_by_squaring(ph, 6) * d).as_real())


def separate_q_form(form, tau, prec):
    """The direct evaluation as it was: Delta, E_k' and j each with their own q."""
    fid = form.id
    with workprec(prec + 12):
        n = auto_trunc(mp.im(tau), prec)
        dl = power_by_squaring(separate_q_delta(tau, n, prec), fid.ell)
        ek = separate_q_series(eisenstein(fid.kprime, n), tau, EisensteinTail(fid.kprime), prec)
        nj = max(n, int(1 / float(mp.im(tau)) ** 2) + 8)
        jv = separate_q_series(jfunction(nj), tau, JCoeffTail(), prec)
        return dl * ek * eval_poly(form.faber.coeffs, jv.value, jv.err)


with workprec(140):          # the corners at working precision, as arc_functions sees them
    ARC_ANGLES = (mp.pi / 2, mpf("1.7"), mpf("1.9"), mpf(2), 2 * mp.pi / 3)


@pytest.mark.parametrize("theta", ARC_ANGLES)
def test_arc_functions_match_separate_q_path(theta):
    got = arc_functions(theta)
    ref = separate_q_arc_functions(theta)
    for a, b in zip((got.e2, got.e4, got.e6, got.delta_arc), ref):
        assert abs(a.value - b.value) <= a.err + b.err
        assert a.err <= 2 * b.err


def arc_quartet(av):
    return (av.e2, av.e4, av.e6, av.delta_arc)


@pytest.mark.parametrize("prec", (96, 128, 200))
def test_arc_interval_of_zero_width_is_the_point(prec):
    for theta in ARC_ANGLES:
        point, span = arc_functions(theta, prec=prec), arc_functions((theta, theta), prec=prec)
        assert span.theta == point.theta
        for a, b in zip(arc_quartet(span), arc_quartet(point)):
            assert (a.value, a.err) == (b.value, b.err)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(-6, -1), st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
def test_arc_interval_encloses_every_angle(where, log_width, at):
    # a subinterval [lo, hi] of width 1e-6 to 0.1 and theta in it, ends included
    with workprec(140):
        width = mpf(10) ** log_width
        lo = ARC_ANGLES[0] + mpf(where) * (ARC_ANGLES[-1] - ARC_ANGLES[0] - width)
        hi = lo + width
        theta = min(hi, max(lo, lo + mpf(at) * width))
    span, point = arc_functions((lo, hi)), arc_functions(theta)
    for a, b in zip(arc_quartet(span), arc_quartet(point)):
        assert abs(a.value - b.value) <= a.err + b.err


@pytest.mark.parametrize("theta", ARC_ANGLES)
def test_eval_form_matches_separate_q_path(theta, form_124_1, direct_form):
    # g_{124,1}: ell = 10, E_4 factor, j of degree 9
    prec = form_arc_prec(form_124_1.id.ell, 1)
    with workprec(prec + 12):
        tau = mp.expj(theta)
    got = direct_form(form_124_1, tau, prec=prec)
    ref = separate_q_form(form_124_1, tau, prec)
    assert abs(got.value - ref.value) <= got.err + ref.err
    assert got.err <= 2 * ref.err


def test_arc_j_monotone_decreasing():
    vals = [arc_j(t).value for t in arc_grid(2e-2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_arc_form_real_and_bracketing(form_48_1):
    prec = form_arc_prec(form_48_1.id.ell, 1)
    vals = [arc_form(form_48_1, t, prec=prec) for t in arc_grid(5e-2)]
    signs = [v.certified_sign() for v in vals]
    assert all(s != 0 for s in signs)
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips == 3                       # ell - m zeros on the arc


with workprec(400):          # the corners beyond every working precision used below
    CORNERS = (mp.pi / 2, 2 * mp.pi / 3)


@pytest.mark.parametrize("kprime", sorted(EISENSTEIN_FACTORS))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_arc_form_matches_direct_evaluation(kprime, m, direct_arc):
    # the real E_4/E_6 route against the complex Delta^ell E_k' F(j) product,
    # at the h-sample angles and both corners, up to k = 386
    for ell in (m + 4, 9 * m + 4):
        form = miller_form(12 * ell + kprime, m)
        prec = form_arc_prec(ell, m)
        angles = [t for _, t in HFunction(form.id.k, m).sample_angles()] + list(CORNERS)
        for theta in angles:
            got, ref = arc_form(form, theta, prec=prec), direct_arc(form, theta, prec=prec)
            assert abs(got.value - ref.value) <= got.err + ref.err
            assert got.err <= 8 * ref.err


# ---------------------------------------------------------------------------
# symmetries

def test_conjugation_symmetry():
    e4 = eisenstein(4, 48)
    with workprec(160):
        for tau in TAU_GRID:
            a = eval_series(e4, tau, EisensteinTail(4))
            b = eval_series(e4, -mp.conj(tau), EisensteinTail(4))
            assert abs(mp.conj(a.value) - b.value) <= a.err + b.err + mpf(10) ** -25


def test_j_modular_invariance():
    j = jfunction(48)
    with workprec(160):
        for tau in TAU_GRID:
            inv = -1 / tau
            if mp.im(inv) < 0.4:
                continue
            a = eval_series(j, tau, JCoeffTail())
            b = eval_series(j, inv, JCoeffTail())
            assert abs(a.value - b.value) <= a.err + b.err + mpf(10) ** -20


def test_e2_quasimodularity():
    e2 = eisenstein(2, 96)
    with workprec(160):
        for tau in TAU_GRID:
            inv = -1 / tau
            if mp.im(inv) < 0.4:
                continue
            a = eval_series(e2, inv, EisensteinTail(2))
            b = eval_series(e2, tau, EisensteinTail(2))
            resid = a.value - tau ** 2 * b.value - 6 * tau / (1j * mp.pi)
            assert abs(resid) <= a.err + abs(tau) ** 2 * b.err + mpf(10) ** -20


# ---------------------------------------------------------------------------
# quadrature constants and export

def test_lemniscate_constants():
    lc = lemniscate_constants()
    assert abs(lc.varpi.value - mpf("2.622057")) < 1e-5
    assert abs(lc.varpi_prime.value - mpf("2.42865")) < 1e-4
    assert lc.varpi.err < 1e-40 and lc.varpi_prime.err < 1e-40
    twelfth = (lc.varpi.value / (mp.sqrt(2) * mp.pi)) ** 12
    assert abs(twelfth - mpf("0.00178537")) < 1e-7


def test_form_arc_prec_scaling():
    assert form_arc_prec(0, 0) >= 128
    assert form_arc_prec(160, 1) > form_arc_prec(10, 1)
    assert form_arc_prec(10, 5) > form_arc_prec(10, 1)


def test_auto_trunc_grows_with_precision():
    assert auto_trunc(mpf(1), 256) > auto_trunc(mpf(1), 64)
    assert auto_trunc(mpf("0.65"), 128) > auto_trunc(mpf(1), 128)


@pytest.mark.parametrize("bits", [53, 140, 300])
def test_arc_grid_ends_at_the_same_double_at_any_precision(bits):
    # the double above rho, which the arc functions clamp onto rho
    with workprec(bits):
        grid = arc_grid(1e-2)
    assert grid[0] == 1.5707963267948966
    assert grid[-1] == 2.0943951023931957


def test_export_arc_csv_deterministic():
    a, b = io.StringIO(), io.StringIO()
    rows = export_arc_csv("e4", a, step=2e-2)
    export_arc_csv("e4", b, step=2e-2)
    assert a.getvalue() == b.getvalue()
    lines = a.getvalue().strip().splitlines()
    assert lines[0] == "theta,value,err"
    assert len(lines) == rows + 1
    with pytest.raises(ValueError):
        export_arc_csv("nope", io.StringIO())
