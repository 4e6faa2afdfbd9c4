"""Certified evaluation: error propagation, arc functions, reference values."""

import io
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import ctx_iv, iv, mp, mpf, mpc, workprec
from mpmath.libmp import from_man_exp

from millerzeros.qseries import (EISENSTEIN_FACTORS, QSeries, _pentagonal_euler_product,
                                 bernoulli, delta, eisenstein, jfunction)
from millerzeros.miller import miller_form
from millerzeros import evalnum
from millerzeros.zeros import HFunction
from conftest import (JCoeffTail, complex_poly, iv_ball, iv_pair, iv_prec, iv_widen, mid_rad,
                      oracle_phase, oracle_tail, real_part, separate_q_arc_functions,
                      separate_q_form, separate_q_series)
from millerzeros.evalnum import (
    DEFAULT_PREC, _GUARD, CertValue, TailUnboundedError, _TAIL_SLACK, _Point,
    _arc_eisenstein, _corner_angles, _phase_units, _corner_window, _exact, _j_tail_units, _theta_mpf,
    _span, _two_pi, _units_ball, _cut, _ends_mul, _ends_pow, _ends_pow_float, _disk, _fixed_ends,
    EisensteinTail, EtaProductTail, j_tail_bound, _geometric_units, _modular_ends, _modulus_ends,
    eval_abs, eval_series, eval_delta_abs, modular_bounds,
    arc_functions, arc_form, arc_j, arc_j_float, arc_grid, export_arc_csv,
    lemniscate_constants, form_arc_prec, auto_trunc,
)

TAU_GRID = (mpc(0, 1), mpc("0.1", "1.2"), mpc("-0.3", "0.95"),
            mpc("0.45", "1.05"), mpc("0.25", "0.9"))

# the precisions of the enclosure tests: an operation that rounds an end to
# nearest instead of outward fails at the low ones first
PRECS = (24, 53, 140)


def _holds(parts: tuple, z) -> bool:
    """Whether z (an mpf or an mpc, taken exactly) lies in the rectangle of
    parts = (re, im), two CertValues, or in the interval of parts = (re,)."""
    return all(_exact(x.re[0]) <= _exact(t) <= _exact(x.re[1])
               for x, t in zip(parts, (mp.re(z), mp.im(z))))


# ---------------------------------------------------------------------------
# CertValue arithmetic

def test_certvalue_rejects_negative_radius():
    with pytest.raises(ValueError):
        CertValue(1.0, -1e-3)


def test_certvalue_exact_fraction():
    cv = CertValue(Fraction(1, 3))
    assert cv.err > 0                      # 1/3 is not representable
    assert abs(cv.value - mpf(1) / 3) <= cv.err
    assert CertValue(Fraction(3, 4)).err == 0


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
    real = CertValue(mpf(-3), mpf(2) ** -40).abs()
    assert real.value == 3 and real.err == mpf(2) ** -40


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
    # [199/100, 201/100]^3 holds both exact end cubes, within 16 ulp of them
    for prec in PRECS:
        with workprec(prec):
            a = CertValue(2, Fraction(1, 100))
            lo, hi = (_exact(t) for t in a.pow_int(3).re)
        ulp = Fraction(1, 2 ** prec)
        assert Fraction(199, 100) ** 3 * (1 - 16 * ulp) <= lo <= Fraction(199, 100) ** 3, prec
        assert Fraction(201, 100) ** 3 <= hi <= Fraction(201, 100) ** 3 * (1 + 16 * ulp), prec
    with pytest.raises(ValueError):
        a.pow_int(-1)


def _two(n: int) -> Fraction:
    return Fraction(2) ** n


def _inward_cases():
    """(ball computed at 53 bits, the exact half-width of the exact result)."""
    with workprec(200):
        wide = 1 + mpf(2) ** -150
    with workprec(53):
        tiny, u = mpf(2) ** -200, 1 + mpf(2) ** -52
        e1, v2, f = mp.ldexp(7850867838710181, -52), mp.ldexp(7434051592338293, -52), \
            mp.ldexp(4051791406653507, -94)
        return {
            # e + e'
            "sum": (CertValue(0, 1) + CertValue(0, tiny), 1 + _two(-200)),
            # [-u, u] u = [-u^2, u^2], u = 1 + 2^-52, and u^2 needs 105 bits
            "product": (CertValue(0, u) * CertValue(u), (1 + _two(-52)) ** 2),
            "init": (CertValue(0, wide), 1 + _two(-150)),
            # (|v| f + |v'| e) / (|v'| (|v'| - f)), here also the largest |x / y|
            "quotient": (CertValue(0, e1) / CertValue(v2, f),
                         _exact(e1) / (_exact(v2) - _exact(f))),
            # [2^-30 - 1, 2^-30 + 1]^2 = [0, (1 + 2^-30)^2], 61 bits at its top
            "power": (CertValue(mpf(2) ** -30, 1).pow_int(2), (1 + _two(-30)) ** 2 / 2),
        }


@pytest.mark.parametrize("name", ["sum", "product", "init", "quotient", "power"])
def test_radius_is_never_below_its_exact_formula(name):
    # ends rounded to nearest give 1, 1 + 2^-51 and 1 for the first three
    # and fall short on the last two; every end rounds outward
    ball, exact = _inward_cases()[name]
    assert _exact(ball.err) >= exact


# name -> (the mpmath function, midpoint range, largest radius as a power of 2
# of |midpoint|), chosen so that every ball lies in the function's domain
BALL_FUNCTIONS = {
    "exp": (mp.exp, (-50, 50), 0),
    "log": (mp.log, (1e-3, 1e3), -2),
    "sqrt": (mp.sqrt, (1e-3, 1e3), -1),
    "sin": (mp.sin, (-10, 10), 0),
    "cos": (mp.cos, (-10, 10), 0),
    "tan": (mp.tan, (-1.4, 1.4), -6),
    "acos": (mp.acos, (-0.9, 0.9), -6),
}


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("name", BALL_FUNCTIONS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ball_function_holds_the_reference(name, prec, data):
    # f at both ends of the argument's interval and at seven interior
    # points, at 2000 bits, lies in the result's interval
    f, (lo, hi), top = BALL_FUNCTIONS[name]
    draw = data.draw
    x = draw(st.floats(lo, hi).filter(lambda t: abs(t) > 1e-6))
    scale = draw(st.integers(-prec - 10, top))
    with workprec(prec):
        v = mpf(x) * (1 + mpf(2) ** -60 * draw(UNIT))
        arg = CertValue(v, abs(v) * mpf(2) ** scale * draw(UNIT))
        ball = getattr(arg, name)()
    a, b = (mp.make_mpf(t) for t in arg.re)
    with workprec(2000):
        for i in range(9):
            assert _holds((ball,), f(a + (b - a) * i / 8)), i


@pytest.mark.parametrize("prec", [53, 140])
@pytest.mark.parametrize("name, critical", [("sin", Fraction(1, 2)), ("sin", Fraction(-1, 2)),
                                            ("cos", Fraction(0)), ("cos", Fraction(1))])
def test_ball_function_holds_an_extremum_inside_the_ball(name, critical, prec):
    # balls about an extremum c pi of sin or cos, centred and off centre:
    # the extreme value +-1 lies inside, where no end value reaches it (by
    # about radius^2 / 2, far above the rounding), so a range taken from
    # the two end values alone misses it
    f = getattr(mp, name)
    for scale in (-3, -10, -20):
        radius = mpf(2) ** scale
        for offset in (0, Fraction(1, 3), Fraction(-7, 8)):
            with workprec(prec):
                mid = mp.pi * critical + radius * offset
                ball = getattr(CertValue(mid, radius), name)()
            with workprec(2000):
                points = [mp.pi * critical] + [mid + radius * i / 8 for i in range(-8, 9)]
                for w in points:
                    assert abs(f(w) - ball.value) <= ball.err, (scale, offset, w)


@pytest.mark.parametrize("name, man, exp", [("exp", 6115029086958038, -53),
                                            ("exp", 8315938126365595, -53),
                                            ("log", 6090555258641613, -52)])
def test_ball_function_holds_a_value_that_mpmath_rounds_inward(name, man, exp):
    # at these 53-bit points mpmath's exp or log, rounded floor or ceiling,
    # misses the true value by a small fraction of an ulp: it is accurate,
    # not correctly rounded, so the ball of the directed ends alone misses
    x = mpf(man) * mpf(2) ** exp
    with workprec(53):
        ball = getattr(CertValue(x), name)()
    with workprec(2000):
        assert abs(getattr(mp, name)(x) - ball.value) <= ball.err


def _point(x: Fraction) -> tuple:
    """The exact libmpi interval [x, x] of a dyadic Fraction."""
    shift = x.denominator.bit_length() - 1
    assert x.denominator == 1 << shift
    t = from_man_exp(x.numerator, -shift)
    return t, t


def _libmpi_cases():
    """name -> (the ends a libmpi function returns at 53 bits, the exact value
    they must hold strictly, or a pair (lo, hi) the ends must be exactly).

    Every value is irrational or needs more than 53 bits, except for
    mpi_neg, which evalnum calls without a precision, so it must be exact.
    The mpci_* rows are the complex kernels of the oracles' mpmath.iv."""
    from mpmath.libmp import libmpi
    tiny, one, three = Fraction(1, 2 ** 200), Fraction(1), Fraction(3)
    u = 1 + Fraction(1, 2 ** 52)
    x, y, zero = _point(one), _point(tiny), _point(Fraction(0))
    with workprec(2000):
        ref = {k: _exact(+v) for k, v in (
            ("e", mp.e), ("ln2", mp.ln2), ("pi", mp.pi), ("sqrt2", mp.sqrt(2)),
            ("sin1", mp.sin(1)), ("cos1", mp.cos(1)), ("tan1", mp.tan(1)),
            ("sqrtpi", mp.sqrt(mp.pi)))}
    return {
        "mpi_add": (libmpi.mpi_add(x, y, 53), (one, 1 + Fraction(1, 2 ** 52))),
        "mpi_sub": (libmpi.mpi_sub(x, y, 53), (1 - Fraction(1, 2 ** 53), one)),
        "mpi_mul": (libmpi.mpi_mul(_point(u), _point(u), 53), u * u),
        "mpi_div": (libmpi.mpi_div(x, _point(three), 53), one / 3),
        "mpi_pow_int": (libmpi.mpi_pow_int(_point(three), 40, 53), three ** 40),
        "mpi_abs": (libmpi.mpi_abs((_point(-1 - tiny)[0], _point(-one)[0]), 53),
                    (one, 1 + Fraction(1, 2 ** 52))),
        "mpi_neg": (libmpi.mpi_neg((_point(one)[0], _point(1 + tiny)[1])), (-1 - tiny, -one)),
        "mpci_add": (libmpi.mpci_add((x, x), (y, y), 53)[1], (one, 1 + Fraction(1, 2 ** 52))),
        "mpci_sub": (libmpi.mpci_sub((x, x), (y, y), 53)[1], (1 - Fraction(1, 2 ** 53), one)),
        # (u + i u)^2 = 2 u^2 i
        "mpci_mul": (libmpi.mpci_mul((_point(u),) * 2, (_point(u),) * 2, 53)[1], 2 * u * u),
        "mpci_div": (libmpi.mpci_div((x, zero), (_point(three), zero), 53)[0], one / 3),
        "mpci_pow_int": (libmpi.mpci_pow_int((_point(three), zero), 40, 53)[0], three ** 40),
        "mpci_abs": (libmpi.mpci_abs((x, x), 53), ref["sqrt2"]),
        "mpi_exp": (libmpi.mpi_exp(x, 53), ref["e"]),
        "mpi_log": (libmpi.mpi_log(_point(Fraction(2)), 53), ref["ln2"]),
        "mpi_sqrt": (libmpi.mpi_sqrt(_point(Fraction(2)), 53), ref["sqrt2"]),
        "mpi_sin": (libmpi.mpi_sin(x, 53), ref["sin1"]),
        "mpi_cos": (libmpi.mpi_cos(x, 53), ref["cos1"]),
        "mpi_tan": (libmpi.mpi_tan(x, 53), ref["tan1"]),
        "mpi_atan": (libmpi.mpi_atan(x, 53), ref["pi"] / 4),
        "mpi_pi": (libmpi.mpi_pi(53), ref["pi"]),
        "mpi_gamma": (libmpi.mpi_gamma(_point(Fraction(1, 2)), 53), ref["sqrtpi"]),
    }


def _assert_outward(cases: dict):
    for name, (ends, want) in cases.items():
        lo, hi = (_exact(t) for t in ends)
        if isinstance(want, tuple):
            assert (lo, hi) == want, name
        else:
            assert lo < want < hi and hi - lo <= want * Fraction(1, 2 ** 50), name


def test_libmpi_kernels_round_outward():
    # evalnum rests on mpmath's private interval module: every function it
    # imports from there rounds outward on one case whose exact value no
    # 53-bit end holds, so a change of that behaviour fails here first; a
    # complex kernel imported into evalnum is not among the cases
    imported = {name for name, f in vars(evalnum).items()
                if getattr(f, "__module__", None) == "mpmath.libmp.libmpi"}
    cases = {name: v for name, v in _libmpi_cases().items() if name.startswith("mpi_")}
    assert imported == set(cases)
    _assert_outward(cases)


def test_oracle_kernels_round_outward():
    # the oracles run on mpmath.iv, whose rectangles call libmpi's complex
    # kernels (mpci_pow_int through mpci_pow for an integer power): each
    # rounds outward on its case
    cases = {name: v for name, v in _libmpi_cases().items() if name.startswith("mpci_")}
    assert len(cases) == 6 and set(cases) - {"mpci_pow_int"} <= set(vars(ctx_iv))
    _assert_outward(cases)


@pytest.mark.parametrize("prec", [53, 140])
def test_pi_ball_holds_pi(prec):
    with workprec(prec):
        pi = CertValue.pi()
    with workprec(2000):
        assert abs(mp.pi - pi.value) <= pi.err


def test_ball_functions_refuse_a_ball_outside_their_domain():
    with pytest.raises(ValueError):
        CertValue(1, 1).log()
    with pytest.raises(ValueError):
        CertValue(1, 2).sqrt()
    with pytest.raises(ValueError):
        CertValue(mpf("0.5"), mpf("0.5")).acos()
    with pytest.raises(ValueError):
        CertValue(mpf("1.5"), mpf("0.1")).tan()
    with pytest.raises(TypeError):
        CertValue(mpc(1, 1))


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
    # every w with |w - v| <= e must have w^n inside the result: the
    # interval power of a real v, and for a complex v the oracles' power
    # of a rectangle, mpci_pow_int through mpmath.iv
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
        if branch == "real":
            got = CertValue(v, e).pow_int(n)
        else:
            with iv_prec():
                got = iv_ball(v, e) ** n
    u, phi = draw(UNIT), 2 * math.pi * draw(UNIT)
    with workprec(2000):
        direction = mp.expj(phi) if branch != "real" else mp.sign(phi - math.pi)
        w = v + e * (1 - mpf(2) ** -100) * mpf(u) * direction
        value, err = (got.value, got.err) if branch == "real" else mid_rad(got)
        assert abs(w ** n - value) <= err


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 200, 2 ** 200), st.integers(-400, 400), st.sampled_from(PRECS))
def test_abs_upper_is_a_tight_upper_bound(a, scale, prec):
    # exactly: |v| <= abs_upper <= (1 + 2^(3-prec)) |v| for the point v of
    # up to 240 bits at any scale, its ends rounded outward at prec
    with workprec(240):
        v = mp.ldexp(a, scale)
    with workprec(prec):
        bound = _exact(CertValue(v).abs_upper())
    assert abs(_exact(v)) <= bound <= (1 + Fraction(8, 2 ** prec)) * abs(_exact(v))


@pytest.mark.parametrize("value, mag", [(mpf(1), 1), (mpf(-1), 1)])
def test_abs_bounds_round_outward(value, mag):
    # |v| +- 2^-80: rounded to nearest at 24 or 53 bits, |v| + 2^-80 is |v|
    # itself, inside the exact enclosure; the bounds stay outside it, and
    # within 2^-79 and 4 ulp of it
    tiny = Fraction(1, 2 ** 80)
    for prec in PRECS:
        with workprec(prec):
            cv = CertValue(value, mpf(2) ** -80)
            hi, lo = _exact(cv.abs_upper()), _exact(cv.abs_lower())
        slack = 2 * tiny + mag * Fraction(4, 2 ** prec)
        assert mag + tiny <= hi <= mag + slack, prec
        assert mag - slack <= lo <= mag - tiny, prec


@pytest.mark.parametrize("offset", (2 ** -60, -2 ** -60))
@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("err", (0, 2 ** -100))
def test_abs_bounds_of_a_128_bit_real_ball_read_at_53_bits(offset, sign, err):
    # |v| = 1 +- 2^-60 rounds to 1 at 53 bits, inside or outside the ball;
    # the bounds read |v| exactly and round it outward
    with workprec(128):
        cv = CertValue(sign * (1 + mpf(offset)), err)
    mag, rad = abs(_exact(cv.value)), _exact(cv.err)
    with workprec(53):
        hi, lo = _exact(cv.abs_upper()), _exact(cv.abs_lower())
    assert lo <= mag - rad and hi >= mag + rad


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
def test_kernel_encloses_every_point_of_the_disk(case):
    # the kernel as the oracle's complex_poly takes it: a real point through
    # its real loop, a complex one through the Gaussian loop
    coeffs, z, radius, u, phi = case
    with workprec(140):
        got = complex_poly(coeffs, z, radius)
        assert isinstance(got, iv.mpc) == isinstance(z, mpc)
    with workprec(2000):
        # shrink by 1 - 2^-100 so that the 2000-bit rounding keeps w in the disk
        w = mpc(z) + mpf(radius) * (1 - mpf(2) ** -100) * mpf(u) * mp.expj(phi)
        exact = mpc(0)
        for c in reversed(coeffs):
            exact = exact * w + mpf(c.numerator) / c.denominator
        value, err = mid_rad(got)
        assert abs(exact - value) <= err


def test_kernel_is_tight_without_radius():
    e4 = eisenstein(4, 48).coeffs
    with workprec(140):
        q = mp.e ** (2j * mp.pi * mpc("0.2", "0.65"))
        value, err = mid_rad(complex_poly(e4, q))
        assert err <= abs(value) * mpf(2) ** -130
        value, err = mid_rad(complex_poly(e4, q.real))
        assert err <= value * mpf(2) ** -136
        assert mid_rad(complex_poly([Fraction(1, 3)], 5))[1] <= mpf(2) ** -135
        assert mid_rad(complex_poly([7, 0, 1], mpf(2)))[0] == 11


# ---------------------------------------------------------------------------
# outward integer ends

ENDS = st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)).map(
    lambda x: tuple(sorted(x)))
SMALL_ENDS = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda x: tuple(sorted(x)))
SHARES = st.lists(st.fractions(0, 1, max_denominator=10 ** 4), max_size=6)


def points_of(x, shares):
    """The ends of x, 0 when x holds it, and the points at the given shares of its width."""
    lo, hi = x
    return [Fraction(lo), Fraction(hi), *([Fraction(0)] if lo <= 0 <= hi else []),
            *(lo + t * (hi - lo) for t in shares)]


@settings(max_examples=300, deadline=None)
@given(ENDS, ENDS, SHARES, SHARES)
@example(x=(-3, 5), y=(-7, -2), sx=[], sy=[])
@example(x=(-3, 5), y=(-4, 6), sx=[], sy=[])
def test_ends_mul_holds_every_product_and_reaches_its_ends(x, y, sx, sy):
    # against Fractions: every product of points of x and y lies in the
    # ends, whatever the signs, and both ends are such products
    lo, hi = _ends_mul(x, y)
    products = [u * v for u in points_of(x, sx) for v in points_of(y, sy)]
    assert lo <= min(products) and max(products) <= hi
    ends = [u * v for u in x for v in y]
    assert lo in ends and hi in ends


@settings(max_examples=300, deadline=None)
@given(SMALL_ENDS | ENDS, st.integers(0, 7), SHARES)
@example(x=(-3, 5), n=0, shares=[])
@example(x=(-3, 5), n=2, shares=[])
@example(x=(-7, -2), n=2, shares=[])
@example(x=(-7, -2), n=3, shares=[])
@example(x=(-7, -2), n=0, shares=[])
def test_ends_pow_is_the_exact_power_of_an_interval(x, n, shares):
    # against Fractions: x^0 = [1, 1] even across 0, an even power of a
    # negative interval swaps its ends, and one across 0 reaches down to
    # 0; the ends are the least and greatest power of a point of x
    lo, hi = _ends_pow(x, n)
    extremes = [u ** n for u in points_of(x, [])]
    assert lo == min(extremes) and hi == max(extremes)
    assert all(lo <= u ** n <= hi for u in points_of(x, shares))


@settings(max_examples=300, deadline=None)
@given(ENDS, st.integers(-8, 40))
@example(x=(-5, 5), s=1)
@example(x=(5, 7), s=2)
def test_cut_rounds_outward_by_under_one_unit(x, s):
    # x at a scale 2^s coarser: the lower end floored and the upper one
    # ceiled, each within one new unit; a shift s <= 0 is exact
    lo, hi = _cut(x, s)
    unit = Fraction(2) ** s
    assert lo * unit <= x[0] < (lo + 1) * unit
    assert (hi - 1) * unit < x[1] <= hi * unit
    if s <= 0:
        assert (lo * unit, hi * unit) == x


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10 ** 40), st.integers(0, 10 ** 40), st.integers(0, 160),
       st.integers(-200, 50), st.integers(8, 96))
@example(lo=3, width=0, n=0, e=-10, bits=8)
@example(lo=1 << 70, width=0, n=157, e=-70, bits=40)
@example(lo=1, width=160, n=27, e=0, bits=8)      # a ceiling that carries hi to 2^bits
def test_ends_pow_float_holds_the_power_within_its_cuts(lo, width, n, e, bits):
    # [lo, hi] 2^e to the n by binary powering, each product cut outward
    # to bits significant bits: the exact power lies inside, and the
    # upper end exceeds it by under (1 + 2^(1 - bits))^(2n)
    x = (lo, lo + width)
    got_lo, got_hi, got_e = _ends_pow_float(x, n, e, bits)
    unit = Fraction(2) ** got_e
    want_lo, want_hi = (Fraction(v) * Fraction(2) ** e for v in x)
    assert got_lo * unit <= want_lo ** n and want_hi ** n <= got_hi * unit
    assert got_hi * unit <= want_hi ** n * (1 + Fraction(2, 1 << bits)) ** (2 * n)
    assert got_hi.bit_length() <= max(bits, (lo + width).bit_length())


def reference_eval_series(s, tau, tail, prec=128):
    """The interval Horner with per-operation pads that eval_series replaced,
    on mpmath.iv rectangles."""
    with iv_prec(prec + 12):
        q = mp.e ** (2j * mp.pi * mp.mpmathify(tau))
        qc = iv_ball(q, abs(q) * mpf(2) ** (4 - mp.prec))
        acc = iv.mpf(0)
        for c in reversed(s.coeffs):
            acc = acc * qc
            if c != 0:
                acc = acc + c
        if s.lead > 0:
            acc = acc * qc ** s.lead
        elif s.lead < 0:
            acc = acc / qc ** -s.lead
        return iv_widen(acc, oracle_tail(tail, s.trunc, abs(q), mp.im(tau)))


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
        got = mid_rad(iv_pair(eval_series(series, tau, tail)))
        ref = mid_rad(reference_eval_series(series, tau, tail))
        assert abs(got[0] - ref[0]) <= got[1] + ref[1]
        assert got[1] <= 2 * ref[1]


def test_zero_width_segment_is_the_point():
    with workprec(140):
        points = [mpc(x, y) for x in ("0", "0.2", "0.5") for y in ("0.65", "0.75")]
    for series, tail in ((eisenstein(4, 48), EisensteinTail(4)),
                         (eisenstein(6, 48), EisensteinTail(6)), (jfunction(48), JCoeffTail())):
        for prec in (96, 128, 200):
            for tau in points + [0.1 + 0.7j]:
                point, span = (eval_series(series, t, tail, prec=prec) for t in (tau, (tau, tau)))
                assert [x.re for x in span] == [x.re for x in point]
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
    span = mid_rad(iv_pair(eval_series(eisenstein(k, 48), (mpc(lo, y), mpc(hi, y)),
                                       EisensteinTail(k))))
    ref = mid_rad(separate_q_series(eisenstein(k, 100), mpc(x, y), EisensteinTail(k), prec=400))
    assert ref[1] < mpf(2) ** -300
    assert abs(span[0] - ref[0]) <= span[1] + ref[1]


# ---------------------------------------------------------------------------
# tail bounds

def test_tail_domination_actual_remainders():
    # each tail's units at a point of height y bound the dropped terms at |q| = e^(-2 pi y)
    j, e6 = jfunction(48), eisenstein(6, 48)
    cases = (("0", "1", j, JCoeffTail(), (12, 20, 36)),
             ("0.3", "0.8", j, JCoeffTail(), (12, 20, 36)),
             ("0", "0.65", e6, EisensteinTail(6), (8, 16)))
    with workprec(96):
        for x, y, series, tail, truncs in cases:
            pt = _Point(mpf(x), mpf(y))
            r = mp.exp(-2 * mp.pi * mpf(y))
            for n in truncs:
                tail_true = sum(abs(int(series.coeff(i))) * r ** i for i in range(n + 1, 49))
                assert tail_true <= tail.units(n, pt) * mp.ldexp(1, -pt.P)


def test_tail_unbounded_guards():
    with pytest.raises(TailUnboundedError):
        j_tail_bound(2, 0.5)
    # |q| <= 1 for the eta product; (1 + 1/n)^k |q| = 16 |q| = 1 for E_4 cut at q^0
    with pytest.raises(TailUnboundedError):
        EtaProductTail().units(5, SimpleNamespace(r=1 << 20, pad=0, P=20))
    with pytest.raises(TailUnboundedError):
        EisensteinTail(4).units(0, SimpleNamespace(r=1 << 16, pad=0, P=20))
    assert EisensteinTail(4).units(0, SimpleNamespace(r=(1 << 16) - 1, pad=0, P=20)) > 0


def _tail_points() -> list:
    """Arc points and intervals, line points and segments, at 96 to 512 bits."""
    pts = []
    for prec in (96, 128, 512):
        with workprec(prec + _GUARD):
            for theta in (mp.pi / 2, 1.75, 2 * mp.pi / 3):
                pts += [_Point(mpf(theta)), _Point(mpf(theta), h=mpf("0.01"))]
            for x, y in (("0", "0.65"), ("0.3", "0.75"), ("0.5", "1")):
                pts += [_Point(mpf(x), mpf(y)), _Point(mpf(x), mpf(y), mpf("0.1"))]
    return pts


def test_tail_units_are_the_ceiling_of_the_closed_form():
    # units(N, pt) is exactly ceil(2^P closed form) at rho = (r + pad) 2^-P, in Fractions
    for pt in _tail_points():
        rho = Fraction(pt.r + pt.pad, 1 << pt.P)
        for trunc in (8, 25, 49):
            n = trunc + 1
            for tail in (EisensteinTail(0), EisensteinTail(2), EisensteinTail(4),
                         EisensteinTail(6), EtaProductTail()):
                if isinstance(tail, EtaProductTail):
                    lead, growth = 2, 1
                else:
                    lead = abs(Fraction(2 * tail.k) / bernoulli(tail.k)) * n ** tail.k
                    growth = Fraction(n + 1, n) ** tail.k
                closed = lead * rho ** n / (1 - growth * rho) * (1 << pt.P)
                got = tail.units(trunc, pt)
                assert isinstance(got, int)
                assert got == math.ceil(closed), (tail, trunc, pt.P)


def _j_tail_formula(M: int, a) -> mpf:
    """j_tail_bound's closed form with every factor computed on the spot."""
    a = mpf(a)
    root = mp.sqrt(M)
    expo = 2 * mp.pi * (1 / a - a * (root - 1 / a) ** 2)
    lead = mp.exp(expo) / (2 * mp.sqrt(2) * mp.pi * mp.sqrt(mp.sqrt(mpf(M + 1) ** 3)))
    return lead * (root / (a * root - 1)) * _TAIL_SLACK


def test_cached_constants_match_their_formulas():
    # the factors cached per precision give the same mpf as forming them in place
    with workprec(140):                     # certify's ledger precision
        cases = [(6, mp.sin(mpf(1.9))), (5, 0.75), (7, 0.65)]
        for M, a in cases:
            assert j_tail_bound(M, a) == j_tail_bound(M, a) == _j_tail_formula(M, a)
    for prec in (128, 256, 512, 1024):      # arc_j's truncation and height
        for theta in (1.5707963267948966, 1.75, 1.9, 2.0943951023931957):
            with workprec(prec + 12):
                y = _Point(_theta_mpf(theta)).y
                M = max(auto_trunc(y, prec), int(1 / float(y) ** 2) + 8)
                assert j_tail_bound(M, y) == _j_tail_formula(M, y)
                assert _two_pi(mp.prec) == 2 * mp.pi
                assert _corner_angles(mp.prec) == (mp.pi / 2, 2 * mp.pi / 3)
                slack = mpf(2) ** -50
                assert _corner_window(mp.prec) == (mp.pi / 2 - slack, 2 * mp.pi / 3 + slack)


def test_eval_below_height_floor():
    with pytest.raises(ValueError):
        eval_series(eisenstein(4, 16), mpc(0, "0.3"), EisensteinTail(4))


# ---------------------------------------------------------------------------
# moduli, Delta and j read off the integer disks

# the references run 400 bits above the working precision
REF_PREC = DEFAULT_PREC + 400


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 80, 2 ** 80), st.integers(0, 2 ** 40))
@example(1, 1, 0)
def test_modulus_ends_hold_every_modulus_of_the_disk(a, b, units):
    # exactly: hi >= |a + ib| + units, and lo <= |a + ib| - units unless lo = 0
    lo, hi = _modulus_ends(a, b, units)
    assert hi >= units and (hi - units) ** 2 >= a * a + b * b
    assert lo >= 0 and (lo == 0 or (lo + units) ** 2 <= a * a + b * b)


def _segment(height, where, log_width, at) -> tuple:
    """(a subsegment of [0, 1/2] of width 10^log_width at height, a point x of it)."""
    with workprec(140):
        y = mpf(height)
        width = mpf(10) ** log_width
        lo = mpf(where) * (mpf(1) / 2 - width)
        hi = lo + width
        return (mpc(lo, y), mpc(hi, y)), mpc(min(hi, max(lo, lo + mpf(at) * width)), y)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((4, 6)), st.sampled_from(("0.65", "0.75")), st.floats(0, 1),
       st.floats(-6, -0.3), st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
def test_abs_on_a_segment_holds_the_modulus_within_the_rectangle(k, height, where, log_width, at):
    # |E_k| at a point of the segment, from 400 more bits, lies in eval_abs's
    # interval, whose upper end is at most the rectangle's abs_upper
    segment, tau = _segment(height, where, log_width, at)
    got = eval_abs(eisenstein(k, 48), segment, EisensteinTail(k))
    ref = separate_q_series(eisenstein(k, 100), tau, EisensteinTail(k), prec=REF_PREC)
    with workprec(REF_PREC + 12):
        value, err = mid_rad(ref)
        assert err < mpf(2) ** -400
        modulus = abs(value)
        assert _exact(got.re[0]) <= _exact(modulus - 2 * err)
        assert _exact(modulus + 2 * err) <= _exact(got.re[1])
    with iv_prec(DEFAULT_PREC + _GUARD):
        rectangle = abs(iv_pair(eval_series(eisenstein(k, 48), segment, EisensteinTail(k))))
    assert _exact(got.re[1]) <= _exact(rectangle._mpi_[1])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("0.65", "0.75")), st.floats(0, 0.5))
@example("0.65", 0.5)
@example("0.75", 0.0)
def test_table_point_bounds_hold_the_reference_values(height, x):
    # |E_4|, |E_6| and |Delta| against their bounds and j in its disk, all
    # from E_4 and E_6 at 400 more bits
    with workprec(140):
        tau = mpc(x, mpf(height))
    hi4, hi6, low, centre, radius = modular_bounds(tau)
    e4, e6 = (separate_q_series(eisenstein(k, 100), tau, EisensteinTail(k), prec=REF_PREC)
              for k in (4, 6))
    with workprec(REF_PREC + 12):
        (e4, r4), (e6, r6) = mid_rad(e4), mid_rad(e6)
        assert max(r4, r6) < mpf(2) ** -400
        cube = e4 ** 3
        delta = (cube - e6 ** 2) / 1728
        slack = mpf(2) ** -350          # the references' radii, through cube and quotient
        assert abs(e4) + slack <= hi4 and abs(e6) + slack <= hi6
        assert low + slack <= abs(delta)
        assert abs(cube / delta - centre) + slack <= radius


def _on_circle(t: Fraction) -> tuple:
    """A rational point of the unit circle: ((1 - t^2), 2t) / (1 + t^2)."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def _cmul(z: tuple, w: tuple) -> tuple:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


DISK_CENTRES = st.integers(-2 ** 21, 2 ** 21)
TURNS = st.fractions(-8, 8, max_denominator=50)


@settings(max_examples=300, deadline=None)
@given(DISK_CENTRES, DISK_CENTRES, DISK_CENTRES, DISK_CENTRES, st.integers(0, 2 ** 8),
       st.integers(0, 2 ** 8), TURNS, TURNS)
@example(2 ** 20, 0, 2 ** 19, 0, 0, 5, Fraction(1, 3), Fraction(1, 2))
@example(3 << 18, 1 << 17, 1 << 20, 3 << 18, 7, 0, Fraction(-2), Fraction(0))
def test_modular_ends_hold_every_point_of_the_disks(x4, y4, x6, y6, u4, u6, t4, t6):
    # exactly, in Fractions at P = 20: a point of each disk's boundary circle,
    # E = Z + u (c + i s), has |E_4| and |E_6| under their bounds, |Delta|
    # above its bound and j inside its disk
    P = 20
    try:
        hi4, hi6, low, jx, jy, jr = _modular_ends((x4, y4, u4), (x6, y6, u6), P)
    except ZeroDivisionError:               # the disk of 1728 Delta reaches 0
        return
    e4, e6 = ((x + u * c, y + u * s) for (x, y, u), (c, s) in
              (((x4, y4, u4), _on_circle(t4)), ((x6, y6, u6), _on_circle(t6))))
    assert e4[0] ** 2 + e4[1] ** 2 <= hi4 ** 2 and e6[0] ** 2 + e6[1] ** 2 <= hi6 ** 2
    cube, square = _cmul(e4, _cmul(e4, e4)), _cmul(e6, e6)
    d = (cube[0] - square[0] * 2 ** P, cube[1] - square[1] * 2 ** P)        # 1728 Delta
    norm = d[0] ** 2 + d[1] ** 2
    assert low ** 2 <= norm
    # j = 1728 C / D = 1728 C conj(D) / |D|^2, in units of 2^-P
    j = [1728 * 2 ** P * t / norm for t in _cmul(cube, (d[0], -d[1]))]
    assert (j[0] - jx) ** 2 + (j[1] - jy) ** 2 <= jr ** 2


@settings(max_examples=300, deadline=None)
@given(st.integers(16, 600), st.floats(0.01, 0.99), st.integers(0, 2 ** 12),
       st.integers(1, 2 ** 400), st.integers(1, 2 ** 20), st.integers(0, 200))
@example(164, 0.0169, 4, 2 ** 400, 3, 48)
def test_cut_tail_units_never_fall_below_the_exact_quotient(P, share, pad, a, b, trunc):
    # the tail's R^n cut outward to P + 32 bits: at least the ceiling of the
    # exact quotient, and above it by at most (n + 8) 2^-(P+30) of it plus
    # the ceilings, since each product is cut at most twice, 2^-(P+31) each
    # time, and the cut powers of R enter R^n with exponents summing to at
    # most n + log2 n; no tail once R 2^-P >= 1
    r = int(share * 2 ** P)
    pt = SimpleNamespace(P=P, r=r, pad=pad)
    R, n = r + pad, trunc + 1
    room = (1 << P) - R
    if room <= 0:
        with pytest.raises(TailUnboundedError):
            _geometric_units((a, b, 1, 1), trunc, pt)
        return
    exact = -(-(a * R ** n << 2 * P) // (b * room << P * n))
    got = _geometric_units((a, b, 1, 1), trunc, pt)
    assert exact <= got <= exact + (exact * (n + 8) >> P + 30) + 2


# ---------------------------------------------------------------------------
# point evaluation

def test_constant_series_evaluates_exactly():
    # the rectangle holds 1 exactly and lies within 2^-90 of it
    one = QSeries.one(6)
    cv = eval_series(one, mpc(0, 1), None)
    assert _holds(cv, mpc(1)) and mid_rad(iv_pair(cv))[1] <= mpf(2) ** -90


def test_delta_at_i_two_routes():
    tau = mpc(0, 1)
    via_eta = eval_delta_abs(tau)
    via_series = eval_abs(delta(64), tau, EtaProductTail())
    assert abs(via_eta.value - mpf("0.00178537")) < 1e-6
    assert via_eta.certified_sign() == 1
    assert abs(via_eta.value - via_series.value) <= via_eta.err + via_series.err


def test_delta_line_grids():
    for y, floor in (("0.65", "0.01"), ("0.75", "0.007")):
        for x in ("-0.5", "-0.25", "0", "0.25", "0.5"):
            cv = eval_delta_abs(mpc(x, y))
            assert cv.abs_lower() > mpf(floor)


def _delta_ledger_points() -> list:
    """i, rho and the 15 sandwich points, formed as delta_ledger forms them."""
    with workprec(DEFAULT_PREC + _GUARD):
        return [mpc(0, 1), mpc(-0.5, mp.sqrt(3) / 2)] + [
            mpf(x) + 1j * mpf(y) for y in (0.65, 0.75, 1.0) for x in (-0.5, -0.25, 0.0, 0.25, 0.5)]


def _delta_rectangle(tau):
    """|q P^24| by the rectangle route: the eta product's disk and q's, each
    the rectangle that holds it, the power, product and modulus in mpmath.iv."""
    with iv_prec(DEFAULT_PREC + _GUARD):
        pt = _Point(mp.re(tau), mp.im(tau))
        a, b, units = _disk(_pentagonal_euler_product(auto_trunc(pt.y, DEFAULT_PREC)),
                            EtaProductTail(), pt)
        prod, q = (iv.make_mpc(tuple(_fixed_ends(c - u, c + u, pt.P) for c in (x, y)))
                   for x, y, u in ((a, b, units), (pt.qx, pt.qy, pt.pad)))
        return abs(prod ** 24 * q)


@pytest.mark.parametrize("tau", _delta_ledger_points())
def test_delta_abs_holds_the_reference_within_the_rectangle(tau):
    # |Delta| at the ledger's points: the product q prod (1 - q^n)^24 to
    # q^300 at 400 more bits lies inside, and the interval is no wider than
    # the rectangle route's
    got = eval_delta_abs(tau)
    with workprec(DEFAULT_PREC + 400):
        q = mp.exp(2j * mp.pi * tau)
        ref, power = q, q
        for _ in range(300):
            ref, power = ref * (1 - power) ** 24, power * q
        ref, slack = abs(ref), mpf(2) ** -350
        assert _exact(got.re[0]) <= _exact(ref - slack) and _exact(ref + slack) <= _exact(got.re[1])
    rectangle = _delta_rectangle(tau)._mpi_
    assert _exact(got.re[1]) - _exact(got.re[0]) <= _exact(rectangle[1]) - _exact(rectangle[0])


def test_eval_form_matches_direct_sum(direct_form):
    # the factored route must agree with a long plain partial sum; the
    # leftover is the q^65 series tail, far below the slack used here
    f = miller_form(48, 1, trunc=64)
    tau = mpc("0.1", "0.9")
    value, err = mid_rad(direct_form(f, tau, prec=128))
    with workprec(300):
        q = mp.e ** (2j * mp.pi * mpc(tau))
        direct = sum(int(f.series.coeff(n)) * q ** n
                     for n in range(1, f.series.trunc + 1))
    assert abs(value - direct) <= err + mpf(10) ** -25


def test_eval_form_weight_12_is_delta(direct_form):
    # g_{12,1} = Delta: the oracle's value against Delta's series, and its
    # modulus against the eta product's
    f = miller_form(12, 1)
    for tau in (mpc(0, 1), mpc("0.2", "0.8")):
        a, a_err = mid_rad(direct_form(f, tau))
        b, b_err = mid_rad(iv_pair(eval_series(delta(64), tau, EtaProductTail())))
        assert abs(a - b) <= a_err + b_err
        c = eval_delta_abs(tau)
        with workprec(400):             # |a| exactly enough for radii near 2^-140
            assert abs(abs(a) - c.value) <= a_err + c.err


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
        for a, b in zip(arc_quartet(span), arc_quartet(point)):
            assert (a.value, a.err) == (b.value, b.err)


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.floats(-6, -1), st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)))
def test_arc_interval_encloses_every_angle(where, log_width, at):
    # a subinterval [lo, hi] of width 1e-6 to 0.1 and theta in it, ends
    # included: the interval holds the point result and the oracle's
    # separate-q values at theta, taken 400 bits beyond it
    with workprec(140):
        width = mpf(10) ** log_width
        lo = ARC_ANGLES[0] + mpf(where) * (ARC_ANGLES[-1] - ARC_ANGLES[0] - width)
        hi = lo + width
        theta = min(hi, max(lo, lo + mpf(at) * width))
    span, point = arc_functions((lo, hi)), arc_functions(theta)
    ref = separate_q_arc_functions(theta, prec=400)
    for a, b, c in zip(arc_quartet(span), arc_quartet(point), ref):
        assert abs(a.value - b.value) <= a.err + b.err
        assert c.err < mpf(2) ** -300
        assert abs(a.value - c.value) <= a.err + c.err


@pytest.mark.parametrize("theta", ARC_ANGLES)
def test_eval_form_matches_separate_q_path(theta, form_124_1, direct_form):
    # g_{124,1}: ell = 10, E_4 factor, j of degree 9
    prec = form_arc_prec(form_124_1.id.ell, 1)
    with workprec(prec + 12):
        tau = mp.expj(theta)
    got = mid_rad(direct_form(form_124_1, tau, prec=prec))
    ref = mid_rad(separate_q_form(form_124_1, tau, prec))
    assert abs(got[0] - ref[0]) <= got[1] + ref[1]
    assert got[1] <= 2 * ref[1]


def test_arc_j_monotone_decreasing():
    vals = [arc_j(t).value for t in arc_grid(2e-2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_angles_off_the_arc_are_refused():
    # 5e-10 past rho, j is about -5.7e-24; an enclosure of j(rho) = 0 there
    # would be false, so the angle is refused rather than moved onto rho
    with workprec(140):
        past_rho, before_i = 2 * mp.pi / 3 + mpf("5e-10"), mp.pi / 2 - mpf("5e-10")
    for theta in (past_rho, before_i):
        with pytest.raises(ValueError, match="outside"):
            arc_j(theta)
        with pytest.raises(ValueError, match="outside"):
            arc_functions(theta)
    # the doubles of the corners, arc_grid's two ends, stand for the corners
    grid = arc_grid()
    at_i, at_rho = arc_j(grid[0]), arc_j(grid[-1])
    assert grid[0] == float(mp.pi / 2) and grid[-1] == 2.0943951023931957
    assert abs(at_i.value - 1728) <= at_i.err and abs(at_rho.value) <= at_rho.err


def test_arc_j_float_matches_arc_j():
    # j runs from 1728 at i to 0 at rho; near rho the double keeps its
    # absolute accuracy, so the tolerance is relative to max(|j|, 1)
    for t in arc_grid(2e-2):
        ref = float(arc_j(t).value)
        assert abs(arc_j_float(t) - ref) <= 1e-9 * max(abs(ref), 1)


@pytest.mark.parametrize("step", [0, -0.01, float("nan"), float("inf")])
def test_arc_grid_rejects_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(ValueError, match="grid step"):
        arc_grid(step)


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


@settings(max_examples=60, deadline=None)
@given(st.floats(math.pi / 2, 2 * math.pi / 3), st.sampled_from((65, 140, 268, 1036)))
@example(theta=CORNERS[0], prec=140)
@example(theta=CORNERS[1], prec=140)
@example(theta=2.0943951023931957, prec=140)
def test_arc_point_holds_q_of_its_angle(theta, prec):
    # each int of the arc point lies within its pad of the exact value at
    # the angle t it was given, 400 bits beyond its precision: q and |q|
    # within pad, cos t + i sin t within upad, 1/q within ipad; y is sin t
    # rounded
    with workprec(prec):
        t = _theta_mpf(theta)
        pt = _Point(t)
        ix, iy, ipad = pt.inverse()
    with workprec(prec + 400):
        unit = mp.ldexp(1, -pt.P)
        q = mp.exp(2j * mp.pi * mp.expj(t))
        for held, want, pad in ((mpc(pt.qx, pt.qy), q, pt.pad),
                                (mpc(ix, iy), 1 / q, ipad), (pt.r, abs(q), pt.pad),
                                (mpc(pt.c, pt.s), mp.expj(t), pt.upad)):
            assert abs(held * unit - want) <= pad * unit
        assert abs(mp.sin(t) - pt.y) <= mp.ldexp(1, -prec)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.floats(0, 1), st.floats(-6, -0.3),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)), st.sampled_from((65, 140, 268)))
def test_point_holds_q_on_its_segment_or_interval(on_arc, where, log_width, at, prec):
    # a point of half-width h stands for the arc interval or the segment of
    # the 0.65 line about it: at every theta or x inside, 400 bits beyond
    # its precision, q lies within pad of the q held, |q| under r + pad,
    # e^(i theta) within upad of the c + i s held, and 1/q within ipad
    # wherever the disk of q excludes 0
    with workprec(prec):
        a, b = _corner_angles(prec) if on_arc else (mpf(-0.5), mpf(0.5))
        y = mpf("0.65")
        width = min(b - a, mpf(10) ** log_width)
        lo = a + mpf(where) * (b - a - width)
        hi = lo + width
        inside = min(hi, max(lo, lo + mpf(at) * width))
        mid, h = _span(lo, hi)
        pt = _Point(mid, h=h) if on_arc else _Point(mid, y, h)
        try:
            inverse = pt.inverse()
        except ZeroDivisionError:
            inverse = None
    with workprec(prec + 400):
        unit = mp.ldexp(1, -pt.P)
        tau = mp.exp(1j * inside) if on_arc else mpc(inside, y)
        q = mp.exp(2j * mp.pi * tau)
        assert abs(mpc(pt.qx, pt.qy) * unit - q) <= pt.pad * unit
        assert abs(q) <= (pt.r + pt.pad) * unit
        if on_arc:
            assert abs(mpc(pt.c, pt.s) * unit - tau) <= pt.upad * unit
        if inverse:
            ix, iy, ipad = inverse
            assert abs(mpc(ix, iy) * unit - 1 / q) <= ipad * unit


J_PRECS = tuple(scale * DEFAULT_PREC for scale in (1, 2, 4, 8))


@settings(max_examples=40, deadline=None)
@given(st.floats(math.pi / 2, 2 * math.pi / 3), st.sampled_from(J_PRECS))
@example(theta=CORNERS[0], prec=DEFAULT_PREC)
@example(theta=CORNERS[1], prec=DEFAULT_PREC)
@example(theta=2.0943951023931957, prec=DEFAULT_PREC)
@example(theta=CORNERS[1], prec=8 * DEFAULT_PREC)
def test_arc_j_holds_the_series_at_400_more_bits(theta, prec):
    # the integer arc j holds the oracle's ball series j at the same angle,
    # tail included, taken 400 bits beyond it; its radius is within 2^4 of
    # the oracle's own at its precision, and its tail is at least
    # j_tail_bound at its own truncation and height
    got = arc_j(theta, prec=prec)
    with workprec(prec + _GUARD):
        t = _theta_mpf(theta)
        pt = _Point(t)
        n = max(auto_trunc(pt.y, prec), int(1 / float(pt.y) ** 2) + 8)
        assert _j_tail_units(n, pt) * mp.ldexp(1, -pt.P) >= j_tail_bound(n, pt.y)
        tau = mp.exp(1j * t)
        same = separate_q_series(jfunction(n), tau, JCoeffTail(), prec=prec)
    with workprec(prec + 400):
        ref = separate_q_series(jfunction(n), tau, JCoeffTail(), prec=prec + 400)
    (ref, ref_err), same_err = mid_rad(ref), mid_rad(same)[1]
    assert abs(got.value - ref) <= got.err + ref_err
    assert same_err / 16 <= got.err <= 16 * same_err


@settings(max_examples=30, deadline=None)
@given(st.floats(math.pi / 2, 2 * math.pi / 3), st.sampled_from((140, 268, 524)))
@example(theta=CORNERS[0], prec=140)
@example(theta=CORNERS[1], prec=140)
@example(theta=2.0943951023931957, prec=140)
def test_arc_eisenstein_holds_the_series_at_400_more_bits(theta, prec):
    # e4 and e6 as _arc_form_at takes them from the integer arc point hold
    # the oracle's phase times its ball series 400 bits beyond them, with a
    # radius within 2^4 of the oracle's at their precision
    with workprec(prec + _GUARD):
        t = _theta_mpf(theta)
        pt = _Point(t)
        n = auto_trunc(pt.y, prec)
        got = [_units_ball(*_arc_eisenstein(pt, k, n), pt.P) for k in (4, 6)]

    def ball_route(k, bits):
        with iv_prec(bits + _GUARD):
            val = separate_q_series(eisenstein(k, n), mp.exp(1j * t), EisensteinTail(k), bits)
            return real_part(oracle_phase(t, k) * val)
    for k, g in zip((4, 6), got):
        same, ref = ball_route(k, prec), ball_route(k, prec + 400)
        assert abs(g.value - ref.value) <= g.err + ref.err
        assert same.err / 16 <= g.err <= 16 * same.err
        with workprec(prec + _GUARD):
            short = _units_ball(*_arc_eisenstein(pt, k, 8), pt.P)   # mostly tail radius
        assert abs(short.value - ref.value) <= short.err + ref.err


@settings(max_examples=40, deadline=None)
@given(st.floats(math.pi / 2, 2 * math.pi / 3), st.sampled_from((1, 2, 3)),
       st.sampled_from((65, 140, 268)), st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)))
@example(theta=CORNERS[0], n=3, prec=140, width=0.0)
@example(theta=CORNERS[1], n=2, prec=140, width=0.0)
def test_phase_units_hold_the_phase_at_400_more_bits(theta, n, prec, width):
    # the integer product (c + i s)^n that e2, e4 and e6 turn by, read in
    # units of 2^-P against e^(i n t) at 400 more bits: within its units at
    # the point's angle, and for a point of half-width h at both ends too
    with workprec(prec + _GUARD):
        lo, hi = _corner_angles(mp.prec)
        a = min(max(_theta_mpf(theta), lo), hi - mpf(width))
        mid, h = _span(a, a + mpf(width))
        pt = _Point(mid, h=h)
        x, y, units = _phase_units(pt, n)
    with workprec(prec + 400):
        for t in {mid, mid - h, mid + h}:
            assert abs(mpc(x, y) - mp.expj(n * t) * 2 ** pt.P) <= units


@settings(max_examples=30, deadline=None)
@given(st.floats(math.pi / 2, 2 * math.pi / 3), st.sampled_from((140, 268, 524)),
       st.sampled_from(((192, 1), (340, 2), (1200, 3), (2000, 20))))
@example(theta=CORNERS[0], prec=140, km=(340, 2))
@example(theta=CORNERS[1], prec=140, km=(340, 2))
def test_arc_point_amplitude_and_turn_hold_their_values(theta, prec, km):
    # e^(2 pi m sin t) and 2 cos(k t / 2 + 2 pi m cos t) as the arc point
    # hands them to the oscillation check, two ends in units of 2^-P each:
    # the unit budgets alone hold the values at 400 more bits
    k, m = km
    with workprec(prec):
        t = _theta_mpf(theta)
        pt = _Point(t)
        amp, turn = pt.amplitude(m), pt.turn(k, m)
    with workprec(prec + 400):
        amp_want = mp.exp(2 * mp.pi * m * mp.sin(t))
        turn_want = 2 * mp.cos(k * t / 2 + 2 * mp.pi * m * mp.cos(t))
        for (lo, hi), want in ((amp, amp_want), (turn, turn_want)):
            assert lo <= want * 2 ** pt.P <= hi


def test_arc_j_takes_no_ball_quotient_and_no_exp(monkeypatch):
    # one integer arc point: 1/q is an integer quotient and the tail an
    # integer power, so a warm arc_j divides no ball and takes no mp.exp
    angles = (CORNERS[0], 1.75, 1.9, 2.0943951023931957)
    for theta in angles:
        for prec in J_PRECS:
            arc_j(theta, prec=prec)                 # fills the per-(M, P) tail cache
    calls = []

    def counted(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return call
    monkeypatch.setattr(CertValue, "__truediv__", counted("div", CertValue.__truediv__))
    monkeypatch.setattr(mp, "exp", counted("exp", mp.exp))
    for theta in angles:
        for prec in J_PRECS:
            arc_j(theta, prec=prec)
    assert calls == []


def test_warm_series_and_arc_functions_take_no_ball_operation(monkeypatch):
    # every series evaluation stays in integer units from the point to its one
    # ball: a warm eval_series or arc_functions runs no CertValue operation,
    # and every tail it adds is an int
    def run():
        for prec in (96, 128):
            eval_series(eisenstein(4, 48), mpc("0.2", "0.65"), EisensteinTail(4), prec=prec)
            eval_series(eisenstein(6, 48), (mpc(0, "0.75"), mpc("0.5", "0.75")),
                        EisensteinTail(6), prec=prec)
            eval_series(_pentagonal_euler_product(40), mpc(0, 1), EtaProductTail(), prec=prec)
            for p in (1.75, (1.6, 1.7), (CORNERS[0], CORNERS[1])):
                arc_functions(p, prec=prec)
    run()
    calls, tails = [], []

    def counted(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return call

    def typed(inner):
        def call(*args, **kwargs):
            out = inner(*args, **kwargs)
            tails.append(type(out))
            return out
        return call
    for name in ("pow_int", "__mul__", "__rmul__", "__sub__", "__rsub__", "__truediv__"):
        monkeypatch.setattr(CertValue, name, counted(name, getattr(CertValue, name)))
    for cls in (EisensteinTail, EtaProductTail):
        monkeypatch.setattr(cls, "units", typed(cls.units))
    run()
    assert calls == []
    assert tails and set(tails) == {int}


# ---------------------------------------------------------------------------
# symmetries

def test_conjugation_symmetry():
    e4 = eisenstein(4, 48)
    with workprec(160):
        for tau in TAU_GRID:
            a, a_err = mid_rad(iv_pair(eval_series(e4, tau, EisensteinTail(4))))
            b, b_err = mid_rad(iv_pair(eval_series(e4, -mp.conj(tau), EisensteinTail(4))))
            assert abs(mp.conj(a) - b) <= a_err + b_err + mpf(10) ** -25


def test_j_modular_invariance():
    j = jfunction(48)
    with workprec(160):
        for tau in TAU_GRID:
            inv = -1 / tau
            if mp.im(inv) < 0.4:
                continue
            a, a_err = mid_rad(iv_pair(eval_series(j, tau, JCoeffTail())))
            b, b_err = mid_rad(iv_pair(eval_series(j, inv, JCoeffTail())))
            assert abs(a - b) <= a_err + b_err + mpf(10) ** -20


def test_e2_quasimodularity():
    e2 = eisenstein(2, 96)
    with workprec(160):
        for tau in TAU_GRID:
            inv = -1 / tau
            if mp.im(inv) < 0.4:
                continue
            a, a_err = mid_rad(iv_pair(eval_series(e2, inv, EisensteinTail(2))))
            b, b_err = mid_rad(iv_pair(eval_series(e2, tau, EisensteinTail(2))))
            resid = a - tau ** 2 * b - 6 * tau / (1j * mp.pi)
            assert abs(resid) <= a_err + abs(tau) ** 2 * b_err + mpf(10) ** -20


# ---------------------------------------------------------------------------
# quadrature constants and export

def test_lemniscate_constants():
    lc = lemniscate_constants()
    assert abs(lc.varpi.value - mpf("2.622057")) < 1e-5
    assert abs(lc.varpi_prime.value - mpf("2.42865")) < 1e-4
    assert lc.varpi.err < 1e-40 and lc.varpi_prime.err < 1e-40
    twelfth = (lc.varpi.value / (mp.sqrt(2) * mp.pi)) ** 12
    assert abs(twelfth - mpf("0.00178537")) < 1e-7


def test_lemniscate_constants_enclose_independent_closed_forms():
    # at 2000 bits, by formulas other than the agm and Gamma(1/6):
    # varpi = Gamma(1/4)^2 / (2 sqrt(2 pi)), and Gamma(1/6) = 2^(-1/3)
    # sqrt(3/pi) Gamma(1/3)^2 with Gamma(2/3) = 2 pi / (sqrt 3 Gamma(1/3))
    # give varpi' = Gamma(1/3)^3 / (2^(4/3) pi)
    lc = lemniscate_constants()
    with workprec(2000):
        varpi = mp.gamma(mpf(1) / 4) ** 2 / (2 * mp.sqrt(2 * mp.pi))
        varpi_prime = mp.gamma(mpf(1) / 3) ** 3 / (mp.cbrt(2) * 2 * mp.pi)
        assert abs(varpi - lc.varpi.value) <= lc.varpi.err
        assert abs(varpi_prime - lc.varpi_prime.value) <= lc.varpi_prime.err
    assert lc.varpi.err < 1e-55 and lc.varpi_prime.err < 1e-55


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
