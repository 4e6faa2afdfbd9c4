"""Certified numerical evaluation of q-expansions in the upper half plane.

There are two number types and no third.  A real value is a CertValue,
an interval in the inf-sup form of Moore, Kearfott and Cloud
(Introduction to Interval Analysis, SIAM 2009): two libmp ends at the
ambient mpmath precision.  A complex value is a disk a + i b +- units in
ints, the midpoint-radius form of van der Hoeven (Ball arithmetic,
2009), and leaves evalnum only as real intervals read off the disk: its
two parts (eval_series), its modulus (eval_abs, eval_delta_abs) or the
bounds of modular_bounds.  The discipline is the same in every operation:

  * every end is rounded outward, the lower one down and the upper one
    up, so no interval leaves out a point of the exact result and none
    needs an allowance for rounding: +, -, *, /, pow_int and abs run
    mpmath's interval kernels (mpi_* of mpmath.libmp.libmpi), and the
    constructor and an interval formed from ints (_units_ball,
    _ends_ball) round their ends outward once;
  * value and err are views for callers that print or read a ball: the
    exact midpoint and the half-width, rounded up;
  * the elementary functions of a real interval (exp, log, sqrt, sin,
    cos, tan, acos), CertValue.pi() and lemniscate_constants run
    libmpi's functions on the ends: an enclosure of the range, Moore's
    inclusion property, with no bound on |f'|; _mpi_ball widens it by 4
    ulp, since libmpi's floor and ceiling of mpmath's exp, log, atan,
    gamma and pi, accurate to a few ulp, can miss.  That accuracy is
    assumed too where _Point turns an angle or tau into ints, within the
    point's pads, and in the j tail's relative slack.

certify builds its constants from exact inputs through these
operations; the hand-derived bounds still left there are listed in its
docstring.

Every polynomial and truncated q-series goes through one kernel,
_horner: Horner's rule on Gaussian integers at the fixed scale 2^-P,
P = working precision + 24, with exact int or Fraction coefficients,
and a real loop of its own for a real point.  Each step floors both
parts of the product and of the coefficient, so it loses less than 3
units of 2^-P, and the whole sum less than 3 sum_(i<n) R^i units for
R >= |w| (3n units when R < 1; Higham, Accuracy and Stability of
Numerical Algorithms, 5.1).  Moving the point by delta costs at most
delta sum i |c_i| R^(i-1), bounded by integer Horner rounding up.  The
half-width in units is then that a-priori bound plus the tail bound of
the truncated series, and each end is rounded outward once to an mpf.

Every series is read at one evaluation point, _Point, which stays in
the kernel's units from tau or the angle to the ball: the fixed-point,
a-priori-error half of ball arithmetic (van der Hoeven).  From tau = x +
i y, or an arc angle theta (x = cos theta, y = sin theta from one
cos_sin), r = e^(-2 pi y) from one real exp and e^(2 pi i x) from one
more cos_sin, at 8 guard bits, become ints: q, r, 1/q (two integer
quotients) and on the arc cos theta and sin theta, with one pad in
units for q and one for (cos theta, sin theta).  A half-width h makes
the point a horizontal segment (eval_series) or an arc interval
(arc_functions), a q-disk: q's drift 2 pi r_max h joins its pad, and h
the pad of (cos theta, sin theta); a point is the interval of width 0,
on the same code path.  Series take q^lead from the point's q or 1/q,
tails the largest |q| of the disk, the arc phases e^(i k theta/2) are
integer products of (cos theta, sin theta), and certify's oscillation
check reads the ends of e^(2 pi m sin theta) = r^-m and 2 cos h off the
point; each result is one interval formed at the end.  eval_abs,
eval_delta_abs and modular_bounds (|E_4|, |E_6|, |Delta| and j for
certify's table check) read moduli off a series' disk itself.

A basis form on the arc (arc_form) needs no complex product: it is real
arithmetic on the arc functions e4 and e6 alone (Duke-Jenkins, PAMQ 4,
2008), as is arc_functions' delta_arc, both from the ends of _arc_ends,
so the eta product serves only |Delta| evaluated alone (eval_delta_abs).
That arithmetic runs on outward integer ends, CertValue's inf-sup form
in ints: a real quantity is a pair of ints (lo, hi) at _horner's scale,
every product exact and every cut to a coarser scale flooring lo and
ceiling hi, and no CertValue operation runs before the one interval
formed from the ends.

Tail bounds by coefficient family at |q| <= r, in units rounded upward:

  * Eisenstein weight k:   sigma_{k-1}(n) <= n^k, and n^k r^n is
    geometrically dominated once (1 + 1/(N+1))^k r < 1;
  * eta product:           coefficients in {-1, 0, 1}, so the tail beyond
    q^N is at most 2 r^(N+1) / (1 - r); both are one integer quotient;
  * j-function:            c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)),
    summed in closed form (j_tail_bound, also certify's j error bound),
    on the arc a cached lead times an integer power (_j_tail_units).

A finite q-polynomial, such as a truncated j approximation taken as it
stands, is evaluated with no tail.

Evaluation is refused below Im(tau) = 0.4; every bound above is easy
and comfortable in that region and nothing in the pipeline needs to go
lower.
"""

from __future__ import annotations

import cmath
import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from mpmath import mp, mpf, workprec
from mpmath.libmp import (fnone, fone, from_int, from_man_exp, from_rational, fzero, mpf_abs,
                          mpf_add, mpf_cos_sin, mpf_exp, mpf_ge, mpf_le, mpf_mul, mpf_neg, mpf_pos,
                          mpf_shift, mpf_sign, mpf_sub)
from mpmath.libmp.libmpi import (mpi_abs, mpi_add, mpi_atan, mpi_cos, mpi_div, mpi_exp, mpi_gamma,
                                 mpi_log, mpi_mul, mpi_neg, mpi_pi, mpi_pow_int, mpi_sin, mpi_sqrt,
                                 mpi_sub, mpi_tan)

from . import qseries
from .qseries import QSeries

DEFAULT_PREC = 128          # working mantissa bits
_GUARD = 12                 # extra bits inside evaluation contexts
MIN_HEIGHT = 0.4


class TailUnboundedError(ArithmeticError):
    """No finite tail estimate is available for the requested evaluation."""


class NotRealError(ArithmeticError):
    """A quantity that must be real has an imaginary interval that misses 0."""


# relative slack on the j tail's closed form, covering the rounding of its mpf
# factors (j_tail_bound, _j_tail_lead); the other tails are exact quotients
_TAIL_SLACK = 1 + mpf(2) ** -30


def _up(x, prec: int) -> tuple:
    """A radius x (mpf, int, float or Fraction) as a libmp value rounded upward."""
    if isinstance(x, mpf):
        return mpf_pos(x._mpf_, prec, "c")
    x = Fraction(x)
    return from_rational(x.numerator, x.denominator, prec, "c")


def _widen(x: tuple, e: tuple) -> tuple:
    """The interval x = (lo, hi), each end moved out by the libmp radius e
    and rounded outward at the ambient precision."""
    p = mp.prec
    return mpf_sub(x[0], e, p, "f"), mpf_add(x[1], e, p, "c")


def _interval(re: tuple) -> "CertValue":
    """The CertValue with the libmp ends re = (lo, hi), taken as they are."""
    b = object.__new__(CertValue)
    b.re = re
    return b


def _mpi_ball(x: tuple) -> "CertValue":
    """The interval x = (lo, hi) of a libmpi function, each end moved out by
    4 ulp of the larger end, for mpmath's few-ulp accuracy, and rounded
    outward.  ValueError for an end that is not finite, such as a pole's."""
    lo, hi = x
    if any(not t[1] and t != fzero for t in x):         # an infinity or nan
        raise ValueError(f"an interval end is not finite: {x}")
    p = mp.prec
    pad = mpf_shift(max(mpf_abs(lo), mpf_abs(hi), key=mp.make_mpf), 2 - p)
    return _interval((mpf_sub(lo, pad, p, "f"), mpf_add(hi, pad, p, "c")))


def _outward(f):
    """The CertValue method of f, a libmpi function: f at the ambient
    precision on the ends of the interval, widened by _mpi_ball."""
    def method(self) -> "CertValue":
        return _mpi_ball(f(self.re, mp.prec))
    return method


def _arithmetic(op):
    """The CertValue operator of the libmpi operation op at the ambient precision."""
    def method(self, other) -> "CertValue":
        return _interval(op(self.re, _coerce(other).re, mp.prec))
    return method


def _mpi_acos(x: tuple, p: int) -> tuple:
    """acos x = 2 atan sqrt((1 - x) / (1 + x)) for -1 < x < 1, outward: the
    quotient falls with x, so the interval quotient of the ends is its range."""
    if mpf_le(x[0], fnone) or mpf_ge(x[1], fone):
        raise ValueError(f"acos of an interval that reaches |x| = 1: {x}")
    one = (fone, fone)
    y = mpi_atan(mpi_sqrt(mpi_div(mpi_sub(one, x), mpi_add(one, x), p), p), p)
    return tuple(mpf_shift(t, 1) for t in y)


def _holds_zero(x: tuple) -> bool:
    """Whether the interval x = (lo, hi) holds 0."""
    return mpf_sign(x[0]) <= 0 <= mpf_sign(x[1])


class CertValue:
    """A real interval that holds every point it stands for: re = (lo, hi),
    two libmp ends.  A complex value is never a CertValue: it stays the
    kernel's integer disk a + i b +- units (_disk), read off as real
    intervals (eval_series, eval_abs, eval_delta_abs, modular_bounds).

    Every operation rounds its ends outward at the ambient precision
    through mpmath's interval kernels, so no end is inside the exact
    result.  The elementary functions and pi are libmpi's intervals
    widened by 4 ulp (_mpi_ball).  value and err are read-only views:
    the exact midpoint and the half-width, rounded up.  Immutable by
    convention.
    """

    __slots__ = ("re",)

    def __init__(self, value, err=0):
        """The interval value -+ err, ends rounded outward: value an mpf or an
        exact int, float, str or Fraction, err rounded upward.  TypeError
        for any other value, such as an mpc."""
        p = mp.prec
        e = _up(err, p)
        if e[0] and e[1]:
            raise ValueError("negative error radius")
        if isinstance(value, mpf):
            ends = (value._mpf_, value._mpf_)
        else:
            x = Fraction(value)
            ends = tuple(from_rational(x.numerator, x.denominator, p, r) for r in "fc")
        self.re = _widen(ends, e)

    @classmethod
    def pi(cls) -> "CertValue":
        """pi at the ambient precision."""
        return _mpi_ball(mpi_pi(mp.prec))

    def __repr__(self):
        return f"CertValue({self.value}, err={self.err})"

    @property
    def value(self) -> mpf:
        """The exact midpoint."""
        lo, hi = self.re
        return mp.make_mpf(mpf_shift(mpf_add(lo, hi), -1))

    @property
    def err(self) -> mpf:
        """The half-width, rounded upward."""
        lo, hi = self.re
        return mp.make_mpf(mpf_shift(mpf_sub(hi, lo, mp.prec, "c"), -1))

    # -- arithmetic --------------------------------------------------------

    __add__ = __radd__ = _arithmetic(mpi_add)
    __sub__ = _arithmetic(mpi_sub)
    __mul__ = __rmul__ = _arithmetic(mpi_mul)

    def __neg__(self):
        return _interval(mpi_neg(self.re))

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        other = _coerce(other)
        if _holds_zero(other.re):
            raise ZeroDivisionError("divisor interval contains zero")
        return _interval(mpi_div(self.re, other.re, mp.prec))

    def pow_int(self, n: int) -> "CertValue":
        """The interval power, n >= 0."""
        if n < 0:
            raise ValueError("negative powers unsupported")
        return _interval(mpi_pow_int(self.re, n, mp.prec))

    # -- elementary functions ----------------------------------------------
    #
    # Each is _outward: a libmpi function on the interval's ends.  log
    # needs lo > 0, sqrt lo >= 0, tan an interval with no pole and acos
    # -1 < lo <= hi < 1, or ValueError.

    exp, log, sqrt = _outward(mpi_exp), _outward(mpi_log), _outward(mpi_sqrt)
    sin, cos, tan, acos = (_outward(f) for f in (mpi_sin, mpi_cos, mpi_tan, _mpi_acos))

    # -- views -------------------------------------------------------------

    def abs(self) -> "CertValue":
        """The interval of |x| over the interval."""
        return _interval(mpi_abs(self.re, mp.prec))

    def abs_upper(self) -> mpf:
        """No point of the interval lies above it in modulus."""
        return mp.make_mpf(self.abs().re[1])

    def abs_lower(self) -> mpf:
        """No point of the interval lies below it in modulus; 0 if it reaches 0."""
        return mp.make_mpf(self.abs().re[0])

    def widened(self, extra) -> "CertValue":
        """Each end moved out by extra (mpf, int, float or Fraction), rounded outward."""
        return _interval(_widen(self.re, _up(extra, mp.prec)))

    def certified_sign(self) -> int:
        """-1, 0 or +1; 0 means the interval reaches zero (no certificate)."""
        lo, hi = self.re
        return 1 if mpf_sign(lo) > 0 else -1 if mpf_sign(hi) < 0 else 0


def _coerce(x) -> CertValue:
    return x if isinstance(x, CertValue) else CertValue(x)


# ---------------------------------------------------------------------------
# exact conversions and the fixed-point Horner kernel


def _man_exp(t: tuple) -> tuple:
    """(man, exp) with the libmp value t = man 2^exp exactly, man signed."""
    sign, man, exp, bc = t
    if not man and bc:
        raise ValueError(f"non-finite value {mp.make_mpf(t)}")
    return (-int(man) if sign else int(man)), exp


def _exact(x) -> Fraction:
    """The binary value of an mpf or a libmp value as a signed Fraction, without rounding."""
    man, exp = _man_exp(getattr(x, "_mpf_", x))
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _fixed(t: tuple, p: int) -> int:
    """floor(t 2^p) of a libmp value t."""
    man, exp = _man_exp(t)
    return man << (exp + p) if exp + p >= 0 else man >> -(exp + p)


def _fixed_ends(lo: int, hi: int, p: int) -> tuple:
    """The libmp ends of [lo, hi] 2^-p at the ambient precision, rounded outward."""
    prec = mp.prec
    return from_man_exp(lo, -p, prec, "f"), from_man_exp(hi, -p, prec, "c")


def _units_ball(n: int, units: int, p: int) -> CertValue:
    """The interval n 2^-p of half-width units 2^-p, its ends rounded outward."""
    return _interval(_fixed_ends(n - units, n + units, p))


def _horner(coeffs, x: int, y: int, delta: int, p: int) -> tuple:
    """(a, b, units): sum_i coeffs[i] w^i at Z = (x + i y) 2^-p as a + i b,
    and a bound in units of 2^-p on its distance from the sum at every w
    with |w - Z| <= delta units.

    Horner's rule on Python ints at the scale 2^-p, with exact int or
    Fraction coefficients.  Each step floors both parts of the product
    and the coefficient, less than 3 units, so every accumulator A_i is
    within E = 3 sum_(i<n) R^i units of its exact value at Z, R >= |Z|.
    The Horner recursion for the difference gives |p(w) - p(Z)| <= delta
    sum_(i>=1) (|A_i| + E) R^(i-1) for R >= |Z| + delta, summed alongside
    in integers rounding up; |A| <= max + min/2 of its two parts.  A real
    Z (y = 0) runs a loop of its own, with the same roundings.
    """
    one = 1 << p
    big_r = isqrt(x * x + y * y) + 1 + delta
    a = b = slope = 0
    if y:
        for c in reversed(coeffs):
            hi, lo = abs(a), abs(b)
            if hi < lo:
                hi, lo = lo, hi
            slope = -(-slope * big_r >> p) + hi + (lo >> 1) + 1
            a, b = (a * x - b * y) >> p, (a * y + b * x) >> p
            if c:
                a += c << p if c.__class__ is int else (c.numerator << p) // c.denominator
    else:
        for c in reversed(coeffs):
            slope = -(-slope * big_r >> p) + abs(a) + 1
            a = (a * x) >> p
            if c:
                a += c << p if c.__class__ is int else (c.numerator << p) // c.denominator
    # rsum >= sum_(i<n) R^i in units of 2^-p; the rounding error is 3 rsum
    n = len(coeffs)
    if big_r <= one:
        rsum = n
    else:
        rsum = 0
        for _ in range(n):
            rsum = -(-rsum * big_r >> p) + one
        rsum = -(-rsum >> p)
    rounding = 3 * rsum
    return a, b, rounding - (-delta * (slope + rounding * rsum) >> p)


# ---------------------------------------------------------------------------
# outward integer ends: a real interval as (lo, hi), two ints at one scale


def _ends_ball(lo: int, hi: int, p: int) -> CertValue:
    """The interval [lo, hi] 2^-p, its ends rounded outward."""
    return _interval(_fixed_ends(lo, hi, p))


def _cut(x: tuple, s: int) -> tuple:
    """x at a scale 2^s times coarser, lo floored and hi ceiled; exact for s <= 0."""
    return (x[0] << -s, x[1] << -s) if s <= 0 else (x[0] >> s, -(-x[1] >> s))


def _ends_mul(x: tuple, y: tuple) -> tuple:
    """The exact product of two intervals: the least and greatest end product."""
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(products), max(products)


def _ends_pow(x: tuple, n: int) -> tuple:
    """The exact x^n, n >= 0: [1, 1] for n = 0, ends swapped for an even
    power of a negative interval and [0, max] for one across 0."""
    lo, hi = x
    if not n or n % 2 or lo >= 0:
        return lo ** n, hi ** n
    return (hi ** n, lo ** n) if hi <= 0 else (0, max(lo ** n, hi ** n))


def _ends_pow_float(x: tuple, n: int, e: int, bits: int) -> tuple:
    """(lo, hi, e'): x^n = [lo, hi] 2^e' for x = [lo, hi] 2^e, 0 < lo, by binary
    powering, each product (of positive ends, lo by lo and hi by hi) cut
    outward to bits significant bits of hi."""
    acc, acc_e = (1, 1), 0
    while True:
        if n & 1:
            acc, acc_e = _trim((acc[0] * x[0], acc[1] * x[1]), acc_e + e, bits)
        n >>= 1
        if not n:
            return (*acc, acc_e)
        x, e = _trim((x[0] * x[0], x[1] * x[1]), 2 * e, bits)


def _trim(x: tuple, e: int, bits: int) -> tuple:
    """(x cut outward to bits significant bits of hi > 0, its exponent) for x 2^e.

    Ceiling hi can carry it to 2^bits, one bit too many; it is cut once more then."""
    s = max(x[1].bit_length() - bits, 0)
    x = _cut(x, s)
    if x[1].bit_length() > bits:
        x, s = _cut(x, 1), s + 1
    return x, e + s


# ---------------------------------------------------------------------------
# constants cached per precision, each formed exactly as where it is read


@lru_cache(maxsize=None)
def _two_pi(prec: int) -> mpf:
    """2 pi at prec bits."""
    with workprec(prec):
        return 2 * mp.pi


@lru_cache(maxsize=None)
def _three_over_pi_units(P: int) -> int:
    """3/pi in units of 2^-P, floored from P + 32 bits: within 2 units."""
    with workprec(P + 32):
        return _fixed((3 / mp.pi)._mpf_, P)


@lru_cache(maxsize=None)
def _corner_angles(prec: int) -> tuple:
    """(pi/2, 2pi/3), the ends of the arc, at prec bits."""
    with workprec(prec):
        return mp.pi / 2, 2 * mp.pi / 3


@lru_cache(maxsize=None)
def _corner_window(prec: int) -> tuple:
    """(pi/2 - 2^-50, 2pi/3 + 2^-50) at prec bits: the angles that stand for a corner."""
    with workprec(prec):
        return mp.pi / 2 - mpf(2) ** -50, 2 * mp.pi / 3 + mpf(2) ** -50


# ---------------------------------------------------------------------------
# tail bounds: each bounds the dropped coefficients of a series cut at q^N
# on the disk |q| <= rho = (r + pad) 2^-P of a point, in its units rounded up


def _geometric_units(ints: tuple, trunc: int, pt: _Point) -> int:
    """lead rho^n / (1 - growth rho), n = trunc + 1, for ints = (a, b, g, d),
    lead = a / (b d) and growth = g / d: with R = r + pad, the one quotient
    a R^n 2^(2P) / (b 2^(Pn) (d 2^P - g R)), ceiled, R^n taken as the upper
    end of _ends_pow_float at P + 32 bits, so never below the exact
    quotient; TailUnboundedError once growth rho >= 1."""
    a, b, g, d = ints
    P, R, n = pt.P, pt.r + pt.pad, trunc + 1
    room = (d << P) - g * R
    if room <= 0:
        raise TailUnboundedError(f"tail not dominated at trunc={trunc}, |q| <= {R} 2^-{P}")
    _, top, e = _ends_pow_float((R, R), n, 0, P + 32)
    s = e + (2 - n) * P
    return -(-(a * top << max(s, 0)) // (b * room << max(-s, 0)))


@lru_cache(maxsize=256)
def _eisenstein_tail_ints(k: int, trunc: int) -> tuple:
    """E_k's ints for _geometric_units: lead |2k/B_k| n^k, growth (1 + 1/n)^k."""
    gamma = abs(Fraction(2 * k) / qseries.bernoulli(k))
    n = trunc + 1
    return gamma.numerator * n ** (2 * k), gamma.denominator, (n + 1) ** k, n ** k


@dataclass(frozen=True)
class EisensteinTail:
    k: int

    def units(self, trunc: int, pt: _Point) -> int:
        return _geometric_units(_eisenstein_tail_ints(self.k, trunc), trunc, pt)


@dataclass(frozen=True)
class EtaProductTail:
    def units(self, trunc: int, pt: _Point) -> int:
        return _geometric_units((2, 1, 1, 1), trunc, pt)


def j_tail_bound(M: int, a) -> mpf:
    """Upper bound for sum_{n > M} c(n) e^(-2 pi a n), needing M > 1/a^2.

    Comes from c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)) and comparing
    the sum with a geometric series anchored at n = M + 1; the same
    closed form serves as the j-approximation error estimate.
    """
    a = mpf(a)
    if M <= 1 / a ** 2:
        raise TailUnboundedError(f"tail bound needs M > 1/a^2 = {1 / a ** 2}")
    root = mp.sqrt(M)
    expo = 2 * mp.pi * (1 / a - a * (root - 1 / a) ** 2)
    den = 2 * mp.sqrt(2) * mp.pi * mp.sqrt(mp.sqrt(mpf(M + 1) ** 3))
    lead = mp.exp(expo) / den
    geo = root / (a * root - 1)
    return lead * geo * _TAIL_SLACK


@lru_cache(maxsize=256)
def _j_tail_lead(M: int, P: int) -> tuple:
    """(K, L) as ints in units of 2^-P, rounded upward, for the arc point's j tail:
    K >= (1 + 2^-30) e^(4 pi sqrt M) / (2 sqrt 2 pi ((M + 1)^3)^(1/4)) and
    L >= 1 / sqrt M.

    Formed at P + 32 bits: the factor 1 + 2^-30 covers K's rounding, and L
    takes one more unit for its own.
    """
    with workprec(P + 32):
        root = mp.sqrt(M)
        den = 2 * mp.sqrt(2) * mp.pi * mp.sqrt(mp.sqrt(mpf(M + 1) ** 3))
        lead = mp.exp(4 * mp.pi * root) / den
        return -_fixed((-lead * _TAIL_SLACK)._mpf_, P), 1 - _fixed((-1 / root)._mpf_, P)


# ---------------------------------------------------------------------------
# evaluation


def _require_height(tau) -> mpf:
    y = mp.im(tau)
    if y < MIN_HEIGHT - mpf(2) ** -40:
        raise ValueError(f"evaluation height Im(tau) = {y} below floor {MIN_HEIGHT}")
    return y


def auto_trunc(y, prec: int) -> int:
    """Truncation order making the q^N tail comparable to the rounding floor."""
    n = int((prec + 24) * 0.6931 / (2 * 3.14159 * float(y))) + 8
    return max(24, n)


def form_arc_prec(ell: int, m: int) -> int:
    """Starting precision for a basis form on the arc, for mrl-check.

    A starting point, not a guarantee: the oscillation check evaluates
    again at 2, 4 and 8 times this precision wherever the enclosure does
    not decide.  The Horner sum for F(j) runs through intermediates
    comparable to prod (|j| + r_i) while the product with delta^ell
    collapses to order e^(-2 pi m sin theta); the gap grows linearly in
    ell (empirically under 2.8 bits per unit) plus the 2 pi m / log 2
    bits of amplitude.  Near j = 1728 at large ell the bound on F's slope
    can still exceed it.
    """
    return max(DEFAULT_PREC, 64 + 3 * ell + 10 * m)


def _span(lo, hi) -> tuple:
    """(midpoint, half-width rounded upward) of [lo, hi]; (lo, 0) when lo = hi."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    mid = (lo + hi) / 2
    return mid, max(mp.fsub(hi, mid, rounding="u"), mp.fsub(mid, lo, rounding="u"))


class _Point:
    """One evaluation point in ints: tau = x + i y, or e^(i theta) at an arc
    angle theta, taken as exact; with h > 0, the horizontal segment [x - h,
    x + h] at height y or the arc interval [theta - h, theta + h].

    Every int n held stands for n 2^-P, P = p + 24 (_horner's scale at the
    ambient precision p), a unit below.  On the arc x = c = cos theta and y
    = s = sin theta; off it x is first moved by an integer, exactly, to |x|
    <= 1/2.  One cos_sin of theta (on the arc), one exp (r = e^(-2 pi y))
    and one cos_sin of v = 2 pi x, all at w = p + 8 bits, give q = r (cos
    v, sin v) as qx, qy (r times each floored part, floored), r = |q|
    floored, and on the arc c and s floored.  q and r lie within pad units
    of their exact values at every point the point stands for, and c + i s
    within upad of e^(i theta) at every angle: at a point pad = r 2^(4-p) +
    4, 16 ulp of |q| at p bits, and upad = 2^22.  v stays a libmp value at
    w bits, and y is s rounded to p, or the given height, for truncation
    orders and tails.  inverse() gives 1/q.

    The budget at a point, each value at w bits within one ulp (2^(1-w)
    relative) and 2^-w = 2^16 units.  An error d in x or y moves q by 2 pi
    |q| d, and one in the argument of exp or cos_sin by |q| d.  On the arc
    (|c| <= 1/2, s <= 1), in |q| 2^-w:
      cos theta (|dc| <= 2^-w)                       2 pi
      sin theta (|ds| <= 2^(1-w))                    4 pi
      2 pi, in 2 pi s and in 2 pi c                  2 pi (s + |c|) 2 <= 6 pi
      the product 2 pi s                             2 pi s 2 <= 4 pi
      the product 2 pi c                             2 pi |c| 2 <= 2 pi
      exp and cos_sin of 2 pi c                      2 + 2
    so q is within 18 pi + 4 < 61 and r, from the terms in s, within 40.
    Off the arc x and y are exact, |x| <= 1/2 and y >= 0.4, and the terms
    come to 8 pi y + 4 pi + 4, under 256 for y <= 9 and below 2^-40 units
    beyond.  pad's 16 |q| 2^-p = 4096 |q| 2^-w holds these 16 times over,
    the few-ulp allowance of mpmath's elementary functions, and its 4 units
    the floors.  c and s are within 2^-w and 2^(1-w) plus a unit each, so
    c + i s is within 3 2^16 + 2 units, which upad holds 21 times over; v
    is within 19 2^-w of 2 pi c.

    A half-width h, rounded up to units, adds the drift 2 pi r_max h to pad
    and h to upad, as |dq/dx| = |dq/dtheta| = 2 pi |q| and |d e^(i
    theta)/dtheta| = 1, with r_max >= |q| throughout: r + pad on a segment,
    and on the arc, where |q| grows as sin falls, r + pad at theta + h
    rounded upward.  r + pad then bounds |q| everywhere.
    """

    __slots__ = ("theta", "w", "P", "pad", "upad", "qx", "qy", "r", "c", "s", "v", "y")

    def __init__(self, x: mpf, y: mpf | None = None, h=0):
        p = mp.prec
        w = self.w = p + 8
        P = self.P = p + 24
        if y is None:
            re, im = mpf_cos_sin(x._mpf_, w, "n")
            self.theta, self.c, self.s = x, _fixed(re, P), _fixed(im, P)
            self.y = mp.make_mpf(mpf_pos(im, p, "n"))
        else:
            self.theta = self.c = self.s = None
            re = mpf_sub(x._mpf_, from_int(_fixed(mpf_add(x._mpf_, (0, 1, -1, 1)), 0)))
            im, self.y = y._mpf_, y
        v = self.v = mpf_mul(_two_pi(w)._mpf_, re, w, "n")
        r = self.r = _r_at(im, w, P)
        self.qx, self.qy = (r * _fixed(t, P) >> P for t in mpf_cos_sin(v, w, "n"))
        pad = (r >> p - 4) + 4
        width = -_fixed(mpf_neg(h._mpf_), P) if h else 0
        self.upad = (1 << 22) + width
        if width:
            if y is None:
                r = _r_at(mpf_cos_sin(mpf_add(x._mpf_, h._mpf_, w, "u"), w, "n")[1], w, P)
            two_pi_up = 1 - _fixed(mpf_neg(_two_pi(P + 8)._mpf_), P)     # within 2^-(P+5)
            pad += -(-two_pi_up * (r + pad) * width >> 2 * P)
        self.pad = pad

    def inverse(self) -> tuple:
        """(ix, iy, ipad): 1/q = conj(q) / |q|^2 as two floored quotients, within
        ipad units of every 1/q the point stands for: with Q the q held and L
        = isqrt(|Q|^2), |1/Q - 1/q| <= pad / (L (L - pad)), and 2 for the floors."""
        qx, qy, pad, P = self.qx, self.qy, self.pad, self.P
        norm = qx * qx + qy * qy
        low = isqrt(norm)
        if low <= pad:
            raise ZeroDivisionError("the q-disk of the point reaches 0")
        return ((qx << 2 * P) // norm, (-qy << 2 * P) // norm,
                -(-(pad << 2 * P) // (low * (low - pad))) + 2)

    def amplitude(self, m: int) -> tuple:
        """The ends of e^(2 pi m s) = r^-m in units at an arc point: r^-m
        over r +- pad, two quotients rounded outward."""
        top = 1 << self.P * (m + 1)
        return top // (self.r + self.pad) ** m, -(-top // (self.r - self.pad) ** m)

    def turn(self, k: int, m: int) -> tuple:
        """The ends of 2 cos h, h = k theta / 2 + 2 pi m c, in units at an arc point.

        h' = k theta / 2 + m v is formed exactly, so |h' - h| < 19 m 2^-w,
        and cos h' at w bits adds 2^(1-w): 2 cos h' is within (38 m + 4)
        2^-w of 2 cos h.  The radius 20 (m + 1) 2^21 units holds that 16
        times over; 2 more units cover the floor of cos h' and its doubling.
        """
        k_half = mpf_shift(mpf_mul(self.theta._mpf_, from_int(k)), -1)
        cos_h, _ = mpf_cos_sin(mpf_add(k_half, mpf_mul(from_int(m), self.v)), self.w, "n")
        two_cos, units = 2 * _fixed(cos_h, self.P), (20 * (m + 1) << 21) + 2
        return two_cos - units, two_cos + units


def _r_at(im: tuple, w: int, P: int) -> int:
    """e^(-2 pi im), im a libmp value, at w bits and floored to units of 2^-P."""
    return _fixed(mpf_exp(mpf_neg(mpf_mul(_two_pi(w)._mpf_, im, w, "n")), w, "n"), P)


def _real_units(a: int, b: int, units: int, p: int) -> tuple:
    """(a, units) of a real value a + i b in units of 2^-p, whose imaginary
    part b must lie within the radius."""
    if abs(b) > units:
        raise NotRealError(f"imaginary part {b} exceeds radius {units} in units of 2^-{p}")
    return a, units


def _partial_sum(s: QSeries, pt: _Point) -> tuple:
    """(a, b, units): s's partial sum at the point, one _horner at q; q^lead
    >= 1 is lead zero coefficients, a pole c/q (j, c an int) c times 1/q."""
    if s.lead >= 0:
        return _horner((0,) * s.lead + s.coeffs, pt.qx, pt.qy, pt.pad, pt.P)
    if s.lead < -1:
        raise ValueError(f"a pole of order {-s.lead} at q = 0")
    ix, iy, ipad = pt.inverse()
    a, b, units = _horner(s.coeffs[1:], pt.qx, pt.qy, pt.pad, pt.P)
    c = s.coeffs[0]
    return a + c * ix, b + c * iy, units + abs(c) * ipad


def eval_series(s: QSeries, tau, tail, prec: int = DEFAULT_PREC) -> tuple:
    """(re, im): the real and imaginary parts of a truncated q-expansion
    plus its tail bound, two real intervals from one disk.

    tau is a point, or a horizontal segment (a, b), Re a <= Re b.  The
    partial sum is one _horner at the q of the point, on the disk that
    the segment sweeps, and the tail is taken at the largest |q| of the
    disk; everything is in units and the disk a + i b +- units is formed
    once, so re holds a +- units and im b +- units.  tail is one of the
    *Tail dataclasses above and must genuinely cover the dropped
    coefficients; None evaluates s as the finite q-polynomial it is.
    """
    with workprec(prec + _GUARD):
        pt = _segment_point(tau)
        a, b, units = _disk(s, tail, pt)
        return _units_ball(a, units, pt.P), _units_ball(b, units, pt.P)


def eval_abs(s: QSeries, tau, tail) -> CertValue:
    """The real interval of |s| where eval_series takes s, read off the same
    disk a + i b +- u by _modulus_ends, not off its rectangle, whose
    modulus can reach (sqrt 2 - 1) u further."""
    with workprec(DEFAULT_PREC + _GUARD):
        pt = _segment_point(tau)
        return _ends_ball(*_modulus_ends(*_disk(s, tail, pt)), pt.P)


def _segment_point(tau) -> _Point:
    """The _Point of a point tau or of a horizontal segment (a, b), Re a <= Re b."""
    a, b = (mp.mpmathify(t) for t in (tau if isinstance(tau, tuple) else (tau, tau)))
    if mp.im(a) != mp.im(b):
        raise ValueError(f"segment [{a}, {b}] not horizontal")
    x, h = _span(mp.re(a), mp.re(b))
    return _Point(x, _require_height(a), h)


def _disk(s: QSeries, tail, pt: _Point) -> tuple:
    """(a, b, units): s at the point as the disk a + i b +- units, its partial
    sum widened by tail unless None."""
    a, b, units = _partial_sum(s, pt)
    return a, b, units + (tail.units(s.trunc, pt) if tail is not None else 0)


def _modulus_ends(a: int, b: int, units: int) -> tuple:
    """(lo, hi) with lo <= |z| <= hi for every z in the disk a + i b +- units:
    isqrt(a^2 + b^2) <= |a + i b| < isqrt(a^2 + b^2) + 1, and lo >= 0."""
    root = isqrt(a * a + b * b)
    return max(root - units, 0), root + 1 + units


def _modular_ends(e4: tuple, e6: tuple, P: int) -> tuple:
    """(hi4, hi6, low, jx, jy, jr) from the disks e4 and e6 = (a, b, units) of
    E_4 and E_6 in units of 2^-P: |E_4| <= hi4 and |E_6| <= hi6 units,
    |Delta| >= low / 1728 units of 2^-3P, and j within jr units of jx + i jy.

    Midpoint-radius arithmetic on ints (van der Hoeven, Ball arithmetic,
    2009).  With R >= |Z| (_modulus_ends' hi less u), Z^3 +- ((R + u)^3 -
    R^3) holds E_4^3 at 2^-3P and Z^2 +- ((R + u)^2 - R^2) holds E_6^2 at
    2^-2P, both exact: 1728 Delta = C - S = D +- r_D.  J = 1728 C / D is one
    conjugate quotient floored in each part, within 2 units, so |J| + 3
    bounds |1728 C / D|, and 1728 C' / D' lies within (1728 r_C + |1728 C /
    D| r_D) / (|D| - r_D) of 1728 C / D.  ZeroDivisionError if |D| <= r_D.
    """
    (x4, y4, u4), (x6, y6, u6) = e4, e6
    hi4, hi6 = _modulus_ends(*e4)[1], _modulus_ends(*e6)[1]
    cx, cy = x4 * (x4 * x4 - 3 * y4 * y4), y4 * (3 * x4 * x4 - y4 * y4)
    dx, dy = cx - (x6 * x6 - y6 * y6 << P), cy - (2 * x6 * y6 << P)
    rc = hi4 ** 3 - (hi4 - u4) ** 3
    rd = rc + (hi6 ** 2 - (hi6 - u6) ** 2 << P)
    norm = dx * dx + dy * dy
    low = isqrt(norm) - rd
    if low <= 0:
        raise ZeroDivisionError("the disk of 1728 Delta reaches 0")
    jx, jy = (1728 * (t << P) // norm for t in (cx * dx + cy * dy, cy * dx - cx * dy))
    jr = -(-((1728 * rc << P) + (isqrt(jx * jx + jy * jy) + 3) * rd) // low) + 2
    return hi4, hi6, low, jx, jy, jr


def modular_bounds(tau) -> tuple:
    """(|E_4| upper, |E_6| upper, |Delta| lower, j's centre, j's radius) at tau:
    _modular_ends on E_4 and E_6 cut at q^48 at one _Point, as mpfs at
    DEFAULT_PREC + _GUARD bits rounded outward, the centre an exact mpc."""
    with workprec(DEFAULT_PREC + _GUARD):
        pt = _segment_point(tau)
        P, p = pt.P, mp.prec
        hi4, hi6, low, jx, jy, jr = _modular_ends(
            *(_disk(qseries.eisenstein(k, 48), EisensteinTail(k), pt) for k in (4, 6)), P)
        return (*(mp.make_mpf(from_man_exp(n, -P, p, "c")) for n in (hi4, hi6)),
                mp.make_mpf(from_rational(low, 1728 << 3 * P, p, "f")),
                mp.make_mpc((from_man_exp(jx, -P), from_man_exp(jy, -P))),
                mp.make_mpf(from_man_exp(jr, -P, p, "c")))


def eval_delta_abs(tau) -> CertValue:
    """|Delta(tau)| = |q| |P|^24 through the eta product P = prod (1 - q^n):
    the dense 0/+-1 pentagonal coefficients to q^terms and the pentagonal
    tail 2 r^(terms+1) / (1 - r) at the point, |P| within _modulus_ends of
    that disk and |q| within r +- pad; the product is exact in ints, at
    2^-25P, and the interval is formed once."""
    with workprec(DEFAULT_PREC + _GUARD):
        tau = mp.mpmathify(tau)
        pt = _Point(mp.re(tau), _require_height(tau))
        eta = qseries._pentagonal_euler_product(auto_trunc(pt.y, DEFAULT_PREC))
        lo, hi = _modulus_ends(*_disk(eta, EtaProductTail(), pt))
        return _ends_ball((pt.r - pt.pad) * lo ** 24, (pt.r + pt.pad) * hi ** 24, 25 * pt.P)


# ---------------------------------------------------------------------------
# the boundary arc


@dataclass
class ArcValues:
    """The four real-valued arc functions at a common angle, or on an angle interval.

    e2 = e^(i theta) E_2 + 3/(i pi)   (the modified weight-2 function),
    e4, e6 = e^(i k theta / 2) E_k, and delta_arc = e^(6 i theta) Delta
    = (e4^3 - e6^2) / 1728.
    """

    e2: CertValue
    e4: CertValue
    e6: CertValue
    delta_arc: CertValue


def _theta_mpf(p) -> mpf:
    """The arc angle p as an mpf in [pi/2, 2pi/3].

    An angle within 2^-50 of a corner stands for the corner, so that the
    doubles float(pi/2) and float(2pi/3) (arc_grid's ends) reach it; any
    angle farther outside raises ValueError, as no enclosure here holds
    off the arc.
    """
    t = mpf(p)
    lo, hi = _corner_angles(mp.prec)
    if lo <= t <= hi:
        return t
    low, high = _corner_window(mp.prec)
    if not low <= t <= high:
        raise ValueError(f"theta = {t} outside [pi/2, 2pi/3]")
    return lo if t < lo else hi


def _phase_units(pt: _Point, n: int) -> tuple:
    """(x, y, units): (c + i s)^n, n >= 1, as n - 1 floored products, within
    units = n (upad + 3) of e^(i n theta) at every angle of the arc point:
    each product adds upad, under 2 units of floors and one of error growth."""
    P, c, s = pt.P, pt.c, pt.s
    x, y = c, s
    for _ in range(n - 1):
        x, y = (x * c - y * s) >> P, (x * s + y * c) >> P
    return x, y, n * (pt.upad + 3)


def _arc_eisenstein(pt: _Point, k: int, trunc: int) -> tuple:
    """(v, units): e2, e4 or e6 (k = 2, 4 or 6), the real e^(i k theta / 2)
    E_k, less 3 i / pi for k = 2, at the arc point, in its units.

    E_k to q^trunc is one _horner at q on the disk of radius pad, widened
    by EisensteinTail at r + pad.  With the phase from _phase_units at
    n = k/2, the floored real part of phase times E_k is within its units
    times |E_k| plus E_k's radius plus one unit, as |u^n| = 1.  The
    imaginary part must be 0, or for k = 2 the cached 3/pi (within 2
    units, so e2 takes 2 more), within the radius: Im(e^(i theta) E_2) =
    3/pi on the arc.
    """
    P = pt.P
    a, b, units = _horner(qseries.eisenstein(k, trunc).coeffs, pt.qx, pt.qy, pt.pad, P)
    units += EisensteinTail(k).units(trunc, pt) + 1
    x, y, spread = _phase_units(pt, k // 2)
    units += -(-spread * (isqrt(a * a + b * b) + 1) >> P)
    im = (x * b + y * a) >> P
    if k == 2:
        im, units = im - _three_over_pi_units(P), units + 2
    return _real_units((x * a - y * b) >> P, im, units, P)


def _j_tail_units(M: int, pt: _Point) -> int:
    """j_tail_bound(M, sin theta) at the arc point, in units rounded upward.

    j_tail_bound's exponent 2 pi (1/a - a (sqrt M - 1/a)^2) is 4 pi sqrt M
    - 2 pi a M, so with r = e^(-2 pi a) the bound is K r^M / (a - 1/sqrt M),
    with K and 1/sqrt M from _j_tail_lead.  It grows with r and falls with
    a: r is taken as r + pad and a = s as s - upad.  The product is exact
    in ints and rounded up once, and no exp is evaluated.
    """
    P = pt.P
    lead, inv_root = _j_tail_lead(M, P)
    gap = pt.s - pt.upad - inv_root
    if gap <= 0:
        raise TailUnboundedError(f"j tail needs M > 1/sin^2 theta, got M = {M}")
    geo = -(-(1 << 2 * P) // gap)
    return -(-lead * (pt.r + pt.pad) ** M * geo >> P * (M + 1))


def _arc_ends(pt: _Point, n: int) -> tuple:
    """(e4, e6, e4^3, delta) as outward ends in the arc point's units, series cut
    at q^n: e4, e6 _arc_eisenstein's v +- its units, e4^3 and e6^2 exact, then
    cut, under 1 unit at each end, and delta = (e4^3 - e6^2) / 1728 under 1 more."""
    P = pt.P
    e4, e6 = ((v - u, v + u) for v, u in (_arc_eisenstein(pt, k, n) for k in (4, 6)))
    cube, square = _cut(_ends_pow(e4, 3), 2 * P), _cut(_ends_pow(e6, 2), P)
    return e4, e6, cube, ((cube[0] - square[1]) // 1728, -((square[0] - cube[1]) // 1728))


def arc_functions(p, prec: int = DEFAULT_PREC) -> ArcValues:
    """Certified values of e2, e4, e6, delta_arc at an arc angle or on an arc interval.

    p is an angle or a pair (lo, hi) with pi/2 <= lo <= hi <= 2pi/3; for a
    pair each enclosure holds at every theta in [lo, hi], from the point
    about its midpoint, and (theta, theta) gives the point result bit for
    bit.  e2, e4 and e6 are _arc_eisenstein's and delta_arc is the ends of
    _arc_ends, as in arc_form, each one ball; on a wide interval delta_arc
    may straddle 0.  NotRealError if an imaginary part survives outside
    the propagated radius.
    """
    with workprec(prec + _GUARD):
        lo, hi = (_theta_mpf(t) for t in (p if isinstance(p, tuple) else (p, p)))
        theta, h = _span(lo, hi)
        pt = _Point(theta, h=h)
        n, P = auto_trunc(pt.y, prec), pt.P
        e4, e6, _, delta = _arc_ends(pt, n)
        return ArcValues(_units_ball(*_arc_eisenstein(pt, 2, n), P),
                         *(_ends_ball(*x, P) for x in (e4, e6, delta)))


def arc_form(form, p, prec: int = DEFAULT_PREC, trunc_scale: int = 1) -> CertValue:
    """The real function e^(i k theta / 2) g_{k,m}(e^(i theta)) on the arc.

    With E_k' = E_4^a E_6^b (EISENSTEIN_FACTORS) it is delta^ell e4^a e6^b
    F(j), where e4 = e^(2 i theta) E_4 and e6 = e^(3 i theta) E_6 are real,
    delta = (e4^3 - e6^2) / 1728 is delta_arc and j = e4^3 / delta.  Every
    step after the two phase products is real, on the outward integer
    ends of _arc_form_at, and the ball is formed once from g's ends.  The
    two series are cut at trunc_scale times auto_trunc.
    """
    with workprec(prec + _GUARD):
        _, (lo, hi, e) = _arc_form_at(form, p, prec, trunc_scale)
        return _ends_ball(lo, hi, -e)


def _arc_form_at(form, p, prec: int, trunc_scale: int = 1) -> tuple:
    """(pt, (lo, hi, e)): the arc point and the ends [lo, hi] 2^e of arc_form's g.

    At the ambient precision prec + _GUARD, on int ends in the point's
    units of 2^-P, each step flooring its lower end and ceiling its upper
    one.  The budget, in units of 2^-P:
      e4, e6        _arc_ends', with e4^3 and delta; delta is below 0
                    on the arc
      e4^a e6^b     exact, then cut: under 1 at each end
      j             the least and greatest of the four quotients e4^3 2^P
                    / delta of the ends, floored and ceiled: under 1
      F(j)          one real _horner about j's floored midpoint, radius
                    half j's width plus 1: F's value +- its units
    |delta|^ell, far below 2^-P, is binary powering on the ends of -delta,
    each product cut outward to P + 32 significant bits, under 2^-(P+31)
    of its upper end, with its binary exponent, and delta^ell has the
    sign (-1)^ell.  The product with e4^a e6^b F(j) at 2^-3P is exact.
    """
    fid = form.id
    a, b = qseries.EISENSTEIN_FACTORS[fid.kprime]
    pt = _Point(_theta_mpf(p))
    P = pt.P
    e4, e6, cube, delta = _arc_ends(pt, auto_trunc(pt.y, prec) * trunc_scale)
    if delta[1] >= 0:
        raise ZeroDivisionError("the ends of delta, negative on the arc, reach 0")
    j_lo = min((c << P) // d for c in cube for d in delta)
    j_hi = max(-(-(c << P) // d) for c in cube for d in delta)
    mid = (j_lo + j_hi) >> 1
    f, _, units = _horner(form.faber.coeffs, mid, 0, j_hi - mid + 1, P)
    eisen = _ends_mul(_cut(_ends_pow(e4, a), (a - 1) * P), _cut(_ends_pow(e6, b), (b - 1) * P))
    lo, hi, e = _ends_pow_float((-delta[1], -delta[0]), fid.ell, -P, P + 32)
    lo, hi = _ends_mul((lo, hi), _ends_mul(eisen, (f - units, f + units)))
    if fid.ell % 2:
        lo, hi = -hi, -lo
    return pt, (lo, hi, e - 3 * P)


def arc_j(p, prec: int = DEFAULT_PREC) -> CertValue:
    """j(e^(i theta)) from its q-series with the j tail bound; real, 0 at rho.

    n = auto_trunc >= 24 lies past 1/sin^2 theta <= 4/3, where the tail
    estimate starts to hold.  j = 1/q + sum_(0<=i<=n) c(i) q^i + tail is
    the arc point's _partial_sum plus _j_tail_units, one ball from the units.
    """
    with workprec(prec + _GUARD):
        pt = _Point(_theta_mpf(p))
        n = auto_trunc(pt.y, prec)
        a, b, units = _partial_sum(qseries.jfunction(n), pt)
        return _units_ball(*_real_units(a, b, units + _j_tail_units(n, pt), pt.P), pt.P)


_J_FLOAT_TERMS = 24         # c(24) |q|^24 < 1e-31 on the arc, |q| <= e^(-pi sqrt 3)


@lru_cache(maxsize=1)
def _j_float_coeffs() -> tuple:
    """c(-1), c(0), ..., c(_J_FLOAT_TERMS) of j as doubles, highest first.

    Built on the first arc_j_float call, not at import.
    """
    return tuple(float(c) for c in reversed(qseries.jfunction(_J_FLOAT_TERMS).coeffs))


def arc_j_float(theta) -> float:
    """j(e^(i theta)) on the arc in complex doubles; uncertified.

    q^-1 (1 + 744 q + ... + c(24) q^25) by Horner on the double
    coefficients of the integer j q-series; the dropped tail is below
    1e-31 on the arc, and the rounding leaves a few ulp of j (under 5e-13
    on arc_grid(1e-3)).  The value is never part of an enclosure: it
    only chooses which cell a certified evaluation (arc_j) then decides,
    so a wrong double costs time, never a wrong result.
    """
    q = cmath.exp(2j * cmath.pi * cmath.exp(1j * float(theta)))
    acc = 0j
    for c in _j_float_coeffs():
        acc = acc * q + c
    return (acc / q).real


# ---------------------------------------------------------------------------
# lemniscate constants


@dataclass(frozen=True)
class LemniscateConstants:
    varpi: CertValue        # 2 * integral_0^1 dx / sqrt(1 - x^4)
    varpi_prime: CertValue  # 2 * integral_0^1 dx / sqrt(1 - x^6)


@lru_cache(maxsize=1)
def lemniscate_constants() -> LemniscateConstants:
    """Both arclength integrals in closed form, on libmpi's outward intervals.

    varpi = pi / agm(1, sqrt 2): after one step the arithmetic means fall
    and the geometric ones rise to the agm, quadratically, so the last
    geometric mean's lower end and arithmetic mean's upper end enclose it.
    varpi' = Gamma(1/6) sqrt(pi) / (3 Gamma(2/3)), mpi_gamma taken on the
    outward ends of 1/6 and 2/3, both formed once at their own precision.
    Tests pin them against Delta(i), E_6(rho) and other closed forms.
    """
    with workprec(DEFAULT_PREC + 64):
        p = mp.prec
        pi, a, g = mpi_pi(p), (fone, fone), mpi_sqrt((from_int(2),) * 2, p)
        for _ in range(p.bit_length()):
            a, g = tuple(mpf_shift(t, -1) for t in mpi_add(a, g, p)), mpi_sqrt(mpi_mul(a, g, p), p)
        gamma = [mpi_gamma((from_rational(n, d, p, "f"), from_rational(n, d, p, "c")), p)
                 for n, d in ((1, 6), (2, 3))]
        varpi_prime = mpi_div(mpi_mul(gamma[0], mpi_sqrt(pi, p), p),
                              mpi_mul(gamma[1], (from_int(3),) * 2, p), p)
        return LemniscateConstants(_mpi_ball(mpi_div(pi, (g[0], a[1]), p)), _mpi_ball(varpi_prime))


# ---------------------------------------------------------------------------
# export


ARC_FUNCTION_NAMES = ("e2", "e4", "e6", "delta_arc")


def arc_grid(step: float = 1e-3) -> list:
    """Deterministic closed theta grid over [pi/2, 2pi/3] with the given step.

    The ends come from 64 bits at any ambient precision (at 53, 2pi/3 rounds
    below rho); the last lies above rho, and the arc functions clamp it.
    A step that is not a positive finite number raises ValueError."""
    if not 0 < step < float("inf"):
        raise ValueError(f"grid step must be a positive finite number, got {step!r}")
    with workprec(64):
        lo, hi = float(mp.pi / 2), float(2 * mp.pi / 3)
    n = int((hi - lo) / step)
    pts = [lo + i * step for i in range(n + 1)]
    if pts[-1] < hi:
        pts.append(hi)
    return pts


def export_arc_csv(name: str, outfile, step: float = 1e-3) -> int:
    """Write theta,value,err rows for one arc function; returns the row count."""
    if name not in ARC_FUNCTION_NAMES:
        raise ValueError(f"unknown arc function {name!r}")
    grid = arc_grid(step)
    writer = csv.writer(outfile)
    writer.writerow(["theta", "value", "err"])
    rows = 0
    for theta in grid:
        av = arc_functions(theta)
        cv = getattr(av, name)
        writer.writerow([repr(theta), repr(float(cv.value)), repr(float(cv.err))])
        rows += 1
    return rows
