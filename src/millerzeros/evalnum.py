"""Certified numerical evaluation of q-expansions in the upper half plane.

Everything here returns a CertValue, a ball in the sense of van der Hoeven
("Ball arithmetic", 2009) and Arb (Johansson, IEEE TC 66, 2017): a real or
complex midpoint at the ambient mpmath precision and a radius that holds
every point it stands for.  The discipline is the same in every operation:

  * the midpoint rounds to nearest, and _pad, 16 ulp of it, is the
    allowance for that rounding (one ulp for a ball formed once from
    ints, _units_ball); mpmath's elementary functions are taken to be
    accurate within 16 ulp too, the few-ulp assumption every value here
    rests on;
  * every radius operation (the constructor, +, *, /, pow_int, abs,
    widened and eval_poly's final sum) rounds upward, at libmp level, so
    no radius is below the exact value of its formula;
  * the elementary functions of a real ball (exp, log, sqrt, sin, cos,
    tan, acos) add e sup |f'| over the ball, rounded upward, to the pad
    of f(v), each docstring giving its bound on |f'|; CertValue.pi() is
    mpmath's pi with its pad.

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
radius is then: that a-priori bound, the exact tail bound for the
truncated series, and one ulp for rounding the result, a single
conversion of an int, to an mpf.  eval_poly is the kernel at a real mpf.

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
point; each result is one ball formed at the end.  Powers of balls are closed form,
after the midpoint-radius pattern of Arb: CertValue.pow_int rounds v^n
once and takes the radius n e (|v| + e)^(n-1) plus the pad of v^n,
rounded upward, since |w^n - v^n| <= n |w - v| max(|v|, |w|)^(n-1).
Radii take |v| from _abs_up, never from a full-precision complex abs.

A basis form on the arc (arc_form) needs no complex product: it is real
arithmetic on the arc functions e4 and e6 alone (Duke-Jenkins, PAMQ 4,
2008), as is arc_functions' delta_arc, so the eta product serves only
Delta evaluated alone (eval_delta_eta).  That arithmetic runs on
outward integer ends, the inf-sup form of Arb's intervals: a real
quantity is a pair of ints (lo, hi) at _horner's scale, every product
exact and every cut to a coarser scale flooring lo and ceiling hi, and
no CertValue operation runs before the one ball formed from the ends.

Tail bounds by coefficient family:

  * Eisenstein weight k:   sigma_{k-1}(n) <= n^k, and n^k r^n is
    geometrically dominated once (1 + 1/(N+1))^k r < 1;
  * j-function:            c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)),
    summed in closed form (same estimate backs the j approximation
    error bound used by the certificates);
  * eta product:           the pentagonal expansion of prod (1 - q^n)
    has coefficients in {-1, 0, 1} at distinct exponents, so the tail
    beyond q^N is at most 2 r^(N+1) / (1 - r).

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

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import (from_int, from_man_exp, from_rational, fzero, mpf_add, mpf_cos_sin,
                          mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_pos, mpf_pow_int, mpf_shift,
                          mpf_sqrt, mpf_sub)

from . import qseries
from .qseries import QSeries

DEFAULT_PREC = 128          # working mantissa bits
_GUARD = 12                 # extra bits inside evaluation contexts
MIN_HEIGHT = 0.4


class TailUnboundedError(ArithmeticError):
    """No finite tail estimate is available for the requested evaluation."""


class NotRealError(ArithmeticError):
    """A quantity that must be real has imaginary part above its error radius."""


def _abs_up(v) -> tuple:
    """|v| rounded upward as a libmp value, for radii: exact for a real v,
    else within 2^-57.

    Both parts are read to 60 bits as integers at one scale, rounded up; so
    is isqrt of their square sum.  Each rounding adds under 1 of >= 2^59 units.
    """
    if not isinstance(v, mpc):
        return (0,) + v._mpf_[1:]
    a, b = v._mpc_
    if a[3] < 0 or b[3] < 0:
        return abs(v)._mpf_                     # an infinite or nan part
    if not (a[1] and b[1]):                     # a zero part
        return (0,) + (a if a[1] else b)[1:]
    (_, ma, ea, ba), (_, mb, eb, bb) = a, b
    s = max(ea + ba, eb + bb) - 60
    x = ma << (ea - s) if ea >= s else -(-ma >> (s - ea))
    y = mb << (eb - s) if eb >= s else -(-mb >> (s - eb))
    return from_man_exp(isqrt(x * x + y * y) + 1, s)


def _abs_rounded(v, rnd: str) -> mpf:
    """|v| rounded to the ambient precision in the direction rnd.

    A real |v| is read exactly from the mantissa and rounded once.  A
    complex modulus sums the two squares exactly (libmp at precision 0)
    and rounds only its square root, which mpf_sqrt does correctly in
    either direction.
    """
    if isinstance(v, mpc):
        a, b = v._mpc_
        return mp.make_mpf(mpf_sqrt(mpf_add(mpf_mul(a, a), mpf_mul(b, b)), mp.prec, rnd))
    return mp.make_mpf(mpf_pos(_abs_up(v), mp.prec, rnd))


def _pad_up(value) -> tuple:
    # a few ulp at the ambient precision; mpmath rounds to 1/2 ulp per op
    return mpf_shift(_abs_up(value), 4 - mp.prec)


def _pad(value) -> mpf:
    return mp.make_mpf(_pad_up(value))


# relative slack on every closed-form tail, covering its own rounding
_TAIL_SLACK = 1 + mpf(2) ** -30

_UP = "u"           # radii are >= 0, so rounding away from zero rounds them up


def _up(x, prec: int) -> tuple:
    """A radius x (mpf, int, float or Fraction) as a libmp value rounded upward."""
    if isinstance(x, mpf):
        return mpf_pos(x._mpf_, prec, _UP)
    x = Fraction(x)
    return from_rational(x.numerator, x.denominator, prec, _UP)


def _sum_up(*terms: tuple) -> mpf:
    """The sum of libmp radii, each addition rounded upward."""
    p = mp.prec
    acc = terms[0]
    for t in terms[1:]:
        acc = mpf_add(acc, t, p, _UP)
    return mp.make_mpf(acc)


def _mul_up(a: tuple, b: tuple) -> tuple:
    return mpf_mul(a, b, mp.prec, _UP)


def _ball(value, err: mpf) -> "CertValue":
    """A CertValue from a radius that is already an mpf rounded upward."""
    b = object.__new__(CertValue)
    b.value, b.err = value, err
    return b


class CertValue:
    """A ball: a midpoint and a radius that holds every point it stands for.

    The midpoint rounds to nearest at the ambient precision, and _pad, 16
    ulp of it, is the only allowance for that rounding.  Every radius
    operation rounds upward, so a radius is never smaller than the exact
    value of its formula.  Immutable by convention.
    """

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = value if isinstance(value, (mpf, mpc)) else mp.mpmathify(value)
        e = _up(err, mp.prec)
        if e[0] and e[1]:
            raise ValueError("negative error radius")
        self.err = mp.make_mpf(e)

    @classmethod
    def exact(cls, x) -> "CertValue":
        """From an exact rational; the only error is the rounding of x itself."""
        if isinstance(x, int):
            x = Fraction(x)
        if isinstance(x, Fraction):
            v = mpf(x.numerator) / x.denominator
            return cls(v, 0 if _exact(v) == x else _pad(v))
        v = mp.mpmathify(x)
        return cls(v, _pad(v))

    @classmethod
    def pi(cls) -> "CertValue":
        """pi at the ambient precision."""
        v = +mp.pi
        return _ball(v, _pad(v))

    def __repr__(self):
        return f"CertValue({self.value}, err={self.err})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        v = self.value + other.value
        return _ball(v, _sum_up(self.err._mpf_, other.err._mpf_, _pad_up(v)))

    __radd__ = __add__

    def __neg__(self):
        return _ball(-self.value, self.err)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        v = self.value * other.value
        a, b = self.err._mpf_, other.err._mpf_
        return _ball(v, _sum_up(_mul_up(_abs_up(self.value), b),
                                _mul_up(_abs_up(other.value), a), _mul_up(a, b), _pad_up(v)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        # the radius falls as |divisor| grows, so it takes a lower bound b of
        # it: a complex modulus rounded down, a real one exactly
        p, d, f = mp.prec, other.value, other.err._mpf_
        b = _abs_rounded(d, "d")._mpf_ if isinstance(d, mpc) else _abs_up(d)
        gap = mpf_sub(b, f, p, "d")
        if gap[0] or not gap[1]:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / d
        num = mpf_add(mpf_mul(_abs_up(self.value), f, p, _UP), mpf_mul(b, self.err._mpf_, p, _UP),
                      p, _UP)
        return _ball(v, _sum_up(mpf_div(num, mpf_mul(b, gap, p, "d"), p, _UP), _pad_up(v)))

    def pow_int(self, n: int) -> "CertValue":
        """v^n rounded once, radius n e (|v| + e)^(n-1) plus the pad of v^n, rounded upward.

        |v| is taken from above by _abs_up.  mpmath forms
        a real power, or a complex one with n <= 2 or a zero part, exactly
        or at extra precision and rounds it once, which the pad of v^n
        covers.  Any other complex power may be exp(n log v) at 10 extra
        bits, off by up to n (|log v| + pi) 2^-(prec+8) relative; the pad
        grows by n (|mag v| + 5) / 2^11 of itself to cover that, mag v
        being the binary exponent of |v|.
        """
        if n < 0:
            raise ValueError("negative powers unsupported")
        if n == 0:
            return CertValue(mpf(1))
        v, e = self.value, self.err
        value = v ** n
        p = mp.prec
        base = mpf_add(_abs_up(v), e._mpf_, p, _UP)
        spread = _mul_up(_mul_up(from_int(n), e._mpf_), mpf_pow_int(base, n - 1, p, _UP))
        rounding = _pad_up(value)
        if isinstance(v, mpc) and n > 2 and v.real and v.imag:
            grow = _mul_up(rounding, from_int(2048 + n * (abs(mp.mag(v)) + 5)))
            rounding = mpf_shift(grow, -11)
        return _ball(value, _sum_up(spread, rounding))

    # -- elementary functions of a real ball --------------------------------
    #
    # Each takes mpmath's f(v) at the ambient precision, which lies within
    # _pad of the true value (the few-ulp assumption every value here rests
    # on), and adds e times a bound on |f'| over [v - e, v + e], rounded
    # upward; the docstring of each gives that bound.

    def _real_parts(self) -> tuple:
        if isinstance(self.value, mpc):
            raise TypeError("elementary functions take a real ball")
        return self.value, self.err

    def _image(self, y: mpf, spread: mpf) -> "CertValue":
        return _ball(y, _sum_up(spread._mpf_, _pad_up(y)))

    def exp(self) -> "CertValue":
        """e^v.  |exp'| <= e^(v + e) <= (e^v + pad) e^e on the ball, with
        e^e <= 1 + 2e for e <= 1."""
        v, e = self._real_parts()
        y = mp.exp(v)
        grow = mp.fadd(1, 2 * e, rounding=_UP) if e <= 1 else _upper_of(mp.exp(e))
        return self._image(y, mp.fmul(mp.fmul(_upper_of(y), grow, rounding=_UP), e, rounding=_UP))

    def log(self) -> "CertValue":
        """log v for v - e > 0.  |log'| <= 1 / (v - e) on the ball."""
        v, e = self._real_parts()
        low = mp.fsub(v, e, rounding="d")
        if low <= 0:
            raise ValueError(f"log of a ball that reaches {low}")
        return self._image(mp.log(v), mp.fdiv(e, low, rounding=_UP))

    def sqrt(self) -> "CertValue":
        """sqrt v for v - e >= 0.  |sqrt w - sqrt v| = |w - v| / (sqrt w + sqrt v)
        <= e / sqrt v for every w >= 0."""
        v, e = self._real_parts()
        if v < e:
            raise ValueError(f"sqrt of a ball that reaches below 0: {v} +- {e}")
        y = mp.sqrt(v)
        return self._image(y, mp.fdiv(e, _lower_of(y), rounding=_UP) if e else e)

    def sin(self) -> "CertValue":
        """sin v.  |sin'| <= 1."""
        v, e = self._real_parts()
        return self._image(mp.sin(v), e)

    def cos(self) -> "CertValue":
        """cos v.  |cos'| <= 1."""
        v, e = self._real_parts()
        return self._image(mp.cos(v), e)

    def tan(self) -> "CertValue":
        """tan v for e <= 1 and 2 e |tan v| < 1.  With t = tan v and |d| <= e,
        tan(v + d) - t = tan d (1 + t^2) / (1 - t tan d), and |tan d| <= 2 e
        for e <= 1, so the ball moves at most 2 e (1 + t^2) / (1 - 2 e |t|)."""
        v, e = self._real_parts()
        y = mp.tan(v)
        t, d = _upper_of(y), 2 * e
        den = mp.fsub(1, mp.fmul(d, t, rounding=_UP), rounding="d")
        if e > 1 or den <= 0:
            raise ValueError(f"tan of a ball too wide for its slope: {v} +- {e}")
        num = mp.fmul(d, mp.fadd(1, mp.fmul(t, t, rounding=_UP), rounding=_UP), rounding=_UP)
        return self._image(y, mp.fdiv(num, den, rounding=_UP))

    def acos(self) -> "CertValue":
        """acos v for |v| + e < 1.  |acos'| = 1 / sqrt(1 - w^2)
        <= 1 / sqrt(1 - (|v| + e)^2) on the ball."""
        v, e = self._real_parts()
        a = mp.fadd(abs(v), e, rounding=_UP)
        room = mp.fsub(1, mp.fmul(a, a, rounding=_UP), rounding="d")
        if room <= 0:
            raise ValueError(f"acos of a ball that reaches |v| = 1: {v} +- {e}")
        return self._image(mp.acos(v), mp.fdiv(e, _lower_of(mp.sqrt(room)), rounding=_UP))

    # -- views -------------------------------------------------------------

    def abs(self) -> "CertValue":
        """|v| with the radius; a complex modulus adds the pad of its rounding."""
        v = CertValue(abs(self.value), self.err)
        return v.widened(_pad(v.value)) if isinstance(self.value, mpc) else v

    def real(self) -> "CertValue":
        return CertValue(self.value.real if isinstance(self.value, mpc) else self.value,
                         self.err)

    def imag(self) -> "CertValue":
        return CertValue(self.value.imag if isinstance(self.value, mpc) else mpf(0),
                         self.err)

    def abs_upper(self) -> mpf:
        """|v| + err rounded upward: no point of the enclosure lies above it."""
        return mp.fadd(_abs_rounded(self.value, "u"), self.err, rounding="u")

    def abs_lower(self) -> mpf:
        """|v| - err rounded downward, or 0: no point of the enclosure lies below it."""
        lo = mp.fsub(_abs_rounded(self.value, "d"), self.err, rounding="d")
        return lo if lo > 0 else mpf(0)

    def widened(self, extra) -> "CertValue":
        """The same value with extra (mpf, int, float or Fraction) added to the
        radius, rounded upward."""
        return _ball(self.value, _sum_up(self.err._mpf_, _up(extra, mp.prec)))

    def certified_sign(self) -> int:
        """-1, 0 or +1; 0 means the interval straddles zero (no certificate)."""
        v = self.value
        if isinstance(v, mpc):
            raise TypeError("sign of a complex value")
        if v - self.err > 0:
            return 1
        if v + self.err < 0:
            return -1
        return 0

    def as_real(self) -> "CertValue":
        """Discard an imaginary part that is within the error radius."""
        if not isinstance(self.value, mpc):
            return self
        if abs(self.value.imag) > self.err:
            raise NotRealError(
                f"imaginary part {self.value.imag} exceeds radius {self.err}")
        return CertValue(self.value.real, self.err)


def _upper_of(y: mpf) -> mpf:
    """An upper bound of |f| from mpmath's value y of it: |y| + _pad(y), rounded upward."""
    return mp.fadd(abs(y), _pad(y), rounding=_UP)


def _lower_of(y: mpf) -> mpf:
    """A lower bound of f > 0 from mpmath's value y of it: y - _pad(y), rounded downward."""
    return mp.fsub(y, _pad(y), rounding="d")


def _coerce(x) -> CertValue:
    if isinstance(x, CertValue):
        return x
    if x.__class__ is int and x.bit_length() <= mp.prec:
        return _ball(mp.make_mpf(from_int(x)), mp.make_mpf(fzero))
    return CertValue.exact(x)


# ---------------------------------------------------------------------------
# exact conversions and the fixed-point Horner kernel


def _man_exp(t: tuple) -> tuple:
    """(man, exp) with the libmp value t = man 2^exp exactly, man signed."""
    sign, man, exp, bc = t
    if not man and bc:
        raise ValueError(f"non-finite value {mp.make_mpf(t)}")
    return (-int(man) if sign else int(man)), exp


def _exact(x: mpf) -> Fraction:
    """The binary value of an mpf as a signed Fraction, without rounding."""
    man, exp = _man_exp(x._mpf_)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _fixed(t: tuple, p: int) -> int:
    """floor(t 2^p) of a libmp value t."""
    man, exp = _man_exp(t)
    return man << (exp + p) if exp + p >= 0 else man >> -(exp + p)


def _from_fixed(n: int, p: int) -> mpf:
    """n 2^-p rounded to nearest at the working precision."""
    return mp.make_mpf(from_man_exp(n, -p, mp.prec, "n"))


def _ulp(value) -> tuple:
    """One ulp at the ambient precision of value, or of its larger part: it
    holds rounding to nearest, half an ulp of each part."""
    parts = value._mpc_ if isinstance(value, mpc) else (value._mpf_,)
    top = max((t[2] + t[3] for t in parts if t[1]), default=None)
    return fzero if top is None else (0, 1, top - mp.prec, 1)


def _units_ball(n: int, units: int, p: int, im: int | None = None) -> CertValue:
    """The ball n 2^-p, or (n + i im) 2^-p, with radius units 2^-p, plus one
    ulp for rounding it to an mpf or mpc."""
    value = _from_fixed(n, p) if im is None else mpc(_from_fixed(n, p), _from_fixed(im, p))
    return _ball(value, _sum_up(from_man_exp(units, -p, mp.prec, _UP), _ulp(value)))


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


def eval_poly(coeffs, x, radius=0) -> CertValue:
    """Enclosure of sum_i coeffs[i] w^i (exact int or Fraction coefficients)
    for every real w with |w - x| <= radius.

    _horner runs at the scale 2^-P, P = working precision + 24, on X =
    floor(x 2^P) 2^-P, so every w is within radius + 2^(2-P) of X; one ulp
    for rounding the result to an mpf follows.
    """
    x = mp.mpmathify(x)
    if isinstance(x, mpc):
        raise TypeError("eval_poly takes a real point")
    p = mp.prec + 24
    delta = -_fixed(mpf_neg(mpf(radius)._mpf_), p) + 4
    a, _, units = _horner(coeffs, _fixed(x._mpf_, p), 0, delta, p)
    return _units_ball(a, units, p)


# ---------------------------------------------------------------------------
# outward integer ends: a real interval as (lo, hi), two ints at one scale


def _ends_ball(lo: int, hi: int, p: int) -> CertValue:
    """The ball of [lo, hi] 2^-p: its floored midpoint and radius in units."""
    mid = (lo + hi) >> 1
    return _units_ball(mid, hi - mid, p)


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
    powering, each product cut outward to bits significant bits of hi."""
    acc, acc_e = (1, 1), 0
    while True:
        if n & 1:
            acc, acc_e = _trim(_ends_mul(acc, x), acc_e + e, bits)
        n >>= 1
        if not n:
            return (*acc, acc_e)
        x, e = _trim(_ends_mul(x, x), 2 * e, bits)


def _trim(x: tuple, e: int, bits: int) -> tuple:
    """(x cut outward to bits significant bits of hi > 0, its exponent) for x 2^e."""
    s = max(x[1].bit_length() - bits, 0)
    return _cut(x, s), e + s


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
# tail bounds


@lru_cache(maxsize=256)
def _eisenstein_tail_factors(k: int, trunc: int, prec: int) -> tuple:
    """(gamma_k (N+1)^k, (1 + 1/(N+1))^k) at N = trunc, computed at prec bits."""
    gamma = abs(Fraction(2 * k) / qseries.bernoulli(k))
    return (mpf(gamma.numerator) / gamma.denominator * mpf(trunc + 1) ** k,
            (1 + mpf(1) / (trunc + 1)) ** k)


# Every tail bounds the dropped coefficients at |q| = r = e^(-2 pi y); it
# receives both, so that none has to recover one from the other.

@dataclass(frozen=True)
class EisensteinTail:
    k: int

    def bound(self, trunc: int, r: mpf, y: mpf) -> mpf:
        if self.k == 0:
            return mpf(0)
        lead, growth = _eisenstein_tail_factors(self.k, trunc, mp.prec)
        ratio = growth * r
        if ratio >= 1:
            raise TailUnboundedError(
                f"Eisenstein tail not dominated at trunc={trunc}, r={r}")
        return lead * r ** (trunc + 1) / (1 - ratio) * _TAIL_SLACK


@dataclass(frozen=True)
class EtaProductTail:
    def bound(self, trunc: int, r: mpf, y: mpf) -> mpf:
        if r >= 1:
            raise TailUnboundedError("eta tail needs |q| < 1")
        return 2 * r ** (trunc + 1) / (1 - r) * _TAIL_SLACK


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


def _tail_units(tail, trunc: int, pt: _Point) -> int:
    """tail's bound at |q| <= (r + pad) 2^-P and the point's y, in units rounded upward."""
    r = mp.make_mpf(from_man_exp(pt.r + pt.pad, -pt.P))
    return -_fixed(mpf_neg(tail.bound(trunc, r, pt.y)._mpf_), pt.P)


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


def eval_series(s: QSeries, tau, tail, prec: int = DEFAULT_PREC) -> CertValue:
    """Certified value of a truncated q-expansion plus its tail bound.

    tau is a point, or a horizontal segment (a, b), Re a <= Re b.  The
    partial sum is one _horner at the q of the point, on the disk that
    the segment sweeps, and the tail is taken at the largest |q| of the
    disk; everything is in units and the ball is formed once.  tail is one
    of the *Tail dataclasses above and must genuinely cover the dropped
    coefficients; None evaluates s as the finite q-polynomial it is.
    """
    return _eval_series_at(((s, tail),), tau, prec)[0]


def _eval_series_at(terms, tau, prec: int = DEFAULT_PREC) -> tuple:
    """eval_series of every (series, tail) in terms at one tau, from one point."""
    with workprec(prec + _GUARD):
        a, b = (mp.mpmathify(t) for t in (tau if isinstance(tau, tuple) else (tau, tau)))
        if mp.im(a) != mp.im(b):
            raise ValueError(f"segment [{a}, {b}] not horizontal")
        x, h = _span(mp.re(a), mp.re(b))
        pt = _Point(x, _require_height(a), h)
        return tuple(_series_ball(s, tail, pt) for s, tail in terms)


def _series_ball(s: QSeries, tail, pt: _Point) -> CertValue:
    """s at the point as a complex ball: its partial sum, widened by tail unless None."""
    re, im, units = _partial_sum(s, pt)
    if tail is not None:
        units += _tail_units(tail, s.trunc, pt)
    return _units_ball(re, units, pt.P, im)


def eval_delta_eta(tau, prec: int = DEFAULT_PREC) -> CertValue:
    """Delta(tau) = q P^24 through the eta product P = prod (1 - q^n): the
    dense 0/+-1 pentagonal coefficients to q^terms and the pentagonal tail
    2 r^(terms+1) / (1 - r) at the point, and q the point's, within pad."""
    with workprec(prec + _GUARD):
        tau = mp.mpmathify(tau)
        pt = _Point(mp.re(tau), _require_height(tau))
        terms = auto_trunc(pt.y, prec)
        prod = _series_ball(qseries._pentagonal_euler_product(terms), EtaProductTail(), pt)
        return prod.pow_int(24) * _units_ball(pt.qx, pt.pad, pt.P, pt.qy)


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
    units += _tail_units(EisensteinTail(k), trunc, pt) + 1
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


def arc_functions(p, prec: int = DEFAULT_PREC) -> ArcValues:
    """Certified values of e2, e4, e6, delta_arc at an arc angle or on an arc interval.

    p is an angle or a pair (lo, hi) with pi/2 <= lo <= hi <= 2pi/3; for a
    pair each enclosure holds at every theta in [lo, hi], from the point
    about its midpoint, and (theta, theta) gives the point result bit for
    bit.  e2, e4 and e6 are _arc_eisenstein's, delta_arc = (e4^3 - e6^2) /
    1728 as in arc_form; NotRealError if an imaginary part survives
    outside the propagated radius.
    """
    with workprec(prec + _GUARD):
        lo, hi = (_theta_mpf(t) for t in (p if isinstance(p, tuple) else (p, p)))
        theta, h = _span(lo, hi)
        pt = _Point(theta, h=h)
        n = auto_trunc(pt.y, prec)
        e2, e4, e6 = (_units_ball(*_arc_eisenstein(pt, k, n), pt.P) for k in (2, 4, 6))
        return ArcValues(e2, e4, e6, (e4.pow_int(3) - e6.pow_int(2)) / 1728)


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
      e4, e6        _arc_eisenstein's v +- its units
      e4^3, e6^2    exact, then cut: under 1 at each end; so is e4^a e6^b
      delta         (e4^3 - e6^2) / 1728 cut: under 1; below 0 on the arc
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
    n = auto_trunc(pt.y, prec) * trunc_scale
    e4, e6 = ((v - u, v + u) for v, u in (_arc_eisenstein(pt, k, n) for k in (4, 6)))
    cube, square = _cut(_ends_pow(e4, 3), 2 * P), _cut(_ends_pow(e6, 2), P)
    delta = (cube[0] - square[1]) // 1728, -((square[0] - cube[1]) // 1728)
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

    The truncation n reaches past 1/sin^2 theta, where the tail estimate
    starts to hold.  j = 1/q + sum_(0<=i<=n) c(i) q^i + tail is the arc
    point's _partial_sum plus _j_tail_units, one ball from the units.
    """
    with workprec(prec + _GUARD):
        pt = _Point(_theta_mpf(p))
        n = max(auto_trunc(pt.y, prec), int(1 / float(pt.y) ** 2) + 8)
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


@dataclass
class LemniscateConstants:
    varpi: CertValue        # 2 * integral_0^1 dx / sqrt(1 - x^4)
    varpi_prime: CertValue  # 2 * integral_0^1 dx / sqrt(1 - x^6)


def lemniscate_constants() -> LemniscateConstants:
    """Both arclength integrals in closed form, padded like other values.

    varpi = pi / agm(1, sqrt 2) and varpi' = Gamma(1/6) Gamma(1/2) /
    (3 Gamma(2/3)); the values are independently pinned by tests against
    Delta(i) and E_6(rho) evaluations.
    """
    with workprec(DEFAULT_PREC + 64):
        varpi = mp.pi / mp.agm(1, mp.sqrt(2))
        varpi_prime = mp.gamma(mpf(1) / 6) * mp.sqrt(mp.pi) / (3 * mp.gamma(mpf(2) / 3))
        return LemniscateConstants(varpi=CertValue(varpi, _pad(varpi)),
                                   varpi_prime=CertValue(varpi_prime, _pad(varpi_prime)))


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
