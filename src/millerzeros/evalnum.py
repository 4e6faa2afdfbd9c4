"""Certified numerical evaluation of q-expansions in the upper half plane.

Everything here returns a CertValue: a floating point number (real or
complex, arbitrary precision via mpmath) together with a rigorous error
radius.  Every polynomial and truncated q-series goes through one kernel,
eval_poly: Horner's rule on Gaussian integers at the fixed scale 2^-P,
P = working precision + 24, with exact int or Fraction coefficients.
Each step floors both parts of the product and of the coefficient, so it
loses less than 3 units of 2^-P, and the whole sum less than
3 sum_(i<n) R^i units for R >= |w| (3n units when R < 1; Higham,
Accuracy and Stability of Numerical Algorithms, 5.1).  Moving the point
by delta costs at most delta sum i |c_i| R^(i-1), bounded by integer
Horner rounding up.  The radius is then: that a-priori bound, the exact
tail bound for the truncated series, and one pad for rounding the result
to an mpf.

Around the kernel, each evaluation point does its scalar work once: one
private q-point holds q = e^(2 pi i tau), its pad, r = |q| and y = Im tau,
and every series at that point (the Eisenstein series, the eta product,
j) reads them from it, so exp(2 pi i tau) is computed once per
eval_series, arc_form, arc_functions or arc_j call.  Powers are closed
form, after the midpoint-radius pattern of Arb (Johansson, IEEE TC 66,
2017): CertValue.pow_int rounds v^n once and takes the radius
n e (|v| + e)^(n-1), rounded upward, plus the pad of v^n, since
|w^n - v^n| <= n |w - v| max(|v|, |w|)^(n-1).  The arc phases e^(i k theta/2)
are one mp.expj each, of an argument formed exactly.  Radii take |v| from
_abs_upper, never from a full-precision complex abs.

A basis form on the arc (arc_form) needs no complex product: with
E_k' = E_4^a E_6^b its real arc function is delta^ell e4^a e6^b F(j),
delta = (e4^3 - e6^2) / 1728 and j = e4^3 / delta, from the two real
arc functions e4 and e6 alone (Duke-Jenkins, PAMQ 4, 2008).

A horizontal segment (eval_series) or an arc interval (arc_functions) of
half-width h, rounded upward, is a q-disk about its midpoint: on the
segment |q| = r = e^(-2 pi y) and |dq/dx| = 2 pi r; on the arc tau lies
within h of the midpoint, each phase e^(i k theta/2) within k h / 2, and
|q| <= r_max = e^(-2 pi sin hi), as sin falls on the arc.  q lies within
2 pi r h (2 pi r_max h) of its midpoint value; that radius goes to
eval_poly as the disk of q, and every tail gets the largest |q| of the
disk.  A point is the interval of width 0, on the same code path.

Tail bounds by coefficient family:

  * Eisenstein weight k:   sigma_{k-1}(n) <= n^k, and n^k r^n is
    geometrically dominated once (1 + 1/(N+1))^k r < 1;
  * j-function:            c(n) <= e^(4 pi sqrt(n)) / (sqrt(2) n^(3/4)),
    summed in closed form (same estimate backs the j approximation
    error bound used by the certificates);
  * eta product:           the pentagonal expansion of prod (1 - q^n)
    has coefficients in {-1, 0, 1} at distinct exponents, so the tail
    beyond q^N is at most 2 r^(N+1) / (1 - r);
  * geometric:             caller-stated |a_n| <= C rho^n.

Evaluation is refused below Im(tau) = 0.4; every bound above is easy
and comfortable in that region and nothing in the pipeline needs to go
lower.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, mpc_abs, mpf_pow_int

from . import qseries
from .qseries import QSeries

DEFAULT_PREC = 128          # working mantissa bits
_GUARD = 12                 # extra bits inside evaluation contexts
MIN_HEIGHT = 0.4


class TailUnboundedError(ArithmeticError):
    """No finite tail estimate is available for the requested evaluation."""


class NotRealError(ArithmeticError):
    """A quantity that must be real has imaginary part above its error radius."""


def _abs_upper(v) -> mpf:
    """|v| rounded upward, for radii: exact for a real v, else within 2^-57.

    Both parts are read to 60 bits as integers at one scale, rounded up; so
    is isqrt of their square sum.  Each rounding adds under 1 of >= 2^59 units.
    """
    if not isinstance(v, mpc):
        return mp.make_mpf((0,) + v._mpf_[1:])
    a, b = v._mpc_
    if a[3] < 0 or b[3] < 0:
        return abs(v)                           # an infinite or nan part
    if not (a[1] and b[1]):                     # a zero part
        return mp.make_mpf((0,) + (a if a[1] else b)[1:])
    (_, ma, ea, ba), (_, mb, eb, bb) = a, b
    s = max(ea + ba, eb + bb) - 60
    x = ma << (ea - s) if ea >= s else -(-ma >> (s - ea))
    y = mb << (eb - s) if eb >= s else -(-mb >> (s - eb))
    return mp.make_mpf(from_man_exp(isqrt(x * x + y * y) + 1, s))


def _abs_rounded(v, rnd: str) -> mpf:
    """|v| rounded to the ambient precision in the direction rnd; exact for a real v."""
    if isinstance(v, mpc):
        return mp.make_mpf(mpc_abs(v._mpc_, mp.prec, rnd))
    return abs(v)


def _pad(value) -> mpf:
    # a few ulp at the ambient precision; mpmath rounds to 1/2 ulp per op
    return mp.ldexp(_abs_upper(value), 4 - mp.prec)


# relative slack on every closed-form tail, covering its own rounding
_TAIL_SLACK = 1 + mpf(2) ** -30


class CertValue:
    """Value with a rigorous error radius.  Immutable by convention."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = value if isinstance(value, (mpf, mpc)) else mp.mpmathify(value)
        self.err = mpf(err)
        if self.err < 0:
            raise ValueError("negative error radius")

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

    def __repr__(self):
        return f"CertValue({self.value}, err={self.err})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        v = self.value + other.value
        return CertValue(v, self.err + other.err + _pad(v))

    __radd__ = __add__

    def __neg__(self):
        return CertValue(-self.value, self.err)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        v = self.value * other.value
        e = (_abs_upper(self.value) * other.err + _abs_upper(other.value) * self.err
             + self.err * other.err + _pad(v))
        return CertValue(v, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        # the radius falls as |divisor| grows, so it takes a lower bound b of it
        b, f = _abs_upper(other.value), other.err
        b = mp.fsub(b, mp.ldexp(b, -57), rounding="d")
        if f >= b:
            raise ZeroDivisionError("divisor interval contains zero")
        v = self.value / other.value
        e = (_abs_upper(self.value) * f + b * self.err) / (b * (b - f)) + _pad(v)
        return CertValue(v, e)

    def pow_int(self, n: int) -> "CertValue":
        """v^n rounded once, radius n e (|v| + e)^(n-1) rounded upward plus pads.

        |v| is taken from above by _abs_upper.  mpmath forms
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
        base = mp.fadd(_abs_upper(v), e, rounding="u")
        power = mp.make_mpf(mpf_pow_int(base._mpf_, n - 1, mp.prec, "u"))
        spread = mp.fmul(mp.fmul(n, e, rounding="u"), power, rounding="u")
        rounding = _pad(value)
        if isinstance(v, mpc) and n > 2 and v.real and v.imag:
            rounding *= 1 + mpf(n * (abs(mp.mag(v)) + 5)) / 2048
        return CertValue(value, spread + rounding)

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
        """The same value with extra added to the radius, rounded upward."""
        return CertValue(self.value, mp.fadd(self.err, extra, rounding="u"))

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


def _coerce(x) -> CertValue:
    if isinstance(x, CertValue):
        return x
    return CertValue.exact(x)


# ---------------------------------------------------------------------------
# exact conversions and the fixed-point Horner kernel


def _man_exp(x: mpf) -> tuple:
    """(man, exp) with x = man 2^exp exactly; mpf.man_exp drops the sign."""
    sign, man, exp, bc = x._mpf_
    if not man and bc:
        raise ValueError(f"non-finite value {x}")
    return (-int(man) if sign else int(man)), exp


def _exact(x: mpf) -> Fraction:
    """The binary value of an mpf as a signed Fraction, without rounding."""
    man, exp = _man_exp(x)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _fixed(x: mpf, p: int) -> int:
    """floor(x 2^p)."""
    man, exp = _man_exp(x)
    return man << (exp + p) if exp + p >= 0 else man >> -(exp + p)


def _from_fixed(n: int, p: int, rnd: str = "n") -> mpf:
    """n 2^-p rounded to the working precision in the direction rnd."""
    return mp.make_mpf(from_man_exp(n, -p, mp.prec, rnd))


def eval_poly(coeffs, z, radius=0) -> CertValue:
    """Enclosure of sum_i coeffs[i] w^i for every w with |w - z| <= radius.

    The coefficients are exact ints or Fractions, z is real or complex.
    Horner runs on Python ints at the scale 2^-P, P = working precision
    + 24, on Z = floor(z 2^P) 2^-P, so |z - Z| < 2^(1/2 - P).  Each step
    floors both parts of the product and the coefficient, less than 3
    units, so every accumulator A_i is within E = 3 sum_(i<n) R^i units
    of its exact value at Z, R >= |Z|.  Any w is within delta = radius +
    2^(2-P) of Z, and the Horner recursion for the difference gives
    |p(w) - p(Z)| <= delta sum_(i>=1) (|A_i| + E) R^(i-1) for R >= |Z| +
    delta, summed alongside in integers rounding up.  One pad covers the
    rounding of the result to an mpf or mpc.
    """
    z = mp.mpmathify(z)
    p = mp.prec + 24
    one = 1 << p
    x, y = (_fixed(z.real, p), _fixed(z.imag, p)) if isinstance(z, mpc) else (_fixed(z, p), 0)
    delta = -_fixed(-mpf(radius), p) + 4
    big_r = isqrt(x * x + y * y) + 1 + delta
    a = b = slope = 0
    for c in reversed(coeffs):
        # slope += |A| rounded up (|A| <= max + min/2 for the two parts)
        hi, lo = abs(a), abs(b)
        slope = -(-slope * big_r >> p) + max(hi, lo) + (min(hi, lo) >> 1) + 1
        if y:
            a, b = (a * x - b * y) >> p, (a * y + b * x) >> p
        else:
            a = (a * x) >> p
        if c:
            a += c << p if isinstance(c, int) else (c.numerator << p) // c.denominator
    # in units of 2^-P: rsum >= sum_(i<n) R^i, the rounding error is 3 rsum
    n = len(coeffs)
    if big_r <= one:
        rsum = n
    else:
        rsum = 0
        for _ in range(n):
            rsum = -(-rsum * big_r >> p) + one
        rsum = -(-rsum >> p)
    rounding = 3 * rsum
    units = rounding - (-delta * (slope + rounding * rsum) >> p)
    if isinstance(z, mpc):
        value = mpc(_from_fixed(a, p), _from_fixed(b, p))
    else:
        value = _from_fixed(a, p)
    return CertValue(value, _from_fixed(units, p, "u") + _pad(value))


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
class JCoeffTail:
    def bound(self, trunc: int, r: mpf, y: mpf) -> mpf:
        return j_tail_bound(trunc, y)


@dataclass(frozen=True)
class EtaProductTail:
    def bound(self, trunc: int, r: mpf, y: mpf) -> mpf:
        if r >= 1:
            raise TailUnboundedError("eta tail needs |q| < 1")
        return 2 * r ** (trunc + 1) / (1 - r) * _TAIL_SLACK


@dataclass(frozen=True)
class GeometricTail:
    C: float
    rho: float

    def bound(self, trunc: int, r: mpf, y: mpf) -> mpf:
        x = mpf(self.rho) * r
        if x >= 1:
            raise TailUnboundedError(f"geometric ratio {x} >= 1")
        return mpf(self.C) * x ** (trunc + 1) / (1 - x) * _TAIL_SLACK


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
    lead = mp.exp(expo) / (2 * mp.sqrt(2) * mp.pi * mp.sqrt(mp.sqrt(mpf(M + 1) ** 3)))
    geo = root / (a * root - 1)
    return lead * geo * _TAIL_SLACK


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


def form_arc_prec(ell: int, m: int, floor: int = DEFAULT_PREC) -> int:
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
    return max(floor, 64 + 3 * ell + 10 * m)


class _QPoint:
    """One evaluation point: q = e^(2 pi i tau), its pad, r = |q| and y = Im tau.

    drift bounds |q' - q| over every q' the point stands for; it widens the
    pad, and r to the largest |q'|.  y stays the height of tau, so off a
    horizontal segment a drifted point serves only tails that read r.
    """

    __slots__ = ("q", "pad", "r", "y")

    def __init__(self, tau, drift=0):
        tau = mp.mpmathify(tau)
        self.y = _require_height(tau)
        self.q = mp.exp(2j * mp.pi * tau)
        r = abs(self.q)
        self.r = mp.fadd(r, drift, rounding="u")
        self.pad = mp.fadd(mp.ldexp(r, 4 - mp.prec), drift, rounding="u")


def _drift(y, h) -> mpf:
    """2 pi e^(-2 pi y) h rounded upward: q moves that far as tau moves h above height y."""
    slope = 2 * mp.pi * mp.exp(-2 * mp.pi * y)
    return mp.fmul(slope + mp.ldexp(slope, 8 - mp.prec), h, rounding="u")


def _span(lo, hi) -> tuple:
    """(midpoint, half-width rounded upward) of [lo, hi]; (lo, 0) when lo = hi."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    mid = (lo + hi) / 2
    return mid, max(mp.fsub(hi, mid, rounding="u"), mp.fsub(mid, lo, rounding="u"))


def _series_at(s: QSeries, pt: _QPoint, tail) -> CertValue:
    acc = eval_poly(s.coeffs, pt.q, pt.pad)
    if s.lead:
        qc = CertValue(pt.q, pt.pad).pow_int(abs(s.lead))
        acc = acc * qc if s.lead > 0 else acc / qc
    return acc.widened(tail.bound(s.trunc, pt.r, pt.y))


def _delta_at(pt: _QPoint, terms: int) -> CertValue:
    p = eval_poly(qseries._pentagonal_euler_product(terms).coeffs, pt.q, pt.pad)
    p = p.widened(EtaProductTail().bound(terms, pt.r, pt.y))
    return p.pow_int(24) * CertValue(pt.q, pt.pad)


def eval_series(s: QSeries, tau, tail, prec: int = DEFAULT_PREC) -> CertValue:
    """Certified value of a truncated q-expansion plus its tail bound.

    tau is a point, or a horizontal segment (a, b), Re a <= Re b.  The
    partial sum is one eval_poly call on the disk of q, so its error is
    the kernel's a-priori bound; the q^lead factor, when present, is one
    CertValue power and product or quotient.  tail is one of the *Tail
    dataclasses above and must genuinely cover the dropped coefficients.
    """
    with workprec(prec + _GUARD):
        a, b = (mp.mpmathify(t) for t in (tau if isinstance(tau, tuple) else (tau, tau)))
        if mp.im(a) != mp.im(b):
            raise ValueError(f"segment [{a}, {b}] not horizontal")
        x, h = _span(mp.re(a), mp.re(b))
        return _series_at(s, _QPoint(mpc(x, mp.im(a)), _drift(mp.im(a), h) if h else 0), tail)


def eval_delta_eta(tau, prec: int = DEFAULT_PREC) -> CertValue:
    """Delta(tau) = q P^24 through the eta product P = prod (1 - q^n).

    P's partial sum to q^terms is the dense 0/+-1 pentagonal coefficient
    list through eval_poly, so its error is the kernel's a-priori bound
    plus the pentagonal tail 2 r^(terms+1) / (1 - r).
    """
    with workprec(prec + _GUARD):
        pt = _QPoint(tau)
        return _delta_at(pt, auto_trunc(pt.y, prec))


# ---------------------------------------------------------------------------
# the boundary arc


@dataclass
class ArcValues:
    """The four real-valued arc functions at a common angle, or on an angle interval.

    e2 = e^(i theta) E_2 + 3/(i pi)   (the modified weight-2 function),
    e4, e6 = e^(i k theta / 2) E_k, and delta_arc = e^(6 i theta) Delta.
    theta is the angle, or the midpoint of the interval.
    """

    theta: float
    e2: CertValue
    e4: CertValue
    e6: CertValue
    delta_arc: CertValue


def _theta_mpf(p) -> mpf:
    t = mpf(p)
    lo, hi = mp.pi / 2, 2 * mp.pi / 3
    if not lo - mpf(1e-9) <= t <= hi + mpf(1e-9):
        raise ValueError(f"theta = {t} outside [pi/2, 2pi/3]")
    return min(max(t, lo), hi)


def _phase(theta: mpf, k: int, h=0) -> CertValue:
    """e^(i k theta / 2), from an exactly formed argument, on [theta - h, theta + h].

    Its derivative in theta has modulus k/2, so the radius grows by k h / 2.
    """
    v = mp.expj(mp.ldexp(mp.fmul(theta, k, exact=True), -1))
    return CertValue(v, _pad(v)).widened(mp.ldexp(mp.fmul(k, h, rounding="u"), -1))


def arc_functions(p, prec: int = DEFAULT_PREC) -> ArcValues:
    """Certified values of e2, e4, e6, delta_arc at an arc angle or on an arc interval.

    p is an angle or a pair (lo, hi) with pi/2 <= lo <= hi <= 2pi/3; for a
    pair each enclosure holds at every theta in [lo, hi], and the pair
    (theta, theta) gives the point result bit for bit.  Each is provably
    real; NotRealError if an imaginary part survives outside the
    propagated radius.
    """
    with workprec(prec + _GUARD):
        lo, hi = (_theta_mpf(t) for t in (p if isinstance(p, tuple) else (p, p)))
        theta, h = _span(lo, hi)
        tau = _phase(theta, 2, h)
        # |dtau/dtheta| = 1 and Im tau >= sin hi on the interval, as sin falls on the arc
        pt = _QPoint(tau.value, _drift(mp.sin(hi), h) if h else 0)
        n = auto_trunc(pt.y, prec)
        e2, e4, e6 = (_series_at(qseries.eisenstein(k, n), pt, EisensteinTail(k))
                      for k in (2, 4, 6))
        d = _delta_at(pt, n)
        e2 = (tau * e2 + CertValue(mpc(0, -3) / mp.pi, _pad(mpf(1)))).as_real()
        e4, e6, da = ((_phase(theta, k, h) * v).as_real()
                      for k, v in ((4, e4), (6, e6), (12, d)))
        return ArcValues(float(theta), e2, e4, e6, da)


def arc_form(form, p, prec: int = DEFAULT_PREC, trunc_scale: int = 1) -> CertValue:
    """The real function e^(i k theta / 2) g_{k,m}(e^(i theta)) on the arc.

    With E_k' = E_4^a E_6^b (EISENSTEIN_FACTORS) it is delta^ell e4^a e6^b
    F(j), where e4 = e^(2 i theta) E_4 and e6 = e^(3 i theta) E_6 are real,
    delta = (e4^3 - e6^2) / 1728 is delta_arc and j = e4^3 / delta.  So
    every step after the two phase products is real, and F(j) is one real
    eval_poly.  The two series are cut at trunc_scale times auto_trunc.
    """
    fid = form.id
    a, b = qseries.EISENSTEIN_FACTORS[fid.kprime]
    with workprec(prec + _GUARD):
        theta = _theta_mpf(p)
        pt = _QPoint(mp.expj(theta))
        n = auto_trunc(pt.y, prec) * trunc_scale
        e4, e6 = ((_phase(theta, k) * _series_at(qseries.eisenstein(k, n), pt,
                                                 EisensteinTail(k))).as_real()
                  for k in (4, 6))
        cube = e4.pow_int(3)
        delta = (cube - e6.pow_int(2)) / 1728
        j = cube / delta
        return (delta.pow_int(fid.ell) * e4.pow_int(a) * e6.pow_int(b)
                * eval_poly(form.faber.coeffs, j.value, j.err))


def arc_j(p, prec: int = DEFAULT_PREC) -> CertValue:
    """j(e^(i theta)) from its q-series with the JCoeffTail bound; real, 0 at rho.

    The truncation reaches past 1/sin^2 theta, where the tail estimate
    starts to hold.
    """
    with workprec(prec + _GUARD):
        pt = _QPoint(mp.expj(_theta_mpf(p)))
        n = max(auto_trunc(pt.y, prec), int(1 / float(pt.y) ** 2) + 8)
        return _series_at(qseries.jfunction(n), pt, JCoeffTail()).as_real()


# ---------------------------------------------------------------------------
# lemniscate constants


@dataclass
class LemniscateConstants:
    varpi: CertValue        # 2 * integral_0^1 dx / sqrt(1 - x^4)
    varpi_prime: CertValue  # 2 * integral_0^1 dx / sqrt(1 - x^6)


def lemniscate_constants(prec: int = DEFAULT_PREC) -> LemniscateConstants:
    """Both arclength integrals in closed form, padded like other values.

    varpi = pi / agm(1, sqrt 2) and varpi' = Gamma(1/6) Gamma(1/2) /
    (3 Gamma(2/3)); the values are independently pinned by tests against
    Delta(i) and E_6(rho) evaluations.
    """
    with workprec(prec + 64):
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
    below rho); the last lies above rho, and the arc functions clamp it."""
    with workprec(64):
        lo, hi = float(mp.pi / 2), float(2 * mp.pi / 3)
    n = int((hi - lo) / step)
    pts = [lo + i * step for i in range(n + 1)]
    if pts[-1] < hi:
        pts.append(hi)
    return pts


def export_arc_csv(name: str, outfile, step: float = 1e-3,
                   prec: int = DEFAULT_PREC) -> int:
    """Write theta,value,err rows for one arc function; returns the row count."""
    if name not in ARC_FUNCTION_NAMES:
        raise ValueError(f"unknown arc function {name!r}")
    writer = csv.writer(outfile)
    writer.writerow(["theta", "value", "err"])
    rows = 0
    for theta in arc_grid(step):
        av = arc_functions(theta, prec=prec)
        cv = getattr(av, name)
        writer.writerow([repr(theta), repr(float(cv.value)), repr(float(cv.err))])
        rows += 1
    return rows
