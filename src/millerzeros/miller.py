"""The Miller basis g_{k,m} and its Faber polynomials, one form at a time.

Write k = 12 ell + k', E_k' = E_4^a E_6^b, qd = Delta / q, t = 1 / j and
D = ell - m.  Then g = Delta^ell E_k' F(j) = q^m qd^m E_4^(3D+a) E_6^b
t^D F(1/t), so g = q^m + O(q^(ell+1)) holds exactly when t^D F(1/t) =
V := 1 / (qd^m E_4^(3D+a) E_6^b) mod t^(D+1): F's coefficients, from the
top down, are the first D + 1 coefficients of V as a power series in t
(Duke-Jenkins, PAMQ 4, 2008).

V is built in t directly.  Kaneko-Zagier (1998) give E_4 = A^2 and
E_6 = A^3 / B with the integral hypergeometric series
A(t) = sum (6n)! / ((3n)! n!^3) t^n and
B(t) = (1 - 1728 t)^(-1/2) = sum C(2n, n) 432^n t^n.
From qd = E_4^3 t / q and k / 2 = 6 ell + 2a + 3b,
V = (q/t)^m A^(-k/2) B^b.  Since q d/dq t = t E_6 / E_4 = t A / B,
t (q/t)' / (q/t) = B / A - 1, and t B' / B = 864 t B^2, so t A V' = w V
with w = m (B - A) - (k/2) t A' + 864 b t A B^2: V is one qseries._ode,
O(n^2) integer work, and so is q/t (w = B - A).  Every division of the
recurrences is exact; one that leaves a remainder raises
NonIntegralFaberError.  The basis steps V_(m+1) = V_m (q/t).

The q-expansion past q^ell is exact too.  With L = trunc - ell, the
W = sum_r V[D+1+r] t(q)^r mod q^L left after F gives the tail
g = q^m - q^(ell+1) W qd^(ell+1) E_k' / E_4^3, t(q) = q qd / E_4^3.
The table of t(q)^r costs O(L^3) and depends only on L, so it is
cached: nil at the default L = DEFAULT_MARGIN + 1, the dominant cost
when a large trunc is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .qseries import (EISENSTEIN_FACTORS, FormId, NonIntegralFaberError, QSeries, _exact_div,
                      _monomial, _mul, _ode)


class NotInSpaceError(ValueError):
    """Series is not the q-expansion of a form of the stated weight."""


DEFAULT_MARGIN = 8


@dataclass(frozen=True)
class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    coeffs[i] is the coefficient of x^i; the leading entry is nonzero
    unless the polynomial is zero (then coeffs == (0,)).
    """

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "IntPolynomial":
        out = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise NonIntegralFaberError(f"non-integral coefficient {c}")
                c = c.numerator
            elif not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {type(c)!r}")
            out.append(c)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return IntPolynomial(tuple(out))

    @property
    def degree(self) -> int:
        if len(self.coeffs) == 1 and self.coeffs[0] == 0:
            return -1
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        if self.degree <= 0:
            return IntPolynomial((0,))
        return IntPolynomial.make(
            [i * c for i, c in enumerate(self.coeffs)][1:])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return IntPolynomial.make(a)

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return IntPolynomial((0,))
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        # _mul keeps len(a) terms, so both factors are padded to the product's length
        a, b = self.coeffs, other.coeffs
        n = len(a) + len(b) - 1
        return IntPolynomial.make(_mul(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))

    __rmul__ = __mul__

    def scaled_at(self, a: int, b: int = 1) -> int:
        """The integer b^d p(a / b) = sum c_i a^i b^(d - i) by one Horner
        loop, where b^j's odd part multiplies and its power of two shifts;
        a power of two b only shifts.  A Fraction x passes its numerator
        and denominator."""
        e = (b & -b).bit_length() - 1
        acc, scale, shift = 0, 1, 0
        if b == 1 << e:
            for c in reversed(self.coeffs):
                acc = acc * a + (c << shift)
                shift += e
            return acc
        for c in reversed(self.coeffs):
            acc = acc * a + (c * scale << shift)
            scale *= b >> e
            shift += e
        return acc

    def sign_at(self, a: int, b: int = 1) -> int:
        """Exact sign of p(a / b), b > 0: the sign of scaled_at(a, b)."""
        acc = self.scaled_at(a, b)
        return (acc > 0) - (acc < 0)

    def affine(self, lo, hi) -> "IntPolynomial":
        """Q(t) = D^d p(lo + (hi - lo) t), integral for rational lo and hi.

        D is the lcm of their denominators, so with A = lo D and
        B = (hi - lo) D, Q(t) = D^d p((A + B t) / D): Horner in the linear
        polynomial A + B t.  D^d > 0, so Q(t) has the sign of p at
        lo + (hi - lo) t for every t.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        den = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (den // lo.denominator)
        b = hi.numerator * (den // hi.denominator) - a
        q, scale = [], 1
        for c in reversed(self.coeffs):
            nxt = [a * x for x in q] + [0]
            for j, x in enumerate(q):
                nxt[j + 1] += b * x
            nxt[0] += c * scale
            q, scale = nxt, scale * den
        return IntPolynomial.make(q)

    def primitive(self) -> "IntPolynomial":
        """Divide by the positive content; the signs of all values are kept."""
        g = gcd(*self.coeffs)
        return self if g <= 1 else IntPolynomial(tuple(c // g for c in self.coeffs))

    def rem(self, other: "IntPolynomial") -> "IntPolynomial":
        """Primitive part of a positive multiple of the remainder self mod other.

        Each elimination step scales by |lc(other)| / g, never by a
        negative number, so the result has the signs of the rational
        remainder everywhere: one step of a primitive remainder sequence
        (Collins 1967), whose last nonzero term is the gcd.
        """
        b = other.coeffs
        lb, n = b[-1], len(b)
        if lb == 0:
            raise ZeroDivisionError("polynomial remainder by zero")
        r = list(self.coeffs)
        for shift in range(len(r) - n, -1, -1):
            lead = r[shift + n - 1]
            g = gcd(lead, lb)
            u, f = abs(lb) // g, lead // g if lb > 0 else -lead // g
            r = [u * c for c in r]
            for i, bc in enumerate(b):
                r[shift + i] -= f * bc
        return IntPolynomial.make(r[:n - 1] or [0]).primitive()

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """The quotient self / other, integral when other is primitive and
        divides self (Gauss's lemma); ArithmeticError if it does not divide.
        """
        b = other.coeffs
        lb, n = b[-1], len(b)
        r = list(self.coeffs)
        q = [0] * max(1, len(r) - n + 1)
        for shift in range(len(r) - n, -1, -1):
            c, rest = divmod(r[shift + n - 1], lb)
            if rest:
                raise ArithmeticError("quotient is not integral")
            q[shift] = c
            for i, bc in enumerate(b):
                r[shift + i] -= c * bc
        if any(r):
            raise ArithmeticError("division leaves a remainder")
        return IntPolynomial.make(q)

    def as_text(self, var: str = "t") -> str:
        if self.degree < 0:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = f"{abs(c)}"
            else:
                xi = var if i == 1 else f"{var}^{i}"
                body = xi if abs(c) == 1 else f"{abs(c)}*{xi}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class MillerForm:
    """Echelon basis element g_{k,m} together with its Faber polynomial."""

    id: FormId
    series: QSeries
    faber: IntPolynomial

    def check(self) -> None:
        fid = self.id
        if self.series.coeff(fid.m) != 1:
            raise NotInSpaceError("leading coefficient is not 1")
        for n in range(fid.m + 1, min(fid.ell, self.series.trunc) + 1):
            if self.series.coeff(n) != 0:
                raise NotInSpaceError(f"coefficient at q^{n} did not cancel")
        if self.faber.degree != fid.ell - fid.m:
            raise NotInSpaceError("Faber degree mismatch")
        if not self.faber.is_monic():
            raise NotInSpaceError("Faber polynomial is not monic")


def default_trunc(ell: int) -> int:
    return ell + 1 + DEFAULT_MARGIN


def _t_series(n: int) -> tuple:
    """A and B as series in t = 1/j, to n coefficients each.

    A_i = A_(i-1) 24 (6i-1)(2i-1)(6i-5) / i^3 and B_i = B_(i-1) 864 (2i-1) / i
    are the term ratios of (6i)! / ((3i)! i!^3) and C(2i, i) 432^i.
    """
    a, b = [1], [1]
    for i in range(1, n):
        a.append(_exact_div(a[-1] * 24 * (6 * i - 1) * (2 * i - 1) * (6 * i - 5), i ** 3))
        b.append(_exact_div(b[-1] * 864 * (2 * i - 1), i))
    return a, b


def _t_start(fid: FormId, n: int) -> list:
    """V = (q/t)^m A^(-k/2) B^b to n coefficients t^0.., the _ode with w of
    the module docstring; (A B^2)_r = A_r + 1728 (A B^2)_(r-1)."""
    a, b = _t_series(n)
    c, w, ab2 = 864 * EISENSTEIN_FACTORS[fid.kprime][1], [], 0
    for r in range(n):
        w.append(fid.m * (b[r] - a[r]) - fid.k // 2 * r * a[r] + c * ab2)
        ab2 = a[r] + 1728 * ab2
    return _ode(a, w, 1)


@lru_cache(maxsize=8)
def _t_powers(n: int) -> tuple:
    """u^r to n - r coefficients for r < n, where t(q) = q u, u = qd / E_4^3."""
    u = _monomial(n, 1, -3, 0)
    out, p = [], [1] + [0] * (n - 1)
    for r in range(n):
        out.append(tuple(p[:n - r]))
        p = _mul(p[:n - r - 1], u)
    return tuple(out)


def _assemble(fid: FormId, trunc: int, v: list, tail_factor: list) -> MillerForm:
    """g_{k,m} from V = _t_start(fid, trunc - m + 1); tail_factor is
    qd^(ell+1) E_4^(a-3) E_6^b to trunc - ell coefficients."""
    d = fid.ell - fid.m
    rest, powers = v[d + 1:], _t_powers(len(tail_factor))
    w = [sum(rest[r] * powers[r][i - r] for r in range(i + 1)) for i in range(len(rest))]
    tail = [-c for c in _mul(w, tail_factor)]
    series = QSeries._make(fid.m, [1] + [0] * d + tail, trunc)
    form = MillerForm(fid, series, IntPolynomial.make(v[d::-1]))
    form.check()
    return form


def _tail_factor(fid: FormId, trunc: int) -> list:
    a, b = EISENSTEIN_FACTORS[fid.kprime]
    return _monomial(trunc - fid.ell, fid.ell + 1, a - 3, b)


def _checked_trunc(ell: int, trunc: int | None) -> int:
    if trunc is None:
        return default_trunc(ell)
    if trunc < ell + 1:
        raise ValueError(f"trunc must reach ell+1 = {ell + 1}")
    return trunc


@lru_cache(maxsize=32)
def _basis(k: int, trunc: int) -> tuple:
    fid = FormId.from_k(k, 0)
    if fid.ell == 0:
        return ()
    a, b = _t_series(trunc)
    q_t = _ode(a, [y - x for x, y in zip(a, b)], 1)
    tail_factor = _tail_factor(fid, trunc)
    v = _t_start(fid, trunc + 1)
    forms = []
    for m in range(1, fid.ell + 1):
        v = _mul(v[:-1], q_t)
        forms.append(_assemble(FormId.from_k(k, m), trunc, v, tail_factor))
    return tuple(forms)


def miller_basis(k: int, trunc: int | None = None) -> tuple:
    """The reduced basis (g_{k,1}, ..., g_{k,ell}) of the cusp space.

    The tail factor and V for m = 0 are built once; V for m + 1 is
    V (q/t).  trunc is resolved before the cache, so None and the
    default truncation share one entry.
    """
    return _basis(k, _checked_trunc(FormId.from_k(k, 0).ell, trunc))


# miller_basis reports the hits and misses of the cache behind it
# (perfbench/tracer.py reads them)
miller_basis.cache_info = _basis.cache_info


def miller_form(k: int, m: int, trunc: int | None = None) -> MillerForm:
    """g_{k,m} = q^m + O(q^(ell+1)) with its monic integer Faber polynomial;
    m = 0 gives the gap form g_{k,0} = 1 + O(q^(ell+1)) of M_k."""
    fid = FormId.from_k(k, m)
    trunc = _checked_trunc(fid.ell, trunc)
    return _assemble(fid, trunc, _t_start(fid, trunc - m + 1), _tail_factor(fid, trunc))


def faber_json(form: MillerForm) -> str:
    """Wire format: weight, index, and coefficients from the leading term down."""
    fid = form.id
    return json.dumps({"k": fid.k, "m": fid.m,
                       "coeffs": [str(c) for c in reversed(form.faber.coeffs)]})
