"""Exact truncated q-expansion arithmetic for level-one modular forms.

A series is stored as sum_{n=lead}^{trunc} a_n q^n with exact rational
coefficients (Python ints, or Fraction where a denominator is genuinely
needed).  Negative leads are allowed so that 1/Delta and the j-function
fit in the same type.  Every operation computes the truncation order to
which the result is actually provable and never reports coefficients
beyond it.

Generators provided here: Eisenstein series E_k (exact Bernoulli
constants), Delta as an eta product via the pentagonal number theorem,
and j = E_4^3 / Delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb


class ZeroLeadingError(ArithmeticError):
    """Reciprocal requested for a series whose leading coefficient vanishes."""


class UnsupportedWeightError(ValueError):
    """Eisenstein weight outside {0} and the even integers >= 2."""


def _norm_coeff(c):
    # collapse Fraction with unit denominator to int; keeps arithmetic fast
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficients must be exact rationals, got {type(c)!r}")


@dataclass(frozen=True)
class QSeries:
    """Truncated Laurent q-series with exact rational coefficients.

    coeffs[i] is the coefficient of q^(lead + i); there are exactly
    trunc - lead + 1 entries.  The entry at lead is nonzero unless the
    series is identically zero up to truncation (then lead == trunc and
    the single stored coefficient is 0).
    """

    lead: int
    coeffs: tuple
    trunc: int

    def __post_init__(self):
        if len(self.coeffs) != self.trunc - self.lead + 1:
            raise ValueError("coefficient count does not match lead/trunc")

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(lead: int, coeffs: list, trunc: int) -> "QSeries":
        """Normalise and build: strip leading zeros, canonicalise rationals."""
        coeffs = [_norm_coeff(c) for c in coeffs]
        i = 0
        while i < len(coeffs) - 1 and coeffs[i] == 0:
            i += 1
        if i:
            lead += i
            coeffs = coeffs[i:]
        if len(coeffs) == 1 and coeffs[0] == 0:
            lead = trunc
        return QSeries(lead, tuple(coeffs), trunc)

    @classmethod
    def from_coeffs(cls, lead: int, coeffs, trunc: int | None = None) -> "QSeries":
        coeffs = list(coeffs)
        if trunc is None:
            trunc = lead + len(coeffs) - 1
        return cls._make(lead, coeffs, trunc)

    @classmethod
    def zero(cls, trunc: int) -> "QSeries":
        return cls(trunc, (0,), trunc)

    @classmethod
    def one(cls, trunc: int) -> "QSeries":
        return cls._make(0, [1] + [0] * trunc, trunc)

    @classmethod
    def monomial(cls, n: int, trunc: int, c=1) -> "QSeries":
        if n > trunc:
            raise ValueError("monomial beyond truncation")
        return cls._make(n, [c] + [0] * (trunc - n), trunc)

    # -- queries -----------------------------------------------------------

    def coeff(self, n: int):
        """Coefficient of q^n; raises if n is beyond the provable truncation."""
        if n > self.trunc:
            raise ValueError(f"coefficient q^{n} beyond truncation {self.trunc}")
        if n < self.lead:
            return 0
        return self.coeffs[n - self.lead]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def order(self) -> int:
        """Order of vanishing at q = 0 (lead of the first nonzero term)."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return self.lead + i
        return self.trunc + 1          # zero to truncation

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries._make(0, [other] + [0] * self.trunc, self.trunc)
        trunc = min(self.trunc, other.trunc)
        lead = min(self.lead, other.lead)
        out = [0] * (trunc - lead + 1)
        for i, c in enumerate(self.coeffs):
            n = self.lead + i
            if n > trunc:
                break
            out[n - lead] = c
        for i, c in enumerate(other.coeffs):
            n = other.lead + i
            if n > trunc:
                break
            out[n - lead] += c
        return QSeries._make(lead, out, trunc)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.lead, tuple(-c for c in self.coeffs), self.trunc)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "QSeries":
        if c == 0:
            return QSeries.zero(self.trunc)
        return QSeries._make(self.lead, [c * a for a in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        # Cauchy product; provable truncation is limited by the partner's lead
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        lead = self.lead + other.lead
        out = [0] * (trunc - lead + 1)
        blead, bco = other.lead, other.coeffs
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            base = self.lead + i + blead
            jmax = min(len(bco), trunc - base + 1)
            if jmax <= 0:
                break
            for j in range(jmax):
                b = bco[j]
                if b:
                    out[base + j - lead] += a * b
        return QSeries._make(lead, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers")
        if e == 0:
            return QSeries.one(self.trunc)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def recip(self) -> "QSeries":
        """Multiplicative inverse.  Needs a nonzero coefficient at lead."""
        u0 = self.coeffs[0]
        if u0 == 0:
            raise ZeroLeadingError("leading coefficient is zero")
        n_terms = self.trunc - self.lead          # inverse provable to this depth
        unit = isinstance(u0, int) and u0 in (1, -1)
        out = [u0 if unit else Fraction(1) / Fraction(u0)]
        for n in range(1, n_terms + 1):
            s = 0
            for j in range(1, min(n, len(self.coeffs) - 1) + 1):
                c = self.coeffs[j]
                if c:
                    s += c * out[n - j]
            out.append(-s * u0 if unit else Fraction(-s) / Fraction(u0))
        lead = -self.lead
        return QSeries._make(lead, out, lead + n_terms)

    def differentiate(self) -> "QSeries":
        """The operator q d/dq (coefficientwise multiplication by n)."""
        out = [(self.lead + i) * c for i, c in enumerate(self.coeffs)]
        return QSeries._make(self.lead, out, self.trunc)

    def shift(self, d: int) -> "QSeries":
        """Multiply by q^d exactly."""
        return QSeries(self.lead + d, self.coeffs, self.trunc + d)

    def truncate(self, new_trunc: int) -> "QSeries":
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a truncated series")
        if new_trunc < self.lead:
            return QSeries.zero(new_trunc)
        return QSeries._make(self.lead, list(self.coeffs[: new_trunc - self.lead + 1]), new_trunc)

    # -- io ----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "lead": self.lead,
            "trunc": self.trunc,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        coeffs = [Fraction(s) for s in d["coeffs"]]
        return cls._make(int(d["lead"]), coeffs, int(d["trunc"]))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            n = self.lead + i
            if n == 0:
                terms.append(f"{c}")
            else:
                mag = c
                body = "q" if n == 1 else f"q^{n}"
                if mag == 1:
                    terms.append(body)
                elif mag == -1:
                    terms.append(f"-{body}")
                else:
                    terms.append(f"{mag}*{body}")
        if not terms:
            return f"0 + O(q^{self.trunc + 1})"
        s = " + ".join(terms).replace("+ -", "- ")
        return f"{s} + O(q^{self.trunc + 1})"


# ---------------------------------------------------------------------------
# generators


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n via the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


def _divisor_power_sums(power: int, nmax: int) -> list:
    """sigma_power(n) for 1 <= n <= nmax by a divisor sieve; index 0 unused."""
    s = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        dp = d ** power
        for mult in range(d, nmax + 1, d):
            s[mult] += dp
    return s


@lru_cache(maxsize=None)
def eisenstein(k: int, trunc: int) -> QSeries:
    """E_k = 1 - (2k/B_k) sum_{n>=1} sigma_{k-1}(n) q^n, exact to trunc.

    k = 0 returns the constant series 1.  Weight 2 is allowed (the
    quasimodular E_2); odd or negative weights raise UnsupportedWeightError.
    """
    if k == 0:
        return QSeries.one(trunc)
    if k < 2 or k % 2 != 0:
        raise UnsupportedWeightError(f"no Eisenstein series of weight {k}")
    gamma = Fraction(2 * k) / bernoulli(k)
    sig = _divisor_power_sums(k - 1, trunc)
    coeffs = [Fraction(1)] + [-gamma * sig[n] for n in range(1, trunc + 1)]
    return QSeries._make(0, coeffs, trunc)


@lru_cache(maxsize=None)
def _pentagonal_euler_product(trunc: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) as a sparse signed sum over pentagonal numbers."""
    coeffs = [0] * (trunc + 1)
    coeffs[0] = 1
    g = 1
    while True:
        e1 = g * (3 * g - 1) // 2
        e2 = g * (3 * g + 1) // 2
        if e1 > trunc and e2 > trunc:
            break
        sign = -1 if g % 2 else 1
        if e1 <= trunc:
            coeffs[e1] += sign
        if e2 <= trunc:
            coeffs[e2] += sign
        g += 1
    return QSeries._make(0, coeffs, trunc)


@lru_cache(maxsize=None)
def delta(trunc: int) -> QSeries:
    """The discriminant cusp form q prod (1-q^n)^24, exact to trunc."""
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    return (_pentagonal_euler_product(trunc - 1) ** 24).shift(1)


@lru_cache(maxsize=None)
def jfunction(trunc: int) -> QSeries:
    """The modular j-function E_4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    e4 = eisenstein(4, trunc + 1)
    return (e4 * e4 * e4) * delta(trunc + 2).recip()


def ramanujan_residuals(trunc: int) -> tuple:
    """Residual series of the three classical derivative identities.

    Returns (q dE2/dq - (E2^2 - E4)/12,
             q dE4/dq - (E2 E4 - E6)/3,
             q dDelta/dq - E2 Delta), each of which must vanish identically.
    """
    e2 = eisenstein(2, trunc)
    e4 = eisenstein(4, trunc)
    e6 = eisenstein(6, trunc)
    dl = delta(trunc)
    r1 = e2.differentiate() - (e2 * e2 - e4) * Fraction(1, 12)
    r2 = e4.differentiate() - (e2 * e4 - e6) * Fraction(1, 3)
    r3 = dl.differentiate() - e2 * dl
    return r1, r2, r3


# ---------------------------------------------------------------------------
# weight bookkeeping

# E_{k'} = E_4^a E_6^b for each extra weight k', as k' -> (a, b)
EISENSTEIN_FACTORS = {0: (0, 0), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1), 14: (2, 1)}
EXTRA_WEIGHTS = tuple(EISENSTEIN_FACTORS)


@dataclass(frozen=True)
class FormId:
    """Weight/index labels for a cusp form of weight k = 12*ell + kprime.

    m is the order of vanishing at the cusp, 0 <= m <= ell (m = 0 labels
    the non-cuspidal gap form).
    """

    k: int
    ell: int
    kprime: int
    m: int

    def __post_init__(self):
        if self.kprime not in EXTRA_WEIGHTS:
            raise ValueError(f"kprime must lie in {EXTRA_WEIGHTS}")
        if self.k != 12 * self.ell + self.kprime:
            raise ValueError("inconsistent weight decomposition")
        if self.ell < 0:
            raise ValueError("negative ell")
        if not 0 <= self.m <= self.ell:
            raise ValueError(f"m must satisfy 0 <= m <= {self.ell}")

    @classmethod
    def from_k(cls, k: int, m: int) -> "FormId":
        if k < 0 or k % 2 != 0:
            raise ValueError(f"weight must be a nonnegative even integer, got {k}")
        r = k % 12
        if r % 2 != 0:
            raise ValueError(f"weight {k} is odd")
        if r == 2:
            kprime, ell = 14, (k - 14) // 12
        else:
            kprime, ell = r, (k - r) // 12
        if ell < 0:
            raise ValueError(f"no modular forms of weight {k}")
        return cls(k, ell, kprime, m)
