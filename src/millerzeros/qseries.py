"""Exact truncated q-expansion arithmetic for level-one modular forms.

A series is stored as sum_{n=lead}^{trunc} a_n q^n with exact rational
coefficients (Python ints, or Fraction where a denominator is genuinely
needed).  Negative leads are allowed so that 1/Delta and the j-function
fit in the same type.  Every operation computes the truncation order to
which the result is actually provable and never reports coefficients
beyond it.

Two kernels on coefficient lists do all the multiplicative work: the
list product _mul and J. C. P. Miller's power recurrence _power, which
takes any integer exponent, so a reciprocal is the power -1.  Generators
provided here: Eisenstein series E_k (exact Bernoulli constants), and
qd^a E_4^b E_6^c (qd = Delta / q) from the pentagonal number theorem,
which gives Delta and j = E_4^3 / Delta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul


class ZeroLeadingError(ArithmeticError):
    """Negative power requested of a series that is zero to its truncation."""


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


# ---------------------------------------------------------------------------
# the two series kernels, on plain coefficient lists


def _mul(a, b) -> list:
    """The product of two coefficient lists, to the length of a (b no shorter)."""
    n = len(a)
    rb = b[n - 1::-1]
    return [sum(map(mul, a[:i + 1], rb[n - 1 - i:])) for i in range(n)]


def _power(a, e: int) -> list:
    """a^e to len(a) coefficients, for any integer e and a[0] != 0.

    J. C. P. Miller's recurrence: f = a^e satisfies a f' = e a' f, so
    i a_0 f_i = sum_(1 <= r <= i) ((e + 1) r - i) a_r f_(i-r), summed over
    the nonzero a_r only (about 2 sqrt(2i/3) of them for the pentagonal
    product).  With a_0 = 1 and integer a_r every f_i is an integer and
    the division by i is exact; otherwise the f_i are Fractions.
    """
    a0 = a[0]
    terms = [(r, c) for r, c in enumerate(a) if r and c]
    integral = a0 == 1 and all(isinstance(c, int) for c in a)
    f = [1 if integral else Fraction(a0) ** e]
    used = 0
    for i in range(1, len(a)):
        if used < len(terms) and terms[used][0] <= i:
            used += 1
        s = sum(((e + 1) * r - i) * c * f[i - r] for r, c in terms[:used])
        f.append(s // i if integral else Fraction(s) / (i * a0))
    return f


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
        # provable to the shorter factor's depth past the product's lead
        n = min(len(self.coeffs), len(other.coeffs))
        lead = self.lead + other.lead
        return QSeries._make(lead, _mul(self.coeffs[:n], other.coeffs[:n]), lead + n - 1)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """self^e for any integer e; a negative e needs a nonzero series.

        The result is provable to e lead + (trunc - lead), the depth of
        repeated products and of the reciprocal; self^0 is the exact 1, to
        trunc or, for a series that stops below q^0, to q^0.
        """
        if not isinstance(e, int):
            raise ValueError("only integer powers")
        if e == 0:
            return QSeries.one(max(self.trunc, 0))
        if self.is_zero():
            if e < 0:
                raise ZeroLeadingError("leading coefficient is zero")
            return QSeries.zero(e * self.trunc)
        lead = e * self.lead
        return QSeries._make(lead, _power(self.coeffs, e), lead + self.trunc - self.lead)

    def differentiate(self) -> "QSeries":
        """The operator q d/dq (coefficientwise multiplication by n)."""
        out = [(self.lead + i) * c for i, c in enumerate(self.coeffs)]
        return QSeries._make(self.lead, out, self.trunc)

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
    if trunc < 0:
        raise ValueError(f"trunc must be at least 0 for E_{k}, got {trunc}")
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


def _monomial(n: int, e_qd: int, e_4: int, e_6: int) -> list:
    """qd^e_qd E_4^e_4 E_6^e_6 to n coefficients, qd = Delta / q = P^24,
    for any integer exponents: every factor is one _power of a series
    with constant term 1, P the sparse pentagonal product.
    """
    out = None
    for a, e in ((_pentagonal_euler_product(n - 1).coeffs, 24 * e_qd),
                 (eisenstein(4, n - 1).coeffs, e_4), (eisenstein(6, n - 1).coeffs, e_6)):
        if e:
            f = _power(a, e)
            out = f if out is None else _mul(out, f)
    return out or [1] + [0] * (n - 1)


@lru_cache(maxsize=None)
def delta(trunc: int) -> QSeries:
    """The discriminant cusp form q prod (1-q^n)^24, exact to trunc."""
    if trunc < 1:
        raise ValueError("trunc must be at least 1")
    return QSeries._make(1, _monomial(trunc, 1, 0, 0), trunc)


@lru_cache(maxsize=None)
def jfunction(trunc: int) -> QSeries:
    """The modular j-function E_4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    if trunc < -1:
        raise ValueError(f"trunc must be at least -1 for j, got {trunc}")
    return QSeries._make(-1, _monomial(trunc + 2, -1, 3, 0), trunc)


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
        if r == 2:
            kprime, ell = 14, (k - 14) // 12
        else:
            kprime, ell = r, (k - r) // 12
        if ell < 0:
            raise ValueError(f"no modular forms of weight {k}")
        return cls(k, ell, kprime, m)
