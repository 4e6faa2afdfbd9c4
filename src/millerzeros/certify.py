"""Machine verification of the quantitative bounds behind the arc zero location.

Every claimed constant that the arc-zero argument leans on is rechecked
here and reported as a BoundLedgerEntry: the claimed number, the certified
recomputation with its error radius, and a satisfied flag.  The entries
fall into a few families:

  * extrema of Delta and the Eisenstein series on the boundary arc and on
    the two horizontal lines Im(tau) = 0.65 and 0.75;
  * separation of j between the arc and those lines, via trigonometric
    polynomial certificates (Chebyshev basis, then a Goursat substitution
    z -> (1-z)/(1+z) that turns one-signedness on [-1, 1] into positivity
    of coefficients on [0, infinity));
  * the assembled contour-estimate table and the growth constants
    (c1, B1, B2, c2) derived from it.

Exact rational arithmetic is used wherever the inputs are exact decimals;
everything floating is a CertValue with a propagated radius.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpc, mpf, workprec

from . import qseries
from .qseries import EISENSTEIN_FACTORS
from .evalnum import (DEFAULT_PREC, ArcValues, CertValue, EisensteinTail, GeometricTail,
                      JCoeffTail, TailUnboundedError, _exact, arc_functions,
                      arc_grid, arc_j, eval_delta_eta, eval_series, j_tail_bound,
                      lemniscate_constants)


class CertificateFailureError(ArithmeticError):
    """A sign certificate did not come out decisively with the expected pattern."""


class DomainError(ValueError):
    """Parameters outside the validity region of a closed-form estimate."""


# ---------------------------------------------------------------------------
# ledger entries


def _pad_of(v) -> mpf:
    """The relative pad of every certificate value here: |v| 2^(8 - prec)."""
    return mp.ldexp(abs(v), 8 - mp.prec)


@dataclass
class BoundLedgerEntry:
    name: str
    claimed: float
    computed: float
    err: float
    satisfied: bool
    paper_ref: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "claimed": self.claimed,
                "computed": self.computed, "err": self.err,
                "satisfied": bool(self.satisfied), "paper_ref": self.paper_ref}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _decimal(claimed) -> Fraction:
    """The claimed constant exactly as written: 3.45 is 345/100, not its nearest double."""
    return Fraction(repr(claimed)) if isinstance(claimed, float) else Fraction(claimed)


def _entry_upper(name: str, ref: str, cv: CertValue, claimed) -> BoundLedgerEntry:
    """|computed| + err, rounded upward, must stay strictly below the claimed constant."""
    ok = _exact(cv.abs_upper()) < _decimal(claimed)
    return BoundLedgerEntry(name, float(claimed), float(abs(cv.value)),
                            float(cv.err), ok, ref)


def _entry_lower(name: str, ref: str, cv: CertValue, claimed) -> BoundLedgerEntry:
    """|computed| - err, rounded downward, must stay strictly above the claimed constant."""
    ok = _exact(cv.abs_lower()) > _decimal(claimed)
    return BoundLedgerEntry(name, float(claimed), float(abs(cv.value)),
                            float(cv.err), ok, ref)


def _entry_value(name: str, ref: str, cv: CertValue, claimed, tol) -> BoundLedgerEntry:
    """computed must equal the claimed constant within tol, radius included."""
    v = cv.value.real if isinstance(cv.value, mpc) else cv.value
    ok = abs(v - mpf(claimed)) + cv.err <= mpf(tol)
    return BoundLedgerEntry(name, float(claimed), float(v), float(cv.err), bool(ok), ref)


def _lower(cv: CertValue) -> Fraction:
    """value - err of a real CertValue, exactly."""
    return _exact(cv.value) - _exact(cv.err)


def _upper(cv: CertValue) -> Fraction:
    """value + err of a real CertValue, exactly."""
    return _exact(cv.value) + _exact(cv.err)


def _entry_flag(name: str, ref: str, ok: bool) -> BoundLedgerEntry:
    return BoundLedgerEntry(name, 1.0, 1.0 if ok else 0.0, 0.0, bool(ok), ref)


def _entry_exact(name: str, ref: str, computed: Fraction, claimed: Fraction,
                 upper: bool = True) -> BoundLedgerEntry:
    ok = computed < claimed if upper else computed > claimed
    return BoundLedgerEntry(name, float(claimed), float(computed), 0.0, bool(ok), ref)


# ---------------------------------------------------------------------------
# Chebyshev basis and the Goursat substitution


@lru_cache(maxsize=None)
def _cheb_t(n: int) -> tuple:
    """Monomial coefficients (ascending) of the Chebyshev polynomial T_n."""
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    a, b = _cheb_t(n - 2), _cheb_t(n - 1)
    out = [0] * (n + 1)
    for i, c in enumerate(b):
        out[i + 1] += 2 * c
    for i, c in enumerate(a):
        out[i] -= c
    return tuple(out)


def chebyshev_to_monomial(coeffs) -> list:
    """Monomial coefficients (ascending) of sum c_k T_k(z); the c_k are exact
    rationals or CertValues."""
    out = [0] * len(coeffs)
    for k, c in enumerate(coeffs):
        for i, w in enumerate(_cheb_t(k)):
            if w:
                out[i] = out[i] + c * w
    return out


def polynomial_derivative(coeffs: list) -> list:
    return [i * c for i, c in enumerate(coeffs)][1:] or [0 * coeffs[0]]


def goursat_transform(coeffs: list) -> list:
    """Coefficients of (1+z)^d P((1-z)/(1+z)) for P given in monomials.

    Sign questions for P on [-1, 1] become sign questions for the output
    on [0, infinity), where a polynomial with one-signed coefficients is
    decided by inspection.  Exact when the input is exact; linear in the
    inputs, so CertValue coefficients propagate their radii unchanged
    apart from the integer weights.
    """
    d = len(coeffs) - 1
    total = None
    for i, p in enumerate(coeffs):
        w = [1]
        for _ in range(i):                       # (1 - z)^i
            w = [a - b for a, b in zip(w + [0], [0] + w)]
        for _ in range(d - i):                   # (1 + z)^(d-i)
            w = [a + b for a, b in zip(w + [0], [0] + w)]
        term = [p * c for c in w]
        if total is None:
            total = term
        else:
            total = [a + b for a, b in zip(total, term)]
    return total


def horner(coeffs: list, x):
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return acc


def _certified_root_decreasing(coeffs: list, lo: float, hi: float) -> CertValue:
    """Root of a certified-coefficient polynomial, strictly decreasing on [lo, hi],
    to 40 halvings of the bracket."""
    lo, hi = mpf(lo), mpf(hi)
    for _ in range(40):
        mid = (lo + hi) / 2
        s = horner(coeffs, CertValue(mid)).certified_sign()
        if s > 0:
            lo = mid
        elif s < 0:
            hi = mid
        else:
            break
    mid = (lo + hi) / 2
    return CertValue(mid, (hi - lo) / 2)


# ---------------------------------------------------------------------------
# truncated j approximations


def j_approx(M: int, a, x, prec: int = DEFAULT_PREC) -> CertValue:
    """f_{M,a}(x) = sum_{n=-1}^{M} c(n) e^(-2 pi a n) e^(2 pi i n x), certified.

    This is the finite trigonometric polynomial itself (complex valued);
    combine with j_approx_error for a bound on |j(x + ia) - f_{M,a}(x)|.
    """
    series = qseries.jfunction(M)
    tau = mp.mpf(x) + 1j * mp.mpf(a)
    return eval_series(series, tau, GeometricTail(0, 0), prec=prec)


def j_approx_error(M: int, a) -> mpf:
    """Closed-form bound for the dropped j tail; needs M > 1/a^2.

    An upper bound as it stands: j_tail_bound's relative slack covers its
    own rounding.
    """
    try:
        return j_tail_bound(M, a)
    except TailUnboundedError as exc:
        raise DomainError(str(exc)) from exc


def _sin_range(a, b) -> tuple:
    """(lower, upper) bounds of sin on [a, b], reasoned exactly: an interior
    minimum sits at 3pi/2 mod 2pi and a maximum at pi/2 mod 2pi, otherwise
    each is at an endpoint, widened by 2^-60."""
    with workprec(80):
        a, b = mpf(a), mpf(b)
        ends = mp.sin(a), mp.sin(b)

        def inside(c):
            k = mp.ceil((a - c) / (2 * mp.pi))
            return a <= c + 2 * mp.pi * k <= b
        lo = mpf(-1) if inside(3 * mp.pi / 2) else min(ends) - mpf(2) ** -60
        hi = mpf(1) if inside(mp.pi / 2) else max(ends) + mpf(2) ** -60
        return lo, hi


# ---------------------------------------------------------------------------
# the two trigonometric certificates


@dataclass
class MonotonicityCertificate:
    """Re f_{5,3/4} decreases to a single interior minimum and rises after.

    Established by converting the cosine polynomial to monomials in
    z = cos(2 pi x), differentiating, and applying the Goursat transform:
    the image has exactly one sign change (+ constant, negative tail), so
    the derivative is one-signed on each side of its single root.
    """

    monomial: list                  # CertValue coefficients, ascending in z
    derivative: list
    goursat: list
    z0: CertValue                   # root of the transformed derivative
    zroot: CertValue                # (1 - z0)/(1 + z0), root in z
    x0: CertValue                   # arccos(zroot) / (2 pi)
    entries: list = field(default_factory=list)


def monotonicity_certificate_075(prec: int = DEFAULT_PREC) -> MonotonicityCertificate:
    with workprec(prec + 12):
        j = qseries.jfunction(5)
        E = CertValue(mp.e ** (-3 * mp.pi / 2), _pad_of(1))
        einv = mp.e ** (3 * mp.pi / 2)
        Einv = CertValue(einv, _pad_of(einv))
        a = [CertValue.exact(744),
             Einv + CertValue.exact(j.coeff(1)) * E]
        for n in range(2, 6):
            a.append(CertValue.exact(j.coeff(n)) * E.pow_int(n))
        mono = chebyshev_to_monomial(a)
        deriv = polynomial_derivative(mono)
        gour = goursat_transform(deriv)
        # expected pattern: positive constant, all higher coefficients negative
        if gour[0].certified_sign() != 1:
            raise CertificateFailureError("constant term not certified positive")
        for i, c in enumerate(gour[1:], start=1):
            if c.certified_sign() != -1:
                raise CertificateFailureError(f"coefficient {i} not certified negative")
        z0 = _certified_root_decreasing(gour, 0.5, 2.0)
        one = CertValue(mpf(1))
        zroot = (one - z0) / (one + z0)
        # transfer through arccos with an explicit derivative bound
        zv = zroot.value
        slope = 1 / mp.sqrt(1 - (abs(zv) + zroot.err) ** 2)
        x0 = CertValue(mp.acos(zv) / (2 * mp.pi),
                       zroot.err * slope / (2 * mp.pi) + _pad_of(1))
        cert = MonotonicityCertificate(mono, deriv, gour, z0, zroot, x0)
        cert.entries = [
            _entry_value("refit.x0", "interior minimum of Re f_{5,3/4}", x0, 0.253311, 1e-4),
            _entry_value("refit.zroot", "sign change of the z-derivative", zroot, -0.0208023, 1e-4),
            _entry_value("refit.z0", "root after Goursat substitution", z0, 1.0424883, 1e-4),
            _entry_flag("refit.signs", "one sign change certificate", True),
        ]
        return cert


@dataclass
class MagnitudeCertificate:
    """|f_{7,13/20}|^2 is increasing in z = cos(2 pi x), so |f| decreases
    on [0, 1/2] and its minimum there is the value at x = 1/2."""

    autocorrelation: list
    monomial: list
    goursat_derivative: list
    value_at_half: CertValue        # |f(1/2)|, a positive real
    entries: list = field(default_factory=list)


def magnitude_certificate_065(prec: int = DEFAULT_PREC) -> MagnitudeCertificate:
    with workprec(prec + 12):
        M = 7
        j = qseries.jfunction(M)
        e, einv = mp.e ** (-13 * mp.pi / 10), mp.e ** (13 * mp.pi / 10)
        E, Einv = CertValue(e, _pad_of(e)), CertValue(einv, _pad_of(einv))
        a = {-1: Einv}
        a[0] = CertValue.exact(744)
        for n in range(1, M + 1):
            a[n] = CertValue.exact(j.coeff(n)) * E.pow_int(n)
        # autocorrelation of the coefficient sequence: |f|^2 as a cosine poly
        b = []
        for k in range(0, M + 2):
            s = CertValue(mpf(0))
            for m in range(-1, M - k + 1):
                s = s + a[m] * a[m + k]
            b.append(s if k == 0 else s * 2)
        mono = chebyshev_to_monomial(b)
        deriv = polynomial_derivative(mono)
        gour = goursat_transform(deriv)
        for i, c in enumerate(gour):
            if c.certified_sign() != 1:
                raise CertificateFailureError(
                    f"derivative Goursat coefficient {i} not certified positive")
        half = CertValue(mpf(0))
        for n in range(-1, M + 1):
            half = half + a[n] * (1 if n % 2 == 0 else -1)
        half = half.abs()
        cert = MagnitudeCertificate(b, mono, gour, half)
        sq = horner(mono, CertValue(mpf(-1)))
        cert.entries = [
            _entry_value("magfit.value-at-half", "|f_{7,13/20}| at x = 1/2",
                         half, 593.543, 1e-2),
            _entry_value("magfit.leading", "|f|^2 leading Chebyshev-to-monomial coefficient",
                         mono[-1], 260611.69, 0.05),
            _entry_flag("magfit.signs", "all-positive derivative certificate", True),
            _entry_flag("magfit.square-consistency",
                        "p(-1) equals |f(1/2)|^2",
                        abs(sq.value - half.value ** 2) <= sq.err + 2 * half.err * abs(half.value) + mpf(1e-12)),
        ]
        return cert


# ---------------------------------------------------------------------------
# separation of j between the arc and the two lines


@dataclass
class JDifferenceReport:
    j19: CertValue                  # j at the arc split angle theta = 1.9
    min_diff_075: Fraction          # lower bound for |j(x + 0.75i) - t|, t in the upper arc range
    min_diff_065: Fraction
    entries: list = field(default_factory=list)


def j_difference_bounds(prec: int = DEFAULT_PREC) -> JDifferenceReport:
    """Certified lower bounds for the two j-separation constants 176 and 311.

    The 0.75 line is split at the interior minimum of Re f: the real part
    dominates on [0, 0.1] and [0.2, 0.5], the imaginary part on
    [0.1, 0.2].  The 0.65 line uses the monotone |f| certificate.  Both
    use |j - f| <= 10 from the truncation error bounds.  The separations
    are exact rationals built from the certified endpoints, so no
    rounding enters them.
    """
    entries = []
    with workprec(prec + 12):
        # the arc value at the split angle, two independent routes
        a19 = mp.sin(mpf(1.9))
        err19 = j_approx_error(6, a19)
        f19 = j_approx(6, a19, mp.cos(mpf(1.9)), prec=prec)
        j19 = f19.real().widened(err19).widened(abs(f19.imag().value))
        entries.append(_entry_upper("jdiff.approx-error-19",
                                    "f_{6,sin 1.9} truncation bound",
                                    CertValue(err19), 4e-4))
        entries.append(_entry_value("jdiff.ref19", "Re f_{6,sin 1.9}(cos 1.9)",
                                    f19.real(), 271.09885, 1e-3))
        in_window = bool(j19.value - j19.err > 271 and j19.value + j19.err < 272)
        entries.append(_entry_flag("jdiff.j19-window", "271 <= j(e^{1.9i}) <= 272", in_window))
        jarc = arc_j(1.9, prec=prec)
        agree = abs(jarc.value - j19.value) <= jarc.err + j19.err
        entries.append(_entry_flag("jdiff.j19-cross-route",
                                   "arc evaluation agrees with the line approximation", agree))

        mono = monotonicity_certificate_075(prec)
        mag = magnitude_certificate_065(prec)
        entries.extend(mono.entries)
        entries.extend(mag.entries)

        # --- height 0.75, arc range of j is [j(1.9), 1728] subset [271, 1728]
        err75 = j_approx_error(5, 0.75)
        entries.append(_entry_upper("jdiff.approx-error-075",
                                    "f_{5,3/4} truncation bound",
                                    CertValue(err75), 10.0))
        f01 = j_approx(5, 0.75, 0.1, prec=prec)
        f02 = j_approx(5, 0.75, 0.2, prec=prec)
        f05 = j_approx(5, 0.75, 0.5, prec=prec)
        entries.append(_entry_value("jdiff.ref-01", "Re f_{5,3/4}(0.1)", f01.real(), 2481.16, 0.05))
        entries.append(_entry_value("jdiff.ref-05", "Re f_{5,3/4}(0.5)", f05.real(), 84.3362, 0.01))
        # the value at 0.2 is not published; frozen from this computation
        entries.append(_entry_value("jdiff.ref-02", "Re f_{5,3/4}(0.2), derived",
                                    f02.real(), -524.9924, 0.05))
        x0 = mono.x0
        x0_inside = bool(x0.value - x0.err > 0.2 and x0.value + x0.err < 0.5)
        entries.append(_entry_flag("jdiff.x0-between",
                                   "interior minimum splits [0.2, 0.5]", x0_inside))
        if not x0_inside:
            raise CertificateFailureError("minimum location leaves the case split")

        # [0, 0.1]: Re f decreasing there, so Re j >= Re f(0.1) - err
        d1 = _lower(f01.real()) - _exact(err75) - 1728
        # [0.1, 0.2]: Im f >= sum of sine minima; j differs by at most err75
        sines = _im_lower_bound_075(prec)
        entries.append(_entry_value("jdiff.imf-bound", "Im f_{5,3/4} lower bound on [0.1, 0.2]",
                                    sines, 1474.07, 0.5))
        d2 = _lower(sines) - _exact(err75)
        # [0.2, 0.5]: Re f peaks at the ends of the interval
        remax = max(_upper(f02.real()), _upper(f05.real()))
        entries.append(_entry_flag("jdiff.ref-peak", "max(Re f(0.2), Re f(0.5)) <= 85",
                                   bool(remax <= 85)))
        d3 = 271 - (remax + _exact(err75))
        min75 = min(d1, d2, d3)
        entries.append(_entry_exact("jdiff.sep-075", "j separation on the 0.75 line",
                                    min75, Fraction(176), upper=False))

        # --- height 0.65, arc range of j is [0, j(1.9)] subset [0, 272]
        err65 = j_approx_error(7, 0.65)
        entries.append(_entry_upper("jdiff.approx-error-065",
                                    "f_{7,13/20} truncation bound",
                                    CertValue(err65), 10.0))
        min65 = _lower(mag.value_at_half) - _exact(err65) - 272
        entries.append(_entry_exact("jdiff.sep-065", "j separation on the 0.65 line",
                                    min65, Fraction(311), upper=False))

        return JDifferenceReport(j19=j19, min_diff_075=min75, min_diff_065=min65,
                                 entries=entries)


def _im_lower_bound_075(prec: int) -> CertValue:
    """Lower bound for Im f_{5,3/4} on [0.1, 0.2] from per-frequency sine minima."""
    j = qseries.jfunction(5)
    with workprec(prec + 12):
        E = mp.e ** (-3 * mp.pi / 2)
        coeffs = {1: j.coeff(1) * E - mp.e ** (3 * mp.pi / 2)}
        for n in range(2, 6):
            coeffs[n] = j.coeff(n) * E ** n
        total = CertValue(mpf(0))
        for n, s in coeffs.items():
            lo, hi = 2 * mp.pi * n * mpf("0.1"), 2 * mp.pi * n * mpf("0.2")
            factor = _sin_range(lo, hi)[0 if s > 0 else 1]
            total = total + CertValue(s, _pad_of(s)) * CertValue(factor)
        return total


# ---------------------------------------------------------------------------
# Eisenstein bounds on the two lines


_LINE_CASES = (
    # (k, y as Fraction, printed partial, printed tail, claimed total,
    #  domination constant for n^k e^{-pi y n}, partial length used in print)
    (4, Fraction(13, 20), 5.7, 0.2, 5.9, Fraction(3, 10)),
    (4, Fraction(3, 4), 3.4, 0.05, 3.45, Fraction(1, 5)),
    (6, Fraction(13, 20), 12.21, 2.05, 14.26, Fraction(8, 5)),
    (6, Fraction(3, 4), 4.9, 0.35, 5.25, Fraction(7, 10)),
)


def _line_label(y: Fraction) -> str:
    return "065" if y == Fraction(13, 20) else "075"


def _rational(x: Fraction) -> mpf:
    """An exact rational at the ambient precision, rounded once."""
    return mpf(x.numerator) / x.denominator


def _dominated_tail(k: int, y: Fraction, n_from: int, dom: Fraction) -> tuple:
    """(tail bound, domination check) for gamma_k sum_{n >= n_from} sigma(n) r^n.

    Uses sigma_{k-1}(n) <= n^k = (n^k e^(-pi y n)) e^(pi y n) with the
    stated constant dominating the bracket for all n >= n_from; validity
    needs the bracket maximum k/(pi y) to sit left of n_from.  Built in
    mpf from the exact rationals, so only ambient-precision rounding
    enters and the caller's few-ulp pad covers it.
    """
    gamma = abs(Fraction(2 * k) / qseries.bernoulli(k))
    c = mp.pi * _rational(y)
    peak_ok = k / c < n_from
    first_ok = mpf(n_from) ** k * mp.e ** (-c * n_from) <= _rational(dom)
    half = mp.e ** (-c)
    tail = _rational(gamma) * _rational(dom) * half ** n_from / (1 - half)
    return tail, bool(peak_ok and first_ok)


def eisenstein_line_bounds(prec: int = DEFAULT_PREC) -> list:
    """Ledger entries for |E_4| and |E_6| on the lines Im(tau) = 0.65, 0.75.

    Two independent routes per constant: the printed two-term partial sum
    plus dominated tail arithmetic, and the certified maximum on the whole
    segment, decided by _bisect_claims.
    """
    entries = []
    for k, y, partial_claim, tail_claim, total_claim, dom in _LINE_CASES:
        lbl = f"e{k}.line.{_line_label(y)}"
        ref = f"E_{k} bound on the height-{float(y)} line"
        with workprec(prec + 12):
            r = mp.e ** (-2 * mp.pi * _rational(y))
            gamma = Fraction(2 * k) / qseries.bernoulli(k)
            sig = qseries._divisor_power_sums(k - 1, 2)
            # printed partial sum value (coefficients aligned at x = 0)
            c1 = abs(gamma) * sig[1]
            c2 = abs(gamma) * sig[2]
            if k == 4:
                partial = 1 + _rational(c1) * r + _rational(c2) * r ** 2
            else:
                partial = abs(1 - _rational(c1) * r - _rational(c2) * r ** 2)
            entries.append(_entry_upper(f"{lbl}.partial", ref + ", two-term part",
                                        CertValue(partial, _pad_of(partial)), partial_claim))
            tail, dom_ok = _dominated_tail(k, y, 3, dom)
            entries.append(_entry_flag(f"{lbl}.domination",
                                       ref + f", n^{k} domination by {dom}", dom_ok))
            entries.append(_entry_upper(f"{lbl}.tail", ref + ", dominated tail",
                                        CertValue(tail, _pad_of(tail)), tail_claim))
            assembled = partial + tail
            entries.append(_entry_upper(f"{lbl}.assembled", ref + ", partial plus tail",
                                        CertValue(assembled, _pad_of(assembled)),
                                        total_claim))
            # independent certification: the leaves of cap - |E_k| > 0 cover x in
            # [0, 1/2], hence the line (period 1, E_k(-x + iy) = conj E_k(x + iy)),
            # and their largest abs_lower and abs_upper enclose the maximum
            series, iy = qseries.eisenstein(k, 48), mpc(0, _rational(y))
            cap = CertValue.exact(Fraction(str(total_claim)))
            _, leaves = _bisect_claims(
                lambda a, b: eval_series(series, (a + iy, b + iy), EisensteinTail(k), prec=prec),
                mpf(0), mpf(1) / 2, {"cap": (lambda v: cap - v.abs(), 1)})
            lo = max(v.abs_lower() for v in leaves["cap"])
            hi = max(v.abs_upper() for v in leaves["cap"])
            certified = CertValue((lo + hi) / 2, mp.ldexp(mp.fsub(hi, lo, rounding="u"), -1))
            entries.append(_entry_upper(f"{lbl}.grid", ref + ", maximum on the whole line",
                                        certified, total_claim))
    return entries


# ---------------------------------------------------------------------------
# arc extrema, and the shape certificates on the whole arc


def _arc_slopes(av: ArcValues) -> tuple:
    """(e2', e4', e6') with ' = d/dtheta, from Ramanujan's identities on the arc.

    On tau = e^(i theta), d/dtheta = -2 pi tau q d/dq, and Ramanujan's
    q d/dq E_2 = (E_2^2 - E_4)/12, q d/dq E_4 = (E_2 E_4 - E_6)/3 and
    q d/dq E_6 = (E_2 E_6 - E_4^2)/2 (Trans. Camb. Phil. Soc. 22, 1916)
    become polynomials in the arc functions:

      e2' = (pi/6)(e4 - e2^2) - 3/(2 pi),   e4' = (2 pi/3)(e6 - e2 e4),
      e6' = pi (e4^2 - e2 e6);

    likewise q d/dq Delta = E_2 Delta gives delta' = -2 pi e2 delta.
    """
    pi = CertValue(mp.pi, _pad_of(mp.pi))
    e2, e4, e6 = av.e2, av.e4, av.e6
    return (pi * (e4 - e2 * e2) / 6 - CertValue.exact(3) / (pi * 2),
            pi * (e6 - e2 * e4) * Fraction(2, 3),
            pi * (e4 * e4 - e2 * e6))


def _r3(av: ArcValues) -> CertValue:
    d2, d4, d6 = _arc_slopes(av)
    return d6 - av.e4 * d2 - av.e2 * d4


# name -> (the claim's function of the arc enclosures, its required sign)
_ARC_CLAIMS = {
    "R1": (lambda av: av.delta_arc, -1),                    # delta < 0
    "R2": (lambda av: av.e4 * av.e4 - av.e2 * av.e6, 1),    # e6' > 0
    "R3": (_r3, 1),                                         # (e6 - e2 e4)' > 0
    "R4": (lambda av: _arc_slopes(av)[0], -1),              # e2' < 0
}

_DEPTH = 10          # halvings of an interval before an open claim fails


def _bisect_claims(enclose, lo, hi, claims: dict) -> tuple:
    """(names of the claims that hold on [lo, hi], the leaves of each claim).

    claims maps a name to (f, sign), the claim that f(enclose(a, b)) has
    that sign for each [a, b] in [lo, hi].  Bisection: one enclosure
    serves every claim still open on a subinterval; a claim whose sign is
    certified there is done on it, one whose opposite sign is certified
    is refuted, and only the open ones descend.  A claim refuted anywhere,
    or still open after _DEPTH halvings, does not hold.  leaves maps each
    name to the enclosures it stopped on, which cover [lo, hi].
    """
    failed = set()
    leaves = {name: [] for name in claims}
    work = [(lo, hi, 0, tuple(claims))]
    while work:
        a, b, level, names = work.pop()
        v = enclose(a, b)
        open_ = []
        for name in names:
            f, sign = claims[name]
            s = f(v).certified_sign()
            if s or level == _DEPTH:
                leaves[name].append(v)
                if s != sign:
                    failed.add(name)
            else:
                open_.append(name)
        if open_:
            mid = (a + b) / 2
            work += [(mid, b, level + 1, open_), (a, mid, level + 1, open_)]
    return set(claims) - failed, leaves


@lru_cache(maxsize=4)
def _arc_corners(prec: int) -> tuple:
    """arc_functions at i, at the split angle 1.9 and at rho, for every ledger section."""
    return tuple(arc_functions(t, prec=prec) for t in (float(mp.pi / 2), 1.9,
                                                       float(2 * mp.pi / 3)))


def arc_eisenstein_bounds(prec: int = DEFAULT_PREC) -> list:
    """Extrema of the arc functions plus the shape certificates on the whole arc.

    The seven shape flags rest on the four claims of _ARC_CLAIMS, each a
    strict sign on the closed arc [pi/2, 2pi/3] decided by _bisect_claims,
    with ' = d/dtheta and the identities of _arc_slopes:

      R1: delta < 0;                  R2: e4^2 - e2 e6 > 0, i.e. e6' > 0;
      R3: (e6 - e2 e4)' = pi (e4^2 - e2 e6) - e4 e2' - e2 e4' > 0;
      R4: e2' < 0.

    With the classical corner values E_6(i) = 0, E_2(i) = 3/pi (so
    e2(i) = 0) and E_4(rho) = 0:

      * delta.arc.sign is R1;
      * e2.arc.sign: e2 falls from e2(i) = 0 by R4;
      * e6.arc.monotone and e6.arc.sign: e6 rises from e6(i) = 0 by R2;
      * e4.arc.monotone and e4.arc.sign: e6 - e2 e4 is 0 at i and rises
        by R3, so e4' = (2 pi/3)(e6 - e2 e4) > 0 after i; e4 rises to
        e4(rho) = 0, so it is negative before rho and |E_4| = -e4 falls;
      * delta.arc.monotone: delta' = -2 pi e2 delta < 0 after i by R1, R4.

    A claim that is not decided turns its flags false.
    """
    entries = []
    with workprec(prec + 12):
        at_i, at_19, at_rho = _arc_corners(prec)

        lem = lemniscate_constants(prec)
        pi4 = mp.pi ** 4
        e4i_closed = 3 * lem.varpi.pow_int(4) * CertValue(1 / pi4, _pad_of(1 / pi4))
        e6rho_closed = CertValue(mpf(27) / 2) * lem.varpi_prime.pow_int(6) * \
            CertValue(1 / mp.pi ** 6, _pad_of(1 / mp.pi ** 6))

        entries += [
            _entry_value("lemniscate.varpi", "arclength integral, quartic", lem.varpi,
                         2.622057, 1e-5),
            _entry_value("lemniscate.varpi-prime", "arclength integral, sextic",
                         lem.varpi_prime, 2.42865, 1e-5),
            _entry_value("e4.arc.at-i", "E_4 at the corner i", at_i.e4.abs(),
                         1.455761, 1e-5),
            _entry_flag("e4.arc.closed-form",
                        "E_4(i) equals 3 varpi^4 / pi^4",
                        bool(abs(at_i.e4.abs().value - e4i_closed.value)
                             <= at_i.e4.err + e4i_closed.err)),
            _entry_value("e6.arc.at-rho", "E_6 at the corner rho", at_rho.e6,
                         2.881536, 1e-5),
            _entry_flag("e6.arc.closed-form",
                        "E_6(rho) equals 27 varpi'^6 / (2 pi^6)",
                        bool(abs(at_rho.e6.value - e6rho_closed.value)
                             <= at_rho.e6.err + e6rho_closed.err)),
            _entry_value("e4.arc.at-19", "e_4 at the split angle", at_19.e4.abs(),
                         0.900253, 1e-5),
            _entry_value("e6.arc.at-19", "e_6 at the split angle", at_19.e6,
                         1.980151, 1e-5),
            # the four arc ingredients of the contour table
            _entry_upper("e4.arc.upper-075", "arc maximum of |E_4|", at_i.e4.abs(), 1.46),
            _entry_upper("e6.arc.upper-075", "|E_6| cap on the lower subarc", at_19.e6, 1.99),
            _entry_upper("e4.arc.upper-065", "|E_4| cap on the upper subarc", at_19.e4.abs(), 0.9022),
            _entry_upper("e6.arc.upper-065", "arc maximum of |E_6|", at_rho.e6, 2.89),
            _entry_value("e2.arc.at-i", "modified E_2 vanishes at i", at_i.e2, 0.0, 1e-12),
        ]

        # the ends are rounded; the half ulp to the true corners lies inside every pad
        held, _ = _bisect_claims(lambda a, b: arc_functions((a, b), prec=prec),
                                 mp.pi / 2, 2 * mp.pi / 3, _ARC_CLAIMS)
        entries += [
            _entry_flag("e4.arc.monotone", "|E_4| strictly decreasing along the arc",
                        "R3" in held),
            _entry_flag("e6.arc.monotone", "|E_6| strictly increasing along the arc",
                        "R2" in held),
            _entry_flag("delta.arc.monotone", "delta_arc strictly decreasing",
                        {"R1", "R4"} <= held),
            _entry_flag("e4.arc.sign", "e_4 < 0 before the rho endpoint", "R3" in held),
            _entry_flag("e6.arc.sign", "e_6 > 0 after the i endpoint", "R2" in held),
            _entry_flag("delta.arc.sign", "delta_arc < 0 on the whole arc", "R1" in held),
            _entry_flag("e2.arc.sign", "e_2 < 0 after the i endpoint", "R4" in held),
        ]
    return entries


# ---------------------------------------------------------------------------
# Delta extrema


def delta_line_lower(y) -> mpf:
    """x-uniform pentagonal lower bound for |Delta(x + iy)|.

    |prod (1-q^n)| >= 1 - r - r^2 - r^5 - r^7 - r^12/(1-r) with r = |q|;
    the dropped pentagonal exponents are distinct integers >= 12.
    """
    r = mp.e ** (-2 * mp.pi * mpf(y))
    bracket = 1 - r - r ** 2 - r ** 5 - r ** 7 - r ** 12 / (1 - r)
    if bracket <= 0:
        raise DomainError("pentagonal lower bound needs a positive bracket")
    return r * bracket ** 24 * (1 - mpf(2) ** -40)


def delta_line_upper(y) -> mpf:
    r = mp.e ** (-2 * mp.pi * mpf(y))
    bracket = 1 + r + r ** 2 + r ** 5 + r ** 7 + r ** 12 / (1 - r)
    return r * bracket ** 24 * (1 + mpf(2) ** -40)


def delta_ledger(prec: int = DEFAULT_PREC) -> list:
    """Delta extrema: corner values two ways, line minima, and the ratios."""
    entries = []
    with workprec(prec + 12):
        lem = lemniscate_constants(prec)
        di_closed = (lem.varpi / CertValue(mp.sqrt(2) * mp.pi, _pad_of(mp.sqrt(2) * mp.pi))).pow_int(12)
        drho_closed = CertValue.exact(Fraction(27, 256)) * \
            (lem.varpi_prime / CertValue(mp.pi, _pad_of(mp.pi))).pow_int(12)
        di_direct = eval_delta_eta(mp.mpc(0, 1), prec=prec).abs().as_real()
        drho_direct = eval_delta_eta(mp.mpc(-0.5, mp.sqrt(3) / 2), prec=prec).abs().as_real()
        entries += [
            _entry_value("delta.at-i", "|Delta(i)| by eta product", di_direct,
                         0.00178537, 1e-7),
            _entry_value("delta.at-i.closed", "|Delta(i)| = (varpi/(sqrt 2 pi))^12",
                         di_closed, 0.00178537, 1e-7),
            _entry_value("delta.at-rho", "|Delta(rho)| by eta product", drho_direct,
                         0.00480514, 1e-7),
            _entry_value("delta.at-rho.closed", "|Delta(rho)| = (27/256)(varpi'/pi)^12",
                         drho_closed, 0.00480514, 1e-7),
        ]
        lo65, lo75 = delta_line_lower(0.65), delta_line_lower(0.75)
        entries.append(_entry_lower("delta.line-065.lower", "pentagonal minimum, height 0.65",
                                    CertValue(lo65), 0.01))
        entries.append(_entry_lower("delta.line-075.lower", "pentagonal minimum, height 0.75",
                                    CertValue(lo75), 0.007))
        # sandwich check of direct evaluations between the closed-form bounds
        ok = True
        for y in (0.65, 0.75, 1.0):
            lo, up = delta_line_lower(y), delta_line_upper(y)
            for x in (-0.5, -0.25, 0.0, 0.25, 0.5):
                d = eval_delta_eta(mp.mpf(x) + 1j * mpf(y), prec=prec).abs()
                if not (lo <= d.abs_upper() and d.abs_lower() <= up):
                    ok = False
        entries.append(_entry_flag("delta.sandwich",
                                   "evaluations sit between pentagonal bounds", ok))
        # arc maximum over line minimum
        arc_max = drho_direct.abs_upper()
        entries.append(_entry_upper("delta.ratio-065", "arc-to-line ratio, height 0.65",
                                    CertValue(arc_max / lo65), 0.5))
        entries.append(_entry_upper("delta.ratio-075", "arc-to-line ratio, height 0.75",
                                    CertValue(arc_max / lo75), 0.7))
    return entries


# ---------------------------------------------------------------------------
# residue term of the contour estimate


def residue_term(theta: float, k: int, m: int, prec: int = DEFAULT_PREC) -> CertValue:
    """e^(pi m (2 sin theta - tan(theta/2))) / (2 cos(theta/2))^k."""
    with workprec(prec + 12):
        t = mpf(theta)
        v = mp.e ** (mp.pi * m * (2 * mp.sin(t) - mp.tan(t / 2))) / \
            (2 * mp.cos(t / 2)) ** k
        return CertValue(v, _pad_of(v) * (k + m))


def _residue_slope(a, b, k: int, m: int) -> CertValue:
    """D = (log r)' = pi m (2 cos t - sec^2(t/2) / 2) + (k/2) tan(t/2) on [a, b] in the arc.

    There cos t falls and sec^2(t/2), tan(t/2) rise, so D lies between its
    m-part at b plus k-part at a and its m-part at a plus k-part at b.  At
    precision p, under 16 roundings of 2^(1-p) each hit terms of modulus at
    most 3 pi m + k (|cos t| <= 1/2, sec^2 <= 4, tan <= sqrt 3); the pad
    2^(8-p) (3 pi m + k) covers them and the half ulp by which a rounded
    arc end may miss its corner, across which |D'| <= 6 pi m + k.
    """
    def bound(c, t):
        return mp.pi * m * (2 * mp.cos(c) - mp.sec(c / 2) ** 2 / 2) + k * mp.tan(t / 2) / 2
    lo, hi = bound(b, a), bound(a, b)
    return CertValue((lo + hi) / 2, (hi - lo) / 2 + _pad_of(3 * mp.pi * m + k))


def residue_entries(k: int = 192, m: int = 1, prec: int = DEFAULT_PREC) -> list:
    """r(2pi/3) = 1, so r <= 1 on the arc if r increases, as it does once
    k >= 8 pi m / sqrt(3): both flags rest on D = (log r)' > 0 on the whole
    arc, decided by _bisect_claims on _residue_slope."""
    entries = []
    with workprec(prec + 12):
        hyp = k >= 8 * mp.pi * m / mp.sqrt(3)
        end = residue_term(float(2 * mp.pi / 3), k, m, prec=prec)
        entries.append(_entry_value("residue.at-rho", "residue factor at the rho corner",
                                    end, 1.0, 1e-9))
        held, _ = _bisect_claims(lambda a, b: _residue_slope(a, b, k, m),
                                 mp.pi / 2, 2 * mp.pi / 3, {"D": (lambda v: v, 1)})
        increasing = "D" in held
        entries.append(_entry_flag("residue.monotone",
                                   f"residue factor increasing for k={k}, m={m}",
                                   bool(hyp and increasing)))
        entries.append(_entry_flag("residue.below-one",
                                   "residue factor at most 1 on the arc",
                                   increasing and end.abs_upper() <= 1 + mpf(1e-9)))
    return entries


# ---------------------------------------------------------------------------
# the assembled contour table and the growth constants


# printed case bounds, keyed by (kprime, height label)
_TABLE_CLAIMS = {
    (0, "075"): Fraction("51.31"), (4, "075"): Fraction("21.72"),
    (6, "075"): Fraction("19.5"), (8, "075"): Fraction("9.2"),
    (10, "075"): Fraction("8.3"), (14, "075"): Fraction("3.5"),
    (0, "065"): Fraction("166.7"), (4, "065"): Fraction("25.1"),
    (6, "065"): Fraction("33.78"), (8, "065"): Fraction("3.8"),
    (10, "065"): Fraction("5.08"), (14, "065"): Fraction("1"),
}

_INGREDIENTS = {
    # height label -> (|E4| arc, |E6| arc, |E4| line, |E6| line, delta min, j sep)
    "075": (Fraction("1.46"), Fraction("1.99"), Fraction("3.45"), Fraction("5.25"),
            Fraction("0.007"), Fraction(176)),
    "065": (Fraction("0.9022"), Fraction("2.89"), Fraction(6), Fraction("14.26"),
            Fraction("0.01"), Fraction(311)),
}


@dataclass
class ConstantsReport:
    c1: float
    b1_derived: float               # log of the recomputed 0.75 table maximum
    b2_derived: float
    b1: float                       # the published exponent constants
    b2: float
    c2: float
    alpha: float
    beta: float
    entries: list = field(default_factory=list)


def _table_value(kprime: int, label: str) -> Fraction:
    e4a, e6a, e4l, e6l, dmin, jsep = _INGREDIENTS[label]
    a_arc, b_arc = EISENSTEIN_FACTORS[kprime]
    a_line, b_line = EISENSTEIN_FACTORS[14 - kprime]
    num = (e4a ** a_arc) * (e6a ** b_arc) * (e4l ** a_line) * (e6l ** b_line)
    return num / (dmin * jsep)


def constants_ledger(prec: int = DEFAULT_PREC) -> ConstantsReport:
    """Recompute the twelve contour-table bounds and the derived constants.

    The table entries are exact rational arithmetic on the certified
    ingredient bounds.  A second, decoupled numerical maximisation over
    (x, theta) grids cross-checks each entry.  The growth exponents B1 and
    B2 are the logs of the published table maxima; the published values
    3.94 and 5.12 must dominate the recomputed logs, and the slope and
    offset constants come out of the same closed formulas.
    """
    entries = []
    with workprec(prec + 12):
        maxima = {}
        for label in ("075", "065"):
            best = Fraction(0)
            for kprime in EISENSTEIN_FACTORS:
                val = _table_value(kprime, label)
                claim = _TABLE_CLAIMS[(kprime, label)]
                entries.append(_entry_exact(f"table.{label}.k{kprime}",
                                            f"contour bound, extra weight {kprime}, height 0.{label[1:]}",
                                            val, claim))
                best = max(best, val)
            maxima[label] = best
        entries.extend(_table_numeric_check(prec))

        b1_derived = mp.log(mpf(maxima["075"].numerator) / maxima["075"].denominator)
        b2_derived = mp.log(mpf(maxima["065"].numerator) / maxima["065"].denominator)
        entries.append(_entry_upper("growth.b1", "exponent of the 0.75 table maximum",
                                    CertValue(b1_derived, _pad_of(b1_derived)), 3.94))
        entries.append(_entry_upper("growth.b2", "exponent of the 0.65 table maximum",
                                    CertValue(b2_derived, _pad_of(b2_derived)), 5.12))

        ln107 = mp.log(mpf(10) / 7)
        ln2 = mp.log(mpf(2))
        c1 = max(mp.pi / (2 * ln107), 7 * mp.pi / (10 * ln2))
        b1p, b2p = mpf("3.94"), mpf("5.12")
        c2 = max((b1p - mp.log(mpf("1.995"))) / ln107,
                 (b2p - mp.log(mpf("0.995"))) / ln2)
        entries.append(_entry_value("growth.c1", "slope constant pi / (2 log(10/7))",
                                    CertValue(c1, _pad_of(c1)), 4.40400, 1e-5))
        entries.append(_entry_upper("growth.c1-cap", "slope constant under 4.5",
                                    CertValue(c1, _pad_of(c1)), 4.5))
        entries.append(_entry_value("growth.c2", "offset constant from B1 = 3.94",
                                    CertValue(c2, _pad_of(c2)), 9.11013, 1e-3))
        entries.append(_entry_upper("growth.c2-cap", "offset constant under 9.5",
                                    CertValue(c2, _pad_of(c2)), 9.5))
        return ConstantsReport(c1=float(c1),
                               b1_derived=float(b1_derived), b2_derived=float(b2_derived),
                               b1=3.94, b2=5.12, c2=float(c2),
                               alpha=4.5, beta=float(c2), entries=entries)


# the x-step of the table cross-check; the benchmark's reference.json pins
# the grid maxima it finds, so it moves only with that file
_TABLE_STEP = 1e-2


def _table_numeric_check(prec: int) -> list:
    """Decoupled grid maximisation of the contour integrand pieces.

    For each height the x-sweep maximises |E_14-k'| / (|Delta| dist(j, J)),
    with J the j-range of the matching subarc; the theta-factor uses the
    certified arc extrema.  The product dominates the true grid maximum,
    and must still sit below every printed case bound.
    """
    entries = []
    at_i, at_19, at_rho = _arc_corners(prec)
    arc_caps = {
        "075": (at_i.e4.abs().abs_upper(), at_19.e6.abs_upper()),
        "065": (at_19.e4.abs().abs_upper(), at_rho.e6.abs_upper()),
    }
    jranges = {"075": (mpf(271), mpf(1728)), "065": (mpf(0), mpf(272))}
    heights = {"075": mpf(3) / 4, "065": mpf(13) / 20}
    e4s = qseries.eisenstein(4, 48)
    e6s = qseries.eisenstein(6, 48)
    js = qseries.jfunction(48)
    for label in ("075", "065"):
        y = heights[label]
        jl, jh = jranges[label]
        n_pts = int(0.5 / _TABLE_STEP) + 1
        best = {kp: mpf(0) for kp in EISENSTEIN_FACTORS}
        for i in range(n_pts + 1):
            x = min(mpf(0.5), i * mpf(_TABLE_STEP))
            tau = x + 1j * y
            e4v = eval_series(e4s, tau, EisensteinTail(4), prec=prec).abs_upper()
            e6v = eval_series(e6s, tau, EisensteinTail(6), prec=prec).abs_upper()
            dv = eval_delta_eta(tau, prec=prec).abs_lower()
            jv = eval_series(js, tau, JCoeffTail(), prec=prec)
            w = jv.value
            re, im = w.real, w.imag
            if re < jl:
                dist = mp.sqrt((jl - re) ** 2 + im ** 2)
            elif re > jh:
                dist = mp.sqrt((re - jh) ** 2 + im ** 2)
            else:
                dist = abs(im)
            dist = max(dist - jv.err, mpf(2) ** -40)
            for kp in EISENSTEIN_FACTORS:
                al, bl = EISENSTEIN_FACTORS[14 - kp]
                v = e4v ** al * e6v ** bl / (dv * dist)
                if v > best[kp]:
                    best[kp] = v
        e4cap, e6cap = arc_caps[label]
        for kp in EISENSTEIN_FACTORS:
            aa, ba = EISENSTEIN_FACTORS[kp]
            v = e4cap ** aa * e6cap ** ba * best[kp]
            entries.append(_entry_upper(f"table.{label}.k{kp}.grid",
                                        f"numerical maximum, extra weight {kp}, height 0.{label[1:]}",
                                        CertValue(v), _TABLE_CLAIMS[(kp, label)]))
    return entries


# ---------------------------------------------------------------------------
# direct check of the main oscillation estimate


@dataclass
class MrlReport:
    k: int
    m: int
    hypothesis_ok: bool
    grid_max: float
    err_at_max: float
    theta_at_max: float
    passed: bool
    violations: list = field(default_factory=list)
    undecided: list = field(default_factory=list)


_MRL_LADDER = (1, 2, 4, 8)       # multiples of the starting precision


def _amplitude(m: int, t: mpf) -> CertValue:
    """e^(2 pi m sin t) at the ambient precision p, with an outward radius.

    x = 2 pi m sin t takes three roundings of relative size 2^-p and sin
    one of at most 2^(1-p), so |x' - x| <= d = 6 |x| 2^-p.  Then
    |e^x' - e^x| <= 1.01 d e^x while d < 0.01, and exp rounds within
    2^(1-p) of e^x', so the error is at most (7 |x| + 3) 2^-p e^x, under
    the radius 16 (|x'| + 1) 2^-p e^x' rounded upward.
    """
    x = 2 * mp.pi * m * mp.sin(t)
    amp = mp.exp(x)
    grow = mp.fmul(amp, mp.fadd(abs(x), 1, rounding="u"), rounding="u")
    return CertValue(amp, mp.ldexp(grow, 4 - mp.prec))


def _oscillation(form, m: int, theta: float, prec: int) -> CertValue:
    """e^(ik theta/2) e^(2 pi m sin theta) g_{k,m}(e^(i theta)) - 2 cos h(theta)."""
    from .evalnum import arc_form
    with workprec(prec + 12):
        t = mpf(theta)
        g = arc_form(form, theta, prec=prec)
        h = form.id.k * t / 2 + 2 * mp.pi * m * mp.cos(t)
        # argument rounding of h sweeps through cos with unit slope
        pad = _pad_of(abs(h) + 2 * mp.pi * m + 2)
        return g * _amplitude(m, t) - CertValue(2 * mp.cos(h), pad)


def proposition_mrl_check(k: int, m: int, grid_step: float = 1e-3,
                          prec: int = DEFAULT_PREC) -> MrlReport:
    """Evaluate |e^(ik theta/2) e^(2 pi m sin theta) g_{k,m} - 2 cos h| on a grid.

    h(theta) = k theta / 2 + 2 pi m cos theta.  The estimate promises a
    value strictly below 2 whenever ell > 4.5 m + 9.5; the check reports
    the grid maximum either way.  An angle whose enclosure straddles 2 is
    evaluated again at 2, 4 and 8 times the starting precision
    form_arc_prec; it is a violation once the whole enclosure is at or
    above 2, and undecided if it still straddles 2 at the top of the
    ladder.  passed needs both lists empty.
    """
    from .miller import miller_form
    from .evalnum import form_arc_prec
    form = miller_form(k, m)
    ell = form.id.ell
    start = form_arc_prec(ell, m, prec)
    hypothesis = ell > 4.5 * m + 9.5
    worst = -1.0
    worst_err = 0.0
    worst_theta = 0.0
    violations, undecided = [], []
    for theta in arc_grid(grid_step):
        for scale in _MRL_LADDER:
            val = _oscillation(form, m, theta, scale * start)
            below, above = val.abs_upper() < 2, val.abs_lower() >= 2
            if below or above:
                break
        mag = float(abs(val.value))
        if mag > worst:
            worst, worst_err, worst_theta = mag, float(val.err), float(theta)
        if above:
            violations.append(float(theta))
        elif not below:
            undecided.append(float(theta))
    return MrlReport(k=k, m=m, hypothesis_ok=hypothesis, grid_max=worst,
                     err_at_max=worst_err, theta_at_max=worst_theta,
                     passed=not (violations or undecided), violations=violations,
                     undecided=undecided)


# ---------------------------------------------------------------------------
# everything at once


def full_ledger(prec: int = DEFAULT_PREC) -> list:
    """All bound ledger entries in a stable order."""
    entries = []
    entries += delta_ledger(prec)
    entries += arc_eisenstein_bounds(prec)
    entries += eisenstein_line_bounds(prec)
    jd = j_difference_bounds(prec)
    entries += jd.entries
    entries += residue_entries(prec=prec)
    entries += constants_ledger(prec).entries
    return entries
