"""Shared fixtures and oracles.

The expensive objects (basis forms, the bound ledger) are built once per
session; every consumer treats them as immutable.  The direct complex
evaluation of a basis form is kept here as the reference oracle for
evalnum.arc_form, which takes its real E_4/E_6 route instead; the
exact q-series products raw_basis and reconstruct, faber_of's greedy
q-domain reduction, the composed t-series reference_t_start, and the
Ramanujan residuals, are the oracles of the Miller basis and the q-series
layer.  A Sturm chain, counted at every bisection point (sturm_census), is
the oracle of zeros' Descartes isolation, its leaves and its counts.
The oracles share no evaluation point with evalnum: each takes its own
q = e^(2 pi i tau) and phases from mpmath's complex exp, with a 16-ulp
pad, and runs only the kernel _horner and mpmath's complex interval
context, mpmath.iv, whose iv.mpc rectangles run libmpi's mpci_* kernels
(iv_prec keeps iv at mp's precision).  They share no arithmetic with
CertValue, a real interval only: a real result becomes one at the end,
once its imaginary interval holds 0 (real_part).  Their tails are
oracle_tail's mpf closed forms at the oracle's precision, and share no
tail code with evalnum's integer tails.  JCoeffTail, the j tail for
eval_series, serves the direct evaluation and the ball-route oracle of
evalnum.arc_j, which forms its own tail in integers.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import pytest
from mpmath import iv, mp, mpf, workprec
from mpmath.libmp import fzero, mpf_add, mpf_mul, mpf_pos, mpf_shift, mpf_sqrt, mpf_sub

from millerzeros import qseries
from millerzeros.miller import (IntPolynomial, MillerForm, NotInSpaceError, _exact_div,
                                _t_series, default_trunc, miller_form)
from millerzeros.qseries import (EISENSTEIN_FACTORS, FormId, QSeries, _monomial, _mul, _power,
                                 _pentagonal_euler_product, delta, eisenstein, jfunction)
from millerzeros.certify import full_ledger
from millerzeros.zeros import ROOT_WIDTH
from millerzeros.evalnum import (DEFAULT_PREC, _GUARD, CertValue, EisensteinTail, EtaProductTail,
                                 NotRealError, TailUnboundedError, _fixed, _fixed_ends, _horner,
                                 _interval, _theta_mpf, auto_trunc, j_tail_bound)


@dataclass(frozen=True)
class JCoeffTail:
    """The j q-series tail for eval_series: j_tail_bound at the height y."""

    def units(self, trunc: int, pt) -> int:
        return int(mp.ceil(mp.ldexp(j_tail_bound(trunc, pt.y), pt.P)))


def oracle_tail(tail, trunc: int, r, y) -> mpf:
    """tail's bound beyond q^trunc at |q| = r and height y, in mpf at the
    ambient precision, its few roundings covered by a relative 2^(8 - prec).

    E_k: |2k/B_k| n^k r^n / (1 - (1 + 1/n)^k r), n = trunc + 1; the eta
    product: 2 r^n / (1 - r); j: j_tail_bound.
    """
    if isinstance(tail, JCoeffTail):
        return j_tail_bound(trunc, y)
    n = trunc + 1
    if isinstance(tail, EtaProductTail):
        lead, growth = mpf(2), mpf(1)
    else:
        gamma = abs(Fraction(2 * tail.k) / qseries.bernoulli(tail.k))
        lead = mpf(gamma.numerator) / gamma.denominator * mpf(n) ** tail.k
        growth = (1 + mpf(1) / n) ** tail.k
    if growth * r >= 1:
        raise TailUnboundedError(f"tail not dominated at trunc={trunc}, r={r}")
    return lead * r ** n / (1 - growth * r) * (1 + mpf(2) ** (8 - mp.prec))


def raw_basis(fid: FormId, trunc: int | None = None) -> QSeries:
    """e_{k,m} = Delta^ell E_k' j^(ell-m) = q^m + O(q^(m+1))."""
    if trunc is None:
        trunc = default_trunc(fid.ell)
    head = trunc + fid.ell - fid.m      # each j factor costs one order
    e = delta(head) ** fid.ell * eisenstein(fid.kprime, head) \
        * jfunction(head) ** (fid.ell - fid.m)
    return e.truncate(trunc)


def reconstruct(form: MillerForm, trunc: int | None = None) -> QSeries:
    """Delta^ell * E_k' * F(j) as a q-expansion, for consistency checks."""
    fid = form.id
    if trunc is None:
        trunc = form.series.trunc
    head = trunc + fid.ell
    j = jfunction(head)
    acc = QSeries.zero(head)
    for c in reversed(form.faber.coeffs):
        acc = acc * j + c
    base = delta(head) ** fid.ell if fid.ell else QSeries.one(head)
    if fid.kprime:
        base = base * eisenstein(fid.kprime, head)
    return (base * acc).truncate(trunc)


def _start(fid: FormId, n: int) -> list:
    """V = 1 / (qd^m E_4^(3D+a) E_6^b) to n coefficients q^0.., D = ell - m."""
    a, b = EISENSTEIN_FACTORS[fid.kprime]
    return _monomial(n, -fid.m, -3 * (fid.ell - fid.m) - a, -b)


def _reduce(v: list, steps: int, big_j: list) -> tuple:
    """The greedy t = 1/j reduction in q: F's coefficients from the top
    down, and W.

    Each of the steps = D + 1 steps reads off V_0 and sets V <- (V - V_0)
    J / q, with J = big_j to at least len(v) coefficients.  What is left
    is the list W of len(v) - D - 1 coefficients.
    """
    top = []
    for _ in range(steps):
        top.append(v[0])
        v = _mul(v[1:], big_j)
    return top, v


def faber_of(series: QSeries, fid: FormId) -> IntPolynomial:
    """Faber polynomial of an arbitrary weight-k form given by q-expansion,
    by the greedy reduction V <- (V - V_0) J / q, J = q j: an O(n^3) path
    independent of the t-domain build of miller_form.

    The reduction of series / q^n0 leaves W = 0 to the series' truncation
    exactly when the series is in the space; otherwise NotInSpaceError.
    Degree is ell - n0, with n0 = ord_infty(series).
    """
    n0 = series.order
    if n0 > fid.ell:
        raise NotInSpaceError("series vanishes beyond q^ell; not a nonzero form" if not series.is_zero()
                              else "zero series has no Faber polynomial")
    if n0 < 0:
        raise NotInSpaceError("series has a pole at the cusp")
    if series.trunc < fid.ell:
        raise ValueError(f"trunc must reach ell = {fid.ell}")
    n = series.trunc - n0 + 1
    v = _mul(series.coeffs[n0 - series.lead:], _start(FormId.from_k(fid.k, n0), n))
    top, w = _reduce(v, fid.ell - n0 + 1, _monomial(n, -1, 3, 0))
    for i, c in enumerate(w):
        if c != 0:
            raise NotInSpaceError(f"residual fails to vanish at q^{fid.ell + 1 + i}")
    return IntPolynomial.make(top[::-1])


def q_over_t(a: list, b: list, m: int) -> list:
    """(q/t)^m to len(a) coefficients, from a, b = _t_series(len(a)), by its
    own recurrence: with g_i = i f_i and d = B - A, A t f' = m d f reads
    i f_i = m sum_(1 <= r <= i) d_r f_(i-r) - sum_(1 <= r <= i) A_r g_(i-r).
    """
    d = [y - x for x, y in zip(a, b)]
    f, g = [1], [0]
    for i in range(1, len(a)):
        s = m * sum(map(mul, d[1:i + 1], reversed(f))) - sum(map(mul, a[1:i + 1], reversed(g)))
        f.append(_exact_div(s, i))
        g.append(s)
    return f


def reference_t_start(fid: FormId, n: int) -> list:
    """V = (q/t)^m A^(-k/2) B^b to n coefficients composed factor by factor:
    the power A^(-k/2), times B when b = 1, times q_over_t's (q/t)^m."""
    a_t, b_t = _t_series(n)
    v = _power(a_t, -fid.k // 2)
    if EISENSTEIN_FACTORS[fid.kprime][1]:
        v = _mul(v, b_t)
    if fid.m:
        v = _mul(v, q_over_t(a_t, b_t, fid.m))
    return v


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


def sturm_chain(p: IntPolynomial) -> list:
    """Sturm sequence p, p', -rem, ... as primitive integer polynomials.

    Every remainder is a positive multiple of the rational one, so the
    sign pattern at any point matches the classical chain.
    """
    chain = [p.primitive(), p.derivative().primitive()]
    while chain[-1].degree > 0:
        r = chain[-2].rem(chain[-1])
        if r.degree < 0:
            break
        chain.append(-r)
    return chain


def squarefree_chain(p: IntPolynomial) -> tuple:
    """(square-free part of p, its Sturm chain): p's chain ends in
    gcd(p, p') up to sign, and the part is p / gcd, possibly negated."""
    chain = sturm_chain(p)
    if chain[-1].degree <= 0:
        return p, chain
    sqf = p.exact_div(chain[-1]).primitive()
    return sqf, sturm_chain(sqf)


def sturm_census(p: IntPolynomial, lo, hi, width=ROOT_WIDTH) -> tuple:
    """zeros._census by Sturm's theorem: (the leaves below width of
    bisection of (lo, hi), neither end a root, counts off [0, 1728],
    square-free defect).

    V(x), the sign changes of the square-free part's chain at x, counts
    V(a) - V(b) roots in (a, b], and V(-inf) - V(+inf), read off the
    leading coefficients, every real root.  The tree is zeros._bisect's
    in rationals: the midpoint, or when that is a root the first of
    mid + i (b - a) / 2048 that is not, splits an interval with more than
    one root, left half first; one with one root is halved on the part's
    sign until it is at most width wide.
    """
    if p.degree <= 0:
        return [], {"real_outside": 0, "complex_pairs": 0}, 0
    sqf, chain = squarefree_chain(p)

    def sign(c, x):
        return c.sign_at(x.numerator, x.denominator)

    def changes(signs) -> int:
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    @lru_cache(maxsize=None)
    def v(x) -> int:
        return changes(sign(c, x) for c in chain)

    def split(a, b):
        return next(x for x in ((a + b) / 2 + i * (b - a) / 2048 for i in range(32))
                    if sign(sqf, x))

    out, stack = [], [(Fraction(lo), Fraction(hi))]
    while stack:
        a, b = stack.pop()
        if v(a) - v(b) == 1:
            s_a = sign(sqf, a)
            while b - a > width:
                mid = split(a, b)
                a, b = (mid, b) if sign(sqf, mid) == s_a else (a, mid)
            out.append((a, b))
        elif v(a) - v(b) > 1:
            mid = split(a, b)
            stack += [(mid, b), (a, mid)]
    top = [1 if c.coeffs[-1] > 0 else -1 for c in chain]
    real = changes(-s if c.degree % 2 else s for s, c in zip(top, chain)) - changes(top)
    inside = v(Fraction(0)) - v(Fraction(1728)) + (sqf.coeffs[0] == 0)
    return out, {"real_outside": real - inside,
                 "complex_pairs": (sqf.degree - real) // 2}, p.degree - sqf.degree


@contextmanager
def iv_prec(bits=None):
    """mp and mpmath.iv both at bits, by default mp's precision: the oracles
    read mpf inputs and run their iv arithmetic at one precision."""
    bits = bits or mp.prec
    saved = iv.prec
    try:
        with workprec(bits):
            iv.prec = bits
            yield
    finally:
        iv.prec = saved


def iv_ball(z, err=0):
    """The rectangle of half-width err in each part about the mpc z, as an
    iv.mpc with its ends rounded outward at mp's precision."""
    p = mp.prec
    e = mpf_pos(mpf(err)._mpf_, p, "c")
    return iv.make_mpc(tuple((mpf_sub(t, e, p, "f"), mpf_add(t, e, p, "c"))
                             for t in mp.mpc(z)._mpc_))


def iv_widen(z, extra):
    """The iv.mpc z with every end moved out by extra, rounded outward."""
    p = mp.prec
    e = mpf_pos(mpf(extra)._mpf_, p, "c")
    return iv.make_mpc(tuple((mpf_sub(lo, e, p, "f"), mpf_add(hi, e, p, "c"))
                             for lo, hi in z._mpci_))


def iv_pair(parts):
    """eval_series' (re, im), two CertValues, as one iv.mpc."""
    return iv.make_mpc(tuple(x.re for x in parts))


def mid_rad(z) -> tuple:
    """(midpoint, radius) of an iv.mpf or iv.mpc: the exact centre, an mpf or
    an mpc, and the distance to the farthest point, rounded up at mp's
    precision."""
    parts = z._mpci_ if isinstance(z, iv.mpc) else (z._mpi_,)
    mids = [mpf_shift(mpf_add(lo, hi), -1) for lo, hi in parts]
    square = fzero
    for lo, hi in parts:
        half = mpf_shift(mpf_sub(hi, lo), -1)
        square = mpf_add(square, mpf_mul(half, half))
    err = mp.make_mpf(mpf_sqrt(square, mp.prec, "c"))
    return (mp.make_mpc(tuple(mids)) if len(mids) == 2 else mp.make_mpf(mids[0])), err


def real_part(z) -> CertValue:
    """The real part of the iv.mpc z as a CertValue, when its imaginary
    interval holds 0 (NotRealError otherwise)."""
    if 0 not in z.imag:
        raise NotRealError(f"imaginary part {z.imag} does not hold 0")
    return _interval(z.real._mpi_)


def complex_poly(coeffs, z, radius=0):
    """Enclosure of sum_i coeffs[i] w^i for every w with |w - z| <= radius:
    an iv.mpc for a complex z (an mpc), an iv.mpf for a real one.

    The kernel _horner at the scale 2^-P, P = working precision + 24, on
    the floored parts of z, so any w is within radius + 2^(2-P) of the
    point it takes; a real z runs its real loop.  The result is one
    interval per part from the units, each end rounded outward.
    """
    z = mp.mpmathify(z)
    p = mp.prec + 24
    delta = int(mp.ceil(mp.ldexp(radius, p))) + 4
    a, b, units = _horner(coeffs, _fixed(mp.re(z)._mpf_, p), _fixed(mp.im(z)._mpf_, p), delta, p)
    re, im = (_fixed_ends(c - units, c + units, p) for c in (a, b))
    return iv.make_mpc((re, im)) if isinstance(z, mp.mpc) else iv.make_mpf(re)


def power_by_squaring(x, n):
    """The binary-powering chain of padded interval products pow_int replaced."""
    with iv_prec():
        result = iv.mpf(1)
        while n:
            if n & 1:
                result = result * x
            n >>= 1
            if n:
                x = x * x
        return result


def separate_q(tau):
    """q = e^(2 pi i tau) from mpmath's complex exp, and its 16-ulp pad."""
    q = mp.exp(2j * mp.pi * mp.mpmathify(tau))
    return q, abs(q) * mpf(2) ** (4 - mp.prec)


def oracle_phase(theta, k):
    """e^(i k theta / 2) from mpmath's complex exp, with a 16-ulp pad."""
    v = mp.exp(1j * mp.ldexp(mp.fmul(theta, k, exact=True), -1))
    return iv_ball(v, abs(v) * mpf(2) ** (4 - mp.prec))


def series_at_q(s, q, pad, tail, y, power=pow):
    """s at the q held with its pad: the q^lead factor an interval power, the
    tail at |q|.  pow on an iv.mpc is mpmath's mpci_pow_int."""
    with iv_prec():
        acc = complex_poly(s.coeffs, q, pad)
        if s.lead:
            qc = power(iv_ball(q, pad), abs(s.lead))
            acc = acc * qc if s.lead > 0 else acc / qc
        return acc if tail is None else iv_widen(acc, oracle_tail(tail, s.trunc, abs(q), y))


def delta_at_q(q, pad, terms, y, power=pow):
    """Delta = q P^24 through the pentagonal eta product P at the q held."""
    with iv_prec():
        p = complex_poly(_pentagonal_euler_product(terms).coeffs, q, pad)
        p = iv_widen(p, oracle_tail(EtaProductTail(), terms, abs(q), y))
        return power(p, 24) * iv_ball(q, pad)


def separate_q_series(s, tau, tail, prec=128):
    """eval_series as it was: its own q, the q^lead factor by squaring."""
    with iv_prec(prec + 12):
        q, pad = separate_q(tau)
        return series_at_q(s, q, pad, tail, mp.im(tau), power_by_squaring)


def separate_q_delta(tau, terms, prec=128):
    """Delta evaluated alone as it was: its own q, P^24 by squaring."""
    with iv_prec(prec + 12):
        q, pad = separate_q(tau)
        return delta_at_q(q, pad, terms, mp.im(tau), power_by_squaring)


def separate_q_arc_functions(theta, prec=128):
    """arc_functions as it was: q once per series, phases as powers of e^(i theta)."""
    with iv_prec(prec + 12):
        theta = mpf(theta)
        tau = mp.exp(1j * theta)
        n = auto_trunc(mp.sin(theta), prec)
        ph = iv_ball(tau, abs(tau) * mpf(2) ** (4 - mp.prec))
        e2, e4, e6 = (separate_q_series(eisenstein(k, n), tau, EisensteinTail(k), prec)
                      for k in (2, 4, 6))
        d = separate_q_delta(tau, n, prec)
        e2 = ph * e2 + iv_ball(mp.mpc(0, -3) / mp.pi, mpf(2) ** (4 - mp.prec))
        return tuple(real_part(z) for z in (e2, power_by_squaring(ph, 2) * e4,
                                            power_by_squaring(ph, 3) * e6,
                                            power_by_squaring(ph, 6) * d))


def separate_q_form(form, tau, prec):
    """The direct evaluation as it was: Delta, E_k' and j each with their own q."""
    fid = form.id
    with iv_prec(prec + 12):
        n = auto_trunc(mp.im(tau), prec)
        dl = power_by_squaring(separate_q_delta(tau, n, prec), fid.ell)
        ek = separate_q_series(eisenstein(fid.kprime, n), tau, EisensteinTail(fid.kprime), prec)
        nj = max(n, int(1 / float(mp.im(tau)) ** 2) + 8)
        jv = separate_q_series(jfunction(nj), tau, JCoeffTail(), prec)
        return dl * ek * complex_poly(form.faber.coeffs, *mid_rad(jv))


def direct_eval_form(form, tau, prec: int = DEFAULT_PREC):
    """Certified g_{k,m}(tau) as the complex product Delta^ell E_k' F(j), an iv.mpc.

    Delta from the eta product, E_k' and j from their q-series, all at
    one q of the oracle's own (separate_q), and every factor an iv.mpc;
    the huge cancellation between Delta^ell and F(j) is absorbed by the
    unlimited exponent range.
    """
    fid = form.id
    with iv_prec(prec + _GUARD):
        tau = mp.mpmathify(tau)
        y = mp.im(tau)
        q, pad = separate_q(tau)
        n = auto_trunc(y, prec)
        dl = delta_at_q(q, pad, n, y) ** fid.ell
        if fid.kprime:
            ek = series_at_q(eisenstein(fid.kprime, n), q, pad, EisensteinTail(fid.kprime), y)
        else:
            ek = iv.mpf(1)
        nj = max(n, int(1 / float(y) ** 2) + 8)
        jv = series_at_q(jfunction(nj), q, pad, JCoeffTail(), y)
        return dl * ek * complex_poly(form.faber.coeffs, *mid_rad(jv))


def direct_arc_form(form, p, prec: int = DEFAULT_PREC) -> CertValue:
    """e^(i k theta / 2) g_{k,m}(e^(i theta)) through direct_eval_form, a real CertValue."""
    with iv_prec(prec + _GUARD):
        theta = _theta_mpf(p)
        val = direct_eval_form(form, mp.exp(1j * theta), prec=prec)
        return real_part(oracle_phase(theta, form.id.k) * val)


@pytest.fixture(scope="session")
def direct_form():
    return direct_eval_form


@pytest.fixture(scope="session")
def direct_arc():
    return direct_arc_form


@pytest.fixture(scope="session")
def form_48_1():
    return miller_form(48, 1)


@pytest.fixture(scope="session")
def form_124_1():
    return miller_form(124, 1)


@pytest.fixture(scope="session")
def form_132_9():
    return miller_form(132, 9)


@pytest.fixture(scope="session")
def ledger_entries():
    return full_ledger()


@pytest.fixture(scope="session")
def ledger_by_name(ledger_entries):
    out = {}
    for e in ledger_entries:
        assert e.name not in out, f"duplicate ledger name {e.name}"
        out[e.name] = e
    return out
