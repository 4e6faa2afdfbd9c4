"""Shared fixtures and oracles.

The expensive objects (basis forms, the bound ledger) are built once per
session; every consumer treats them as immutable.  The direct complex
evaluation of a basis form is kept here as the reference oracle for
evalnum.arc_form, which takes its real E_4/E_6 route instead; the
exact q-series products raw_basis and reconstruct, and the Ramanujan
residuals, are the oracles of the Miller basis and the q-series layer.
JCoeffTail, the j tail bound for eval_series, serves the direct
evaluation and the ball-route oracle of evalnum.arc_j, which forms its
own tail in integers.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workprec

from millerzeros import qseries
from millerzeros.miller import MillerForm, default_trunc, miller_form
from millerzeros.qseries import FormId, QSeries, delta, eisenstein, jfunction
from millerzeros.certify import full_ledger
from millerzeros.evalnum import (DEFAULT_PREC, _GUARD, CertValue, EisensteinTail, _QPoint,
                                 _phase, _series_at, _theta_mpf, auto_trunc, eval_delta_eta,
                                 eval_poly, j_tail_bound)


@dataclass(frozen=True)
class JCoeffTail:
    """The j q-series tail for eval_series: j_tail_bound at the height y."""

    def bound(self, trunc: int, r, y):
        return j_tail_bound(trunc, y)


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


def direct_eval_form(form, tau, prec: int = DEFAULT_PREC) -> CertValue:
    """Certified g_{k,m}(tau) as the complex product Delta^ell E_k' F(j).

    Delta from the eta product, E_k' and j from their q-series at one q,
    and every factor a complex CertValue; the huge cancellation between
    Delta^ell and F(j) is absorbed by the unlimited exponent range.
    """
    fid = form.id
    with workprec(prec + _GUARD):
        pt = _QPoint(tau)
        n = auto_trunc(pt.y, prec)
        dl = eval_delta_eta(tau, prec=prec).pow_int(fid.ell)
        if fid.kprime:
            ek = _series_at(qseries.eisenstein(fid.kprime, n), pt, EisensteinTail(fid.kprime))
        else:
            ek = CertValue(mpf(1))
        nj = max(n, int(1 / float(pt.y) ** 2) + 8)
        jv = _series_at(qseries.jfunction(nj), pt, JCoeffTail())
        return dl * ek * eval_poly(form.faber.coeffs, jv.value, jv.err)


def direct_arc_form(form, p, prec: int = DEFAULT_PREC) -> CertValue:
    """e^(i k theta / 2) g_{k,m}(e^(i theta)) through direct_eval_form."""
    with workprec(prec + _GUARD):
        theta = _theta_mpf(p)
        val = direct_eval_form(form, mp.expj(theta), prec=prec)
        return (_phase(theta, form.id.k) * val).as_real()


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
