"""Root census (interlacing certificate and Descartes isolation, against a
Sturm oracle), arc localization, valence accounting, distribution."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_cos_sin

from millerzeros.qseries import EISENSTEIN_FACTORS, FormId
from millerzeros.evalnum import DEFAULT_PREC, arc_functions, arc_j
from millerzeros import evalnum, zeros
from millerzeros.miller import IntPolynomial, miller_basis, miller_form
from conftest import direct_arc_form, squarefree_chain, sturm_census
from millerzeros.zeros import (
    ROOT_WIDTH, InconclusiveSignError, TheoremViolationError, _exact, _j_ends,
    _separated_signs, _separators, _sign_change_inside,
    _bisect, _census, _deflated, _interlaced_census, _isolate, _reduced, _squarefree,
    real_root_census,
    cauchy_bound, _root_power,
    HFunction, arc_zero_localize, refine_arc_zero, j_of_angle, _bisect_arc,
    trivial_orders, ZeroReport, zero_report, valence_reconcile,
    verify_theorem_m1, star_discrepancy, zero_angles, distribution_stats,
)


def poly_from_roots(roots, extra=None):
    p = IntPolynomial.make([1])
    for r in roots:
        p = p * IntPolynomial.make([-r, 1])
    if extra is not None:
        p = p * extra
    return p


COEFFS = st.lists(st.integers(-9, 9), min_size=3, max_size=7)
ROOTS = st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True)


# ---------------------------------------------------------------------------
# exact polynomial plumbing


def _divmod_oracle(a: list, b: list) -> tuple:
    """Dense Fraction long division, the reference for IntPolynomial.rem."""
    r = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        q[shift] = r[shift + len(b) - 1] / b[-1]
        for i, bc in enumerate(b):
            r[shift + i] -= q[shift] * bc
    return q, r[:len(b) - 1]


def _eval(c: list, x: Fraction):
    return sum(a * x ** i for i, a in enumerate(c))


def _sign_at(p, x: Fraction) -> int:
    return p.sign_at(x.numerator, x.denominator)


@settings(max_examples=40, deadline=None)
@given(COEFFS, st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_poly_divmod_reconstructs(a, b):
    while b and b[-1] == 0:        # divisor must arrive trimmed
        b = b[:-1]
    if not b:
        return
    pa, pb = IntPolynomial.make(a), IntPolynomial.make(b)
    assert (pa * pb).exact_div(pb) == pa
    q, r = _divmod_oracle(a, b)
    x = Fraction(3, 7)
    assert _eval(a, x) == _eval(q, x) * _eval(b, x) + _eval(r, x)
    got = pa.rem(pb)
    assert got.degree < pb.degree
    if not any(r):
        assert got.degree < 0
    else:                          # a positive multiple of the rational remainder
        top = max(i for i, c in enumerate(r) if c)
        scale = got.coeffs[top] / r[top]
        assert scale > 0 and len(got.coeffs) == top + 1
        assert all(g == scale * c for g, c in zip(got.coeffs, r))
    for x in (Fraction(3, 7), Fraction(-5, 2), Fraction(0), Fraction(2)):
        v = _eval(a, x)
        assert _sign_at(pa, x) == (v > 0) - (v < 0)


def test_exact_div_rejects_inexact():
    with pytest.raises(ArithmeticError):
        IntPolynomial.make([1, 0, 1]).exact_div(IntPolynomial.make([-1, 1]))
    with pytest.raises(ArithmeticError):        # rational but not integral
        IntPolynomial.make([0, 0, 1]).exact_div(IntPolynomial.make([1, 2]))


def test_primitive_scaling():
    assert IntPolynomial.make([4, 8]).primitive() == IntPolynomial.make([1, 2])
    assert IntPolynomial.make([-6, -9]).primitive() == \
        IntPolynomial.make([-2, -3])            # positive content keeps signs
    assert IntPolynomial.make([0]).primitive() == IntPolynomial.make([0])


def test_squarefree_part():
    p = poly_from_roots([1, 1, -2])         # (t-1)^2 (t+2)
    got, off = real_root_census(p)
    assert len(got) == 2 and off == {"real_outside": 1, "complex_pairs": 0}
    assert got[0][0] < -2 < got[0][1] and got[1][0] < 1 < got[1][1]
    sqf, want = _squarefree(p), squarefree_chain(p)[0]
    assert sqf.degree == 2 and sqf(1) == 0 and sqf(-2) == 0 and sqf in (want, -want)
    assert len(real_root_census(poly_from_roots([3, 5]))[0]) == 2


@pytest.mark.parametrize("top", [900, 1100])
def test_real_root_census_splits_past_the_recursion_limit(top):
    # (x - 1)(x - 2)(x - 2^top): the Cauchy interval, over 2^top wide, takes
    # about top nested splits before 1 and 2 fall apart, past Python's
    # 1,000-frame limit at 2^1100; each root gets its own cell, in order
    roots = [1, 2, 2 ** top]
    got, off = real_root_census(poly_from_roots(roots))
    assert len(got) == 3 and off == {"real_outside": 1, "complex_pairs": 0}
    for (a, b), r in zip(got, roots):
        assert a < r < b and b - a <= ROOT_WIDTH


@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1)])
def test_real_root_census_refuses_a_width_it_cannot_reach(width, form_48_1):
    # at width 0 the cells came back 95, 95 and 380 wide, and at -1 the
    # bisection never ended
    with pytest.raises(ValueError, match="width"):
        real_root_census(form_48_1.faber, width=width)


def test_real_root_census_takes_a_float_width_exactly(form_48_1):
    # a float width raised AttributeError deep in _bisect; it is now the
    # exact Fraction of the double
    got, off = real_root_census(form_48_1.faber, width=1e-3)
    assert (got, off) == real_root_census(form_48_1.faber, width=Fraction(1e-3))
    assert len(got) == 3 and all(hi - lo <= 1e-3 for lo, hi in got)


@pytest.mark.parametrize("coeffs", [[0], [0, 0, 0]])
def test_real_root_census_refuses_the_zero_polynomial(coeffs):
    # every real number is a root; cauchy_bound raised ZeroDivisionError on it
    with pytest.raises(ValueError, match="zero polynomial"):
        real_root_census(IntPolynomial.make(coeffs))
    assert real_root_census(IntPolynomial.make([5])) == ([], {"real_outside": 0,
                                                              "complex_pairs": 0})


@pytest.mark.parametrize("width", [0, -1e-5, 1e-20])
def test_refine_arc_zero_refuses_a_width_it_cannot_reach(width, form_48_1):
    # 0 and a negative width are never reached; at 1e-20 the double
    # midpoint of the cell stops moving near 1.6, where an ulp is 2e-16
    lo, hi = arc_zero_localize(form_48_1)[0]
    with pytest.raises(ValueError, match="width"):
        refine_arc_zero(form_48_1, lo, hi, width=width)


def test_bisect_arc_refuses_a_cell_it_cannot_halve():
    lo = mpf(1)
    with pytest.raises(ValueError, match="no midpoint"):
        _bisect_arc(lo, lo + mp.eps, mpf(0), lambda t: 1 if t < 1 else -1)


def test_sturm_isolate_simple_triple():
    p = poly_from_roots([1, 2, 3])
    got, _ = real_root_census(p, width=Fraction(1, 100))
    assert len(got) == 3
    for (lo, hi), root in zip(got, (1, 2, 3)):
        assert lo <= root <= hi and hi - lo <= Fraction(1, 100)


def test_bisect_refuses_a_root_at_an_end():
    p = poly_from_roots([1, 4])
    roots = _isolate(p)
    for lo, hi in ((Fraction(1), Fraction(5)), (Fraction(0), Fraction(4))):
        with pytest.raises(ArithmeticError):
            _bisect(p, roots, lo, hi, ROOT_WIDTH)
    got = _bisect(p, roots, Fraction(0), Fraction(5), ROOT_WIDTH)
    assert len(got) == 2 and got == sturm_census(p, 0, 5)[0]


def _bisected(monkeypatch) -> list:
    """Record the interval (lo, hi) of each _bisect call."""
    calls, inner = [], zeros._bisect

    def recorded(p, roots, lo, hi, width):
        calls.append((lo, hi))
        return inner(p, roots, lo, hi, width)

    monkeypatch.setattr(zeros, "_bisect", recorded)
    return calls


def _sturm_leaves(p) -> list:
    """The leaves of bisection on a Sturm chain of p over [0, 1728]."""
    return sturm_census(p, 0, 1728)[0]


# (x - 100)(x - 1000.5)(x - 1500): simple roots in distinct depth-20 cells
SPREAD = IntPolynomial.make([-100, 1]) * IntPolynomial.make([-2001, 2]) * poly_from_roots([1500])
CELL = Fraction(1728, 2 ** 20)          # the depth-20 cell, the first of width <= ROOT_WIDTH


def test_direct_cells_are_the_leaves_of_bisection(monkeypatch):
    # guesses in the right cells: every leaf is taken with no bisection at
    # all, and it is the one that bisection on a Sturm chain ends in
    want = _sturm_leaves(SPREAD)
    calls = _bisected(monkeypatch)
    assert zeros._root_cells(SPREAD, [1499.9999, 100.0001, 1000.5]) == want
    assert calls == [] and len(want) == 3 and all(b - a == CELL for a, b in want)


def test_direct_cells_fail_acceptance_on_a_shifted_or_dropped_root(monkeypatch, form_48_1):
    # a guess one cell off, or one root without a guess, cannot account for
    # deg p roots: no cells; in zero_report Sturm then decides, as it would
    # alone
    for guesses in ([100.0001, 1000.5 + float(CELL), 1499.9999], [100.0001, 1499.9999]):
        assert zeros._root_cells(SPREAD, guesses) is None
    want, secular = _sturm_oracle(form_48_1), zeros._secular_roots
    assert _report_census(zero_report(form_48_1, with_arc=False)) == want
    calls = _bisected(monkeypatch)
    for spoil in (lambda g: [g[0] + float(CELL)] + g[1:], lambda g: g[:-1]):
        monkeypatch.setattr(zeros, "_secular_roots", lambda *args: spoil(secular(*args)))
        calls.clear()
        assert _report_census(zero_report(form_48_1, with_arc=False)) == want
        assert calls == [(0, 1728)]


def test_direct_cells_decline_a_root_on_the_grid(monkeypatch):
    # 432 = 1728 / 4 is a grid point, so the guessed cell has the root at
    # an end: its exact sign there is 0, no cells are taken, and Sturm
    # decides; F_{34,1} is j - 432 and takes the same way through
    # zero_report.  Bisection itself steps around grid roots, as at 432 and
    # at 3 and 5 on the Cauchy interval [-16, 16] of (x - 3)(x - 5)
    p = poly_from_roots([432, 1001])
    assert zeros._root_cells(p, [432.0, 1001.0]) is None
    lo, hi = _sturm_leaves(p)[0]
    assert lo < 432 < hi
    form = miller_form(34, 1)
    assert form.faber == poly_from_roots([432])
    assert _interlaced_census(form.faber, form.id) is None
    calls = _bisected(monkeypatch)
    assert _report_census(zero_report(form, with_arc=False)) == _sturm_oracle(form)
    assert calls == [(0, 1728)]
    got, _ = real_root_census(poly_from_roots([3, 5]))
    assert [lo < r < hi for (lo, hi), r in zip(got, (3, 5))] == [True, True]


def test_two_roots_in_one_cell_take_the_next_depth(monkeypatch):
    # 100 and 100.0005 share a depth-20 cell but not a depth-21 one: their
    # leaves are depth-21 cells, taken with no bisection, and the other
    # root keeps its depth-20 cell
    p = IntPolynomial.make([-200000, 2000]) * IntPolynomial.make([-200001, 2000]) \
        * poly_from_roots([1500])
    want = _sturm_leaves(p)
    calls = _bisected(monkeypatch)
    assert zeros._root_cells(p, [100.0, 100.0005, 1500.0]) == want
    assert calls == [] and [b - a for a, b in want] == [CELL / 2, CELL / 2, CELL]


def test_root_cells_refuse_equal_or_outlying_guesses():
    # two equal guesses never part, and a guess off [0, 1728) names no cell
    # of the tree; both give None, so Sturm decides
    for guesses in ([100.0001, 100.0001, 1499.9999], [100.0001, 1000.5, 1728.0],
                    [-1.0, 1000.5, 1499.9999]):
        assert zeros._root_cells(SPREAD, guesses) is None


def _is_cell(a: Fraction, b: Fraction) -> bool:
    """Whether [a, b] is a dyadic cell 1728 [c, c + 1] / 2^d."""
    w = (b - a) / 1728
    return w.numerator == 1 and w.denominator & (w.denominator - 1) == 0 \
        and (a / 1728 / w).denominator == 1


# roots in (0, 1728): grid points 1728 c / 2^e, c odd, and rationals of small denominator
GRID_ROOTS = st.builds(lambda e, c: Fraction(1728 * (2 * (c % 2 ** (e - 1)) + 1), 2 ** e),
                       st.integers(1, 24), st.integers(0, 2 ** 23))
PLAIN_ROOTS = st.builds(lambda n, d: Fraction(n % (1728 * d - 1) + 1, d),
                        st.integers(0, 10 ** 6), st.integers(1, 37))
# a root and a second one within a depth-20 cell of it, down to 2^-40 apart
CLUSTERS = st.builds(lambda r, e, n: [r, r + Fraction(n, 2 ** e)], PLAIN_ROOTS,
                     st.integers(10, 40), st.integers(1, 3)).filter(lambda rs: rs[1] < 1728)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.one_of(PLAIN_ROOTS.map(lambda r: [r]), GRID_ROOTS.map(lambda r: [r]), CLUSTERS),
                min_size=1, max_size=4),
       st.sampled_from(["exact", "shift", "scale", "drop", "duplicate"]),
       st.integers(0, 7), st.integers(-3, 3))
def test_root_cells_are_the_sturm_leaves_or_none(groups, spoil, index, step):
    """_root_cells on guesses of the roots, exact as doubles or spoiled, is
    None or exactly the leaves of bisection on a Sturm chain; when every
    leaf is a dyadic cell holding its guess strictly inside, it is those
    leaves."""
    roots = sorted(set(r for g in groups for r in g))
    p = IntPolynomial.make([1])
    for r in roots:
        p = p * IntPolynomial.make([-r.numerator, r.denominator])
    guesses = [float(r) for r in roots]
    i = index % len(guesses)
    if spoil == "shift":
        guesses[i] += step * float(CELL)
    elif spoil == "scale":
        guesses[i] *= 1 + step * 2.0 ** -30
    elif spoil == "drop":
        del guesses[i]
    elif spoil == "duplicate":
        guesses.append(guesses[i])
    want = _sturm_leaves(p)
    got = zeros._root_cells(p, guesses)
    assert got is None or got == want
    if len(guesses) == len(want) and all(
            _is_cell(a, b) and a < Fraction(g) < b for (a, b), g in zip(want, sorted(guesses))):
        assert got == want


# roots for the census: grid points of [0, 1728], its ends, and rationals on either side
CENSUS_ROOTS = st.one_of(GRID_ROOTS, st.sampled_from([Fraction(0), Fraction(1728)]),
                         st.builds(Fraction, st.integers(-3000, 3000), st.integers(1, 9)))
# (d x - n)^2 + 1: the complex pair (n +- i) / d, 1 / d off the real axis
NEAR_PAIRS = st.builds(lambda n, d: IntPolynomial.make([n * n + 1, -2 * n * d, d * d]),
                       st.integers(-3000, 3000), st.integers(1, 2 ** 40))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(CENSUS_ROOTS, st.integers(1, 3)), min_size=1, max_size=5),
       st.lists(NEAR_PAIRS, max_size=2))
@example([(Fraction(1), 1), (Fraction(2), 1), (Fraction(2 ** 1100), 1)], [])
def test_census_equals_the_sturm_oracle(roots, pairs):
    """real_root_census on the Cauchy interval and _census on [0, 1728],
    with its ends deflated, give the Sturm oracle's intervals and counts:
    roots at grid points and at 0, square factors (defect > 0), complex
    pairs near the real axis, and the cluster 1, 2, 2^1100."""
    p = IntPolynomial.make([1])
    for r, mult in roots:
        for _ in range(mult):
            p = p * IntPolynomial.make([-r.numerator, r.denominator])
    for pair in pairs:
        p = p * pair
    b = cauchy_bound(p)
    assert real_root_census(p) == sturm_census(p, -b, b)[:2]
    inner = _deflated(p)[2]
    assert _census(inner, 0, 1728, ROOT_WIDTH) == sturm_census(inner, 0, 1728)


# F(0) = 0 at the Cauchy interval's midpoint: (126, 9), (250, 19); a root
# below 0: (132, 9); a complex pair: (258, 19), (300, 20)
@pytest.mark.parametrize("k, m", [(48, 1), (124, 1), (240, 1), (126, 9), (132, 9), (250, 19),
                                  (258, 19), (300, 20)])
def test_real_root_census_equals_the_sturm_oracle_on_forms(k, m):
    faber = miller_form(k, m).faber
    b = cauchy_bound(faber)
    assert real_root_census(faber) == sturm_census(faber, -b, b)[:2]


RATIONALS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))


@settings(max_examples=80, deadline=None)
@given(COEFFS, RATIONALS, st.builds(Fraction, st.integers(1, 60), st.integers(1, 9)),
       st.integers(0, 14), st.integers(0, 2 ** 14))
def test_dyadic_sign_kernel_matches_fraction(coeffs, lo, span, e, n):
    """The affine map and dyadic kernel give p's exact sign at every grid point."""
    p, hi, n = IntPolynomial.make(coeffs), lo + span, n % (2 ** e + 1)
    t = Fraction(n, 2 ** e)
    m, f = _reduced(n, e)
    assert Fraction(m, 2 ** f) == t and (m % 2 or f == 0)
    v = _eval(coeffs, lo + (hi - lo) * t)
    q = p.affine(lo, hi)
    assert q.sign_at(n, 1 << e) == q.sign_at(m, 1 << f) == (v > 0) - (v < 0)


def _scaled_oracle(p, a: int, b: int):
    """b^d p(a / b), d = max(deg p, 0), in Fractions: the reference for scaled_at."""
    x = Fraction(a, b)
    return sum(c * x ** i for i, c in enumerate(p.coeffs)) * b ** max(p.degree, 0)


SCALED_B = st.one_of(st.just(1), st.integers(0, 400).map(lambda e: 1 << e),
                     st.builds(lambda e, odd: (2 * odd + 1) << e,
                               st.integers(0, 400), st.integers(0, 10 ** 6)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-2 ** 70, 2 ** 70)), min_size=1, max_size=41),
       st.one_of(st.just(0), st.integers(-2 ** 80, 2 ** 80)), SCALED_B)
def test_sign_at_matches_fraction_horner(coeffs, a, b):
    """scaled_at(a, b) is b^d p(a / b) and sign_at(a, b) its sign, at degree
    0 to 40, b = 1, a power of two up to 2^400 (the shift-only loop) or
    2^e times an odd number, reduced or not."""
    p = IntPolynomial.make(coeffs)
    v = _scaled_oracle(p, a, b)
    assert p.scaled_at(a, b) == v
    assert p.sign_at(a, b) == (v > 0) - (v < 0)


@pytest.mark.parametrize("coeffs", [[0], [0, 0, 0], [5], [-3, 0]])
def test_scaled_at_of_constant_and_zero_polynomials(coeffs):
    p = IntPolynomial.make(coeffs)
    for a in (0, 3, -7, 2 ** 90 + 1):
        for b in (1, 2, 1 << 400, 3 << 7, 5 ** 9):
            assert p.scaled_at(a, b) == _scaled_oracle(p, a, b) == coeffs[0]
            assert p.sign_at(a, b) == (coeffs[0] > 0) - (coeffs[0] < 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(RATIONALS, min_size=1, max_size=4), st.integers(1, 30), st.integers(1, 7))
def test_isolation_against_known_rational_roots(roots, c, lead):
    """Each distinct rational root is bracketed exactly once, whatever the bound's denominator."""
    p = IntPolynomial.make([c, 0, lead])
    for r in roots:
        p = p * IntPolynomial.make([-r.numerator, r.denominator])
    width = Fraction(1, 100)
    got, off = real_root_census(p, width)
    distinct = sorted(set(roots))
    assert len(got) == len(distinct)
    for r in distinct:
        assert sum(lo <= r <= hi for lo, hi in got) == 1
    assert all(0 <= hi - lo <= width for lo, hi in got)
    outside = sum(1 for r in distinct if not 0 <= r <= 1728)
    assert off == {"real_outside": outside, "complex_pairs": 1}


@settings(max_examples=60, deadline=None)
@given(ROOTS, st.integers(1, 30), st.integers(1, 5))
def test_root_power_lies_strictly_above_every_root(roots, c, lead):
    # every root, complex ones included (|root| <= sqrt c), lies strictly inside
    p = poly_from_roots(roots, extra=IntPolynomial.make([c * lead, 0, lead]))
    bound = _root_power(p)
    assert bound.numerator & (bound.numerator - 1) == 0 == bound.denominator & (bound.denominator - 1)
    assert max(abs(r) for r in roots) < bound and c < bound ** 2


def test_bisect_takes_no_sign_beyond_the_root_bound(monkeypatch):
    # (x + 1000)(x + 1001)(x^8 + 10^30) has its real roots at -1001 and
    # -1000 and the Cauchy bound about 10^36, so counting splits [-b, 0] at
    # -b / 2, -b / 4, ... far beyond -_root_power.  No isolated root lies
    # there, so none of those points takes a sign: beyond +-B only the
    # ends' own two signs are taken
    p = poly_from_roots([-1000, -1001], extra=IntPolynomial.make([10 ** 30] + [0] * 7 + [1]))
    b, bound = cauchy_bound(p), _root_power(p)
    assert 1001 < bound < 10 ** 5 and b > 10 ** 35
    roots, want = _isolate(p), sturm_census(p, -b, b)[0]
    signed, placed = [], []
    sign_at, roots_to = IntPolynomial.sign_at, zeros._roots_to

    def recorded(self, a, d=1):
        # p's own signs at x, or those of p mapped onto [0, 1] at t
        signed.append(Fraction(a, d) if self == p else -b + 2 * b * Fraction(a, d))
        return sign_at(self, a, d)

    monkeypatch.setattr(IntPolynomial, "sign_at", recorded)
    monkeypatch.setattr(zeros, "_roots_to", lambda *args: placed.append(args[2]) or roots_to(*args))
    got = _bisect(p, roots, -b, b, ROOT_WIDTH)
    assert got == want and [lo < r < hi for (lo, hi), r in zip(got, (-1001, -1000))] == [True, True]
    assert len([x for x in placed if x < -bound]) > 100
    assert [x for x in signed if abs(x) >= bound] == [-b, b]


def test_bisect_signs_no_split_beyond_the_root_bound(monkeypatch):
    # (x - 1000)(x - 1001) has the Cauchy bound 1001001, and B = 4096:
    # counting splits [0, b] at b / 2, b / 4, ... without a sign, since
    # no root lies beyond B; the one-root leaves start far inside it
    p = poly_from_roots([1000, 1001])
    b, bound = cauchy_bound(p), _root_power(p)
    assert bound == 4096 and b == 1001001
    mids, inner = [], zeros._safe_point

    def recorded(q, lo, hi):
        na, nb, e = zeros._common(lo, hi)
        mids.append(-b + 2 * b * Fraction(na + nb, 2 << e))
        return inner(q, lo, hi)

    monkeypatch.setattr(zeros, "_safe_point", recorded)
    got, _ = real_root_census(p)
    assert [lo < r < hi for (lo, hi), r in zip(got, (1000, 1001))] == [True, True]
    assert mids and all(abs(x) < bound for x in mids)


def test_isolation_on_non_dyadic_cauchy_bound():
    p = IntPolynomial.make([-1, 3]) * IntPolynomial.make([-5, 1]) * IntPolynomial.make([1, 0, 3])
    b = cauchy_bound(p)
    assert b.denominator & (b.denominator - 1)         # not a power of two
    got, _ = real_root_census(p)
    assert len(got) == 2
    assert got[0][0] < Fraction(1, 3) < got[0][1] and got[1][0] < 5 < got[1][1]


def test_count_off_interval_cases():
    def off(p):
        return real_root_census(p)[1]
    assert off(IntPolynomial.make([1, 0, 1])) == {"real_outside": 0, "complex_pairs": 1}
    assert off(poly_from_roots([-5, 2000])) == {"real_outside": 2, "complex_pairs": 0}
    assert off(poly_from_roots([0, 1728, 100])) == \
        {"real_outside": 0, "complex_pairs": 0}       # endpoints count inside
    assert off(poly_from_roots([500])) == {"real_outside": 0, "complex_pairs": 0}


@pytest.mark.parametrize("roots, double, pairs", [
    ([-7, 3, 2000], 3, 1), ([-3000, -1, 1729], -2, 2), ([5000], 10, 0), ([-1, 1800], 1900, 3)])
def test_count_off_from_the_chain_at_infinity(roots, double, pairs):
    # complex pairs, roots below 0 and above 1728 and a square factor, odd and
    # even degrees: the counts read off the chain's leading signs are the known ones
    extra = poly_from_roots([double, double])
    for c in range(1, pairs + 1):
        extra = extra * IntPolynomial.make([4 * c * c + 1, 2, 1])      # (x + 1)^2 + 4c^2
    distinct = set(roots) | {double}
    _, off = real_root_census(poly_from_roots(roots, extra=extra))
    assert off == {"real_outside": sum(1 for r in distinct if not 0 <= r <= 1728),
                   "complex_pairs": pairs}


@settings(max_examples=30, deadline=None)
@given(ROOTS, st.integers(1, 30))
def test_isolation_against_known_roots(roots, c):
    p = poly_from_roots(roots, extra=IntPolynomial.make([c, 0, 1]))
    assert cauchy_bound(p) > max(abs(r) for r in roots)
    got, off = real_root_census(p, width=Fraction(1, 64))
    assert len(got) == len(roots)
    for (lo, hi), root in zip(got, sorted(roots)):
        assert lo <= root <= hi
    assert off["complex_pairs"] == 1
    outside = sum(1 for r in roots if not 0 <= r <= 1728)
    assert off["real_outside"] == outside


# ---------------------------------------------------------------------------
# the phase function

def test_hfunction_monotone_flags():
    assert HFunction(48, 1).monotone
    assert not HFunction(12, 1).monotone          # 12 < 4 pi
    assert HFunction(132, 9).monotone
    assert not HFunction(120, 10).monotone


def test_hfunction_sample_angles_counts():
    for (k, m) in ((48, 1), (192, 1), (240, 2)):
        fid = FormId.from_k(k, m)
        angles = HFunction(k, m).sample_angles()
        assert len(angles) == fid.ell - fid.m + 1
        with workprec(96):
            lo, hi = mp.pi / 2, 2 * mp.pi / 3
            prev = None
            h = HFunction(k, m)
            for n, theta in angles:
                assert lo - mpf(2) ** -40 <= theta <= hi + mpf(2) ** -40
                assert abs(h(theta) - n * mp.pi) < mpf(2) ** -60 * k
                if prev is not None:
                    assert theta > prev
                prev = theta


def bisect_angle(h, n):
    """The angle where h = n pi, by 110 bisection steps at 96 bits."""
    with workprec(96):
        target = n * mp.pi
        a, b = mp.pi / 2, 2 * mp.pi / 3
        for _ in range(110):
            mid = (a + b) / 2
            if h(mid) < target:
                a = mid
            else:
                b = mid
        return (a + b) / 2


def bisection_sample_angles(h):
    """The 110-step bisection of h at 96 bits that Newton's method replaced."""
    n0 = -((-h.k) // 4)
    n_last = (h.k - 3 * h.m) // 3
    out = []
    with workprec(96):
        lo_all, hi_all = mp.pi / 2, 2 * mp.pi / 3
        for n in range(n0, n_last + 1):
            if 4 * n == h.k:
                out.append((n, lo_all))
            elif 3 * n == h.k - 3 * h.m:
                out.append((n, hi_all))
            else:
                out.append((n, bisect_angle(h, n)))
    return out


# the arc-zeros benchmark pool: k and 840 - k for 384 < k < 420, k not 0 mod
# 12, and four weights near 1920, all at m = 1
POOL_WEIGHTS = ([k for k in range(384, 421, 2) if k % 12]
                + [840 - k for k in range(384, 421, 2) if k % 12]
                + [1900, 1912, 1924, 1936])


def test_hfunction_newton_angles_match_bisection():
    # h(theta -+ 2^-80) falls short of / passes n pi by more than 2^-88 |n pi|,
    # above the rounding of h at 96 bits, so the root lies within 2^-80 of
    # theta; where theta -+ 2^-79 round to one float, theta and the root do too
    step, wide = mpf(2) ** -80, mpf(2) ** -79
    for k in POOL_WEIGHTS:
        h = HFunction(k, 1)
        got = h.sample_angles()
        assert [n for n, _ in got] == list(range(-(-k // 4), (k - 3) // 3 + 1))
        with workprec(96):
            for n, theta in got:
                if 4 * n == k:
                    assert theta == mp.pi / 2
                elif 3 * n == k - 3:
                    assert theta == 2 * mp.pi / 3
                else:
                    target = n * mp.pi
                    margin = mp.ldexp(target, -88)
                    assert h(theta - step) < target - margin, (k, n)
                    assert h(theta + step) > target + margin, (k, n)
                    if float(theta - wide) != float(theta + wide):
                        assert float(theta) == float(bisect_angle(h, n)), (k, n)
    for k in (POOL_WEIGHTS[0], POOL_WEIGHTS[-5], POOL_WEIGHTS[-1]):
        h = HFunction(k, 1)
        got, ref = h.sample_angles(), bisection_sample_angles(h)
        assert [n for n, _ in got] == [n for n, _ in ref]
        assert [float(t) for _, t in got] == [float(t) for _, t in ref], k
        assert max(abs(a - b) for (_, a), (_, b) in zip(got, ref)) < step


def mpf_polish_angles(h):
    """sample_angles' Newton polish as it ran on mpf objects under
    workprec(96), before it moved to libmp values: the reference for the
    96-bit tuples."""
    k, m = h.k, h.m
    out = []
    with workprec(96):
        lo_all, hi_all = mp.pi / 2, 2 * mp.pi / 3
        tol = mpf(2) ** -60
        half_k, two_pi_m = mpf(k) / 2, 2 * mp.pi * m
        for n, theta in h.double_angles():
            if theta is None:
                out.append((n, lo_all if 4 * n == k else hi_all))
                continue
            theta, target = mpf(theta), n * mp.pi
            while True:
                c, s = (mp.make_mpf(v) for v in mpf_cos_sin(theta._mpf_, 96, "n"))
                step = (k * theta / 2 + two_pi_m * c - target) / (half_k - two_pi_m * s)
                theta -= step
                if abs(step) < tol:
                    break
            out.append((n, theta))
    return out


def test_sample_angles_match_the_mpf_polish_bit_for_bit():
    # the golden below hashes only the doubles; this pins every 96-bit tuple
    pairs = ([(k, 1) for k in POOL_WEIGHTS]
             + [(k, m) for m in (2, 5, 9) for k in range(40, 401, 22) if HFunction(k, m).monotone])
    assert len(pairs) > 60
    for k, m in pairs:
        h = HFunction(k, m)
        got, want = h.sample_angles(), mpf_polish_angles(h)
        assert [(n, t._mpf_) for n, t in got] == [(n, t._mpf_) for n, t in want], (k, m)


def _angle_digest(pairs) -> str:
    """sha256 of the sample angles of each (k, m) as doubles, one line per pair."""
    lines = (f"{k},{m}:" + ",".join(repr(float(t)) for _, t in HFunction(k, m).sample_angles())
             for k, m in pairs)
    text = "\n".join(lines)
    return hashlib.sha256(text.encode()).hexdigest()


# the doubles of the sample angles from the 96-bit Newton iteration that
# started at the tangent points, before the double Newton and its polish
SAMPLE_ANGLE_SHA256 = {
    "pool": "34dbb0b82d6d78d6625a37e31253132e04835b5ffcc24bc16b3d320d640b4a4f",
    (240, 2): "b78dc25ab84e7440318a0a5dae4c800375d42c12d51340d8026d7acbc6926406",
    (600, 3): "4e1322ff6decdae4e5575d6c45db9441ee80d5e35ef9568ff0ce6a99c8fa6185",
    (360, 10): "ea35524ad1e17c76c9ca21c986c1fc419fc6088106a29a82ba9b9b5b0e19a496",
}


def test_sample_angle_doubles_golden():
    assert _angle_digest([(k, 1) for k in POOL_WEIGHTS]) == SAMPLE_ANGLE_SHA256["pool"]
    for pair in ((240, 2), (600, 3), (360, 10)):
        assert _angle_digest([pair]) == SAMPLE_ANGLE_SHA256[pair], pair


def test_hfunction_rejects_non_monotone_sampling():
    with pytest.raises(ValueError):
        HFunction(12, 1).sample_angles()


# ---------------------------------------------------------------------------
# arc localization

def test_arc_zero_localize_48(form_48_1):
    brackets = arc_zero_localize(form_48_1)
    assert len(brackets) == 3
    lo_all, hi_all = math.pi / 2, 2 * math.pi / 3
    for lo, hi in brackets:
        assert lo_all - 1e-12 <= lo < hi <= hi_all + 1e-12
    flat = [x for iv in brackets for x in iv]
    assert flat == sorted(flat)


def test_arc_zero_localize_degree_zero():
    assert arc_zero_localize(miller_form(12, 1)) == []
    assert arc_zero_localize(miller_form(16, 1)) == []


def _sampled(form) -> list:
    """The angles arc_zero_localize samples: no corner with an exact Faber root."""
    fid = form.id
    skip_i, skip_rho = form.faber(1728) == 0, form.faber(0) == 0
    return [t for n, t in HFunction(fid.k, fid.m).sample_angles()
            if not (skip_i and 4 * n == fid.k) and not (skip_rho and 3 * n == fid.k - 3 * fid.m)]


def _direct_sign(form, theta) -> int:
    """The sign of G(theta) from the 400-bit direct oracle, never 0."""
    s = direct_arc_form(form, theta, prec=400).certified_sign()
    assert s != 0, (form.id, theta)
    return s


def _per_sample_brackets(form) -> list:
    """The brackets from the direct oracle's sign at each sample."""
    thetas = _sampled(form)
    signs = [_direct_sign(form, t) for t in thetas]
    return [(float(a), float(b)) for a, b, s, r in zip(thetas, thetas[1:], signs, signs[1:])
            if s != r]


def _per_pair_brackets(form) -> list:
    """The brackets from _sign_change_inside on each pair of neighbouring samples."""
    thetas = _sampled(form)
    ends = [_j_ends(t) for t in thetas]
    return [(float(a), float(b)) for a, b, e, f in zip(thetas, thetas[1:], ends, ends[1:])
            if _sign_change_inside(form.faber, e, f)]


@pytest.mark.parametrize("kprime", sorted(EISENSTEIN_FACTORS))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_certified_arc_sign_matches_direct_evaluation(kprime, m):
    # a certified sign change of F between two samples' j enclosures against a
    # change of the complex Delta^ell E_k' F(j), pair by pair
    form = miller_form(12 * (m + 4) + kprime, m)
    thetas = _sampled(form)
    ends = [_j_ends(t) for t in thetas]
    signs = [_direct_sign(form, t) for t in thetas]
    for e, f, s, r in zip(ends, ends[1:], signs, signs[1:]):
        assert _sign_change_inside(form.faber, e, f) == (s != r)
    assert sum(s != r for s, r in zip(signs, signs[1:])) == form.id.ell - m


def test_sign_change_inside_rejects_overlapping_enclosures():
    p = IntPolynomial.make([-5, 1])
    assert _sign_change_inside(p, (Fraction(7), Fraction(8)), (Fraction(2), Fraction(3)))
    assert not _sign_change_inside(p, (Fraction(7), Fraction(8)), (Fraction(5), Fraction(6)))
    # a root inside an enclosure, not in the gap, certifies nothing
    inside = IntPolynomial.make([-15, 2])
    assert not _sign_change_inside(inside, (Fraction(7), Fraction(8)), (Fraction(2), Fraction(3)))
    # the ends decide when the short dyadics sit past a root close to an end
    near = IntPolynomial.make([-(2 ** 60 * 7 - 1), 2 ** 60])
    assert _sign_change_inside(near, (Fraction(7), Fraction(8)), (Fraction(2), Fraction(3)))
    for b in ((Fraction(6), Fraction(7)), (Fraction(6), Fraction(9))):
        with pytest.raises(InconclusiveSignError):
            _sign_change_inside(p, (Fraction(7), Fraction(8)), b)


@pytest.mark.parametrize("k, corner", [(54, "i"), (52, "rho")])
def test_cells_at_a_corner_zero_certify_on_faber_signs(k, corner):
    # E_6 vanishes at i (g_{54,1}, k' = 6) and E_4 at rho (g_{52,1}, k' = 4),
    # so G has no sign there; the cell from the corner to the far end of the
    # nearest bracket certifies on F's signs alone, refined or not
    form = miller_form(k, 1)
    with workprec(600):
        at = mp.pi / 2 if corner == "i" else 2 * mp.pi / 3
    assert direct_arc_form(form, at, prec=400).certified_sign() == 0
    brackets = arc_zero_localize(form)
    lo, hi = (at, brackets[0][1]) if corner == "i" else (brackets[-1][0], at)
    assert _sign_change_inside(form.faber, _j_ends(lo), _j_ends(hi))
    a, b = refine_arc_zero(form, lo, hi)
    assert float(lo) <= a < b <= float(hi) and b - a <= 1e-5
    assert _sign_change_inside(form.faber, _j_ends(a), _j_ends(b))


def test_refine_arc_zero(form_48_1):
    lo, hi = arc_zero_localize(form_48_1)[0]
    rlo, rhi = refine_arc_zero(form_48_1, lo, hi, width=1e-5)
    assert lo - 1e-12 <= rlo < rhi <= hi + 1e-12
    assert rhi - rlo <= 1e-5


def test_refine_arc_zero_rejects_a_reversed_bracket(form_48_1):
    lo, hi = arc_zero_localize(form_48_1)[0]
    for a, b in ((hi, lo), (lo, lo)):
        with pytest.raises(ValueError, match="empty or reversed"):
            refine_arc_zero(form_48_1, a, b)


def _certified_cell(form, lo, hi, width=1e-5):
    """The cell bisection on the direct oracle's signs ends in."""
    a, b = _bisect_arc(mpf(lo), mpf(hi), width, lambda t: _direct_sign(form, t))
    return float(a), float(b)


@pytest.mark.parametrize("k", [48, 120, 398])
def test_refine_arc_zero_matches_certified_bisection(k):
    form = miller_form(k, 1)
    for lo, hi in arc_zero_localize(form):
        assert refine_arc_zero(form, lo, hi) == _certified_cell(form, lo, hi)


# sha256 of repr() of every refined cell of a form (its arc_zero_localize
# brackets each refined to width 1e-5), and of the brackets alone at
# k = 1924, computed before the arc point moved to integer arithmetic
ARC_CELLS_SHA256 = {
    ("refine", 192): "7f300c1e46c9296c8de3f2ae452e72f51b72448fd29798aaea50c7bb837b73dc",
    ("refine", 398): "d494a30707097d100305e37cc3f864ea0f0c037216b90aa5472dc51bb368d904",
    ("refine", 442): "d8ff7d8e8fea2411df256a66f0aeb2618432fa61d1c24b10016c963038bd6a06",
    ("localize", 1924): "cbb7e1c1b921de03cad0b679075c4d5a23758c3cf321fdcb1c5c25c5bcec29d8",
}


@pytest.mark.parametrize("kind, k", list(ARC_CELLS_SHA256))
def test_arc_cells_golden(kind, k):
    form = miller_form(k, 1)
    cells = arc_zero_localize(form)
    if kind == "refine":
        cells = [refine_arc_zero(form, lo, hi, width=1e-5) for lo, hi in cells]
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == ARC_CELLS_SHA256[kind, k]


@pytest.mark.parametrize("k", [388, 452])
def test_refined_cells_do_not_depend_on_the_working_precision(k):
    # bisection runs on doubles: under workprec(200) the cells are the
    # default ones (8 of the 31 at k = 388 moved when it ran at mp.prec),
    # and the doubles returned are the ends that were certified
    form = miller_form(k, 1)
    brackets = arc_zero_localize(form)
    cells = [refine_arc_zero(form, lo, hi) for lo, hi in brackets]
    with workprec(200):
        assert [refine_arc_zero(form, lo, hi) for lo, hi in brackets] == cells
    for a, b in cells:
        assert type(a) is type(b) is float and b - a <= 1e-5
        assert _sign_change_inside(form.faber, _j_ends(a), _j_ends(b))


def _count_certified(monkeypatch) -> list:
    """Record every pair that _sign_change_inside decides."""
    calls = []
    inner = zeros._sign_change_inside

    def counted(p, ends_a, ends_b):
        calls.append((ends_a, ends_b))
        return inner(p, ends_a, ends_b)

    monkeypatch.setattr(zeros, "_sign_change_inside", counted)
    return calls


def _count_points(monkeypatch) -> list:
    """Record the arguments of every evalnum._Point built."""
    points = []
    init = evalnum._Point.__init__

    def counted_init(self, *args, **kwargs):
        points.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(evalnum._Point, "__init__", counted_init)
    return points


def test_refine_arc_zero_certifies_only_the_final_cell(monkeypatch, form_48_1):
    lo, hi = arc_zero_localize(form_48_1)[1]
    calls = _count_certified(monkeypatch)
    refine_arc_zero(form_48_1, lo, hi)
    assert len(calls) == 1


@pytest.mark.parametrize("k", [120, 398])
def test_refine_arc_zero_builds_two_points_per_zero(monkeypatch, k):
    # the float leaf certifies: one arc point for each end of the cell
    form = miller_form(k, 1)
    brackets = arc_zero_localize(form)
    points = _count_points(monkeypatch)
    calls = _count_certified(monkeypatch)
    for lo, hi in brackets:
        refine_arc_zero(form, lo, hi)
    assert len(calls) == len(brackets)
    assert len(points) == 2 * len(brackets)


def test_zeros_takes_arc_j_at_the_default_precision_only(monkeypatch):
    # over the arc-zeros pool no enclosure escalates: every arc_j is at DEFAULT_PREC
    precs = []
    inner = zeros.arc_j

    def counted(p, prec=DEFAULT_PREC):
        precs.append(prec)
        return inner(p, prec)

    monkeypatch.setattr(zeros, "arc_j", counted)
    for k in POOL_WEIGHTS:
        form = miller_form(k, 1)
        brackets = arc_zero_localize(form)
        assert len(brackets) == form.faber.degree
        if k < 1000:
            for lo, hi in brackets:
                refine_arc_zero(form, lo, hi)
    assert precs and set(precs) == {DEFAULT_PREC}


@pytest.mark.parametrize("lie", ["constant", "negated"])
def test_refine_arc_zero_survives_a_lying_float_sign(monkeypatch, lie):
    form = miller_form(120, 1)
    brackets = arc_zero_localize(form)
    want = [_certified_cell(form, lo, hi) for lo, hi in brackets]
    honest = zeros._float_arc_sign
    monkeypatch.setattr(zeros, "_float_arc_sign", {
        "constant": lambda form, t: 1,
        "negated": lambda form, t: -honest(form, t)}[lie])
    calls = _count_certified(monkeypatch)
    assert [refine_arc_zero(form, lo, hi) for lo, hi in brackets] == want
    if lie == "constant":
        # it walks to the cell next to hi, which holds no zero: the
        # bisection on exact signs had to run
        assert len(calls) == 2 * len(brackets)


def test_refine_arc_zero_rejects_a_bracket_without_sign_change(form_48_1):
    lo, hi = arc_zero_localize(form_48_1)[1]
    a, b = refine_arc_zero(form_48_1, lo, hi)
    with pytest.raises(ValueError, match="no certified sign change"):
        refine_arc_zero(form_48_1, lo, (lo + (a + b) / 2) / 2)


def _counted_brackets(form):
    """The brackets of the sign-change count alone, or None where it fails."""
    thetas = _sampled(form)
    ends = [_j_ends(t) for t in thetas]
    signs = _separated_signs(form.faber, _separators(thetas, ends))
    if signs is None:
        return None
    return [(float(a), float(b)) for a, b, s, r in zip(thetas, thetas[1:], signs, signs[1:])
            if s != r]


@pytest.mark.parametrize("k,m", [(k, m) for k in (48, 100, 200, 240, 398, 442, 460)
                                 for m in (1, 2, 3, 9) if 12 * m < k])
def test_counted_signs_match_per_sample_signs(k, m):
    form = miller_form(k, m)
    assert _counted_brackets(form) == _per_sample_brackets(form)


def test_counted_signs_match_per_sample_signs_at_large_weight():
    # at k = 1900 the 400-bit oracle leaves signs undecided; the count
    # agrees with _sign_change_inside on every pair instead
    form = miller_form(1900, 1)
    brackets = _counted_brackets(form)
    assert brackets == _per_pair_brackets(form)
    assert len(brackets) == form.faber.degree


def test_arc_zero_localize_certifies_no_sample_alone(monkeypatch, form_48_1):
    want = _per_sample_brackets(form_48_1)
    calls = _count_certified(monkeypatch)
    assert arc_zero_localize(form_48_1) == want
    assert calls == []


def test_localize_builds_one_q_point_per_sample(monkeypatch):
    # at k = 1924 every sample costs one arc point (its certified j) and no
    # other q-point: the sign-change count decides every pair at once
    form = miller_form(1924, 1)
    points = _count_points(monkeypatch)
    certified = _count_certified(monkeypatch)
    assert arc_zero_localize(form)
    assert len(points) == len(_sampled(form))
    assert all(len(args) == 1 and not kwargs for args, kwargs in points)     # angles, h = 0
    assert certified == []


def test_counterexample_falls_back_to_per_sample_signs(monkeypatch, form_132_9):
    # F has a real root below 0, so the sign changes fall short of its degree
    assert _counted_brackets(form_132_9) is None
    want = _per_sample_brackets(form_132_9)
    calls = _count_certified(monkeypatch)
    assert arc_zero_localize(form_132_9) == want
    assert len(calls) == len(_sampled(form_132_9)) - 1


@pytest.mark.parametrize("lie", ["shifted", "lowered", "constant", "late"])
def test_lying_float_j_never_changes_a_bracket(monkeypatch, lie):
    # the doubles only place separators: a lie costs the certificate, never a bracket
    form = miller_form(120, 1)
    want = _per_sample_brackets(form)
    honest = zeros.arc_j_float
    monkeypatch.setattr(zeros, "arc_j_float", {
        "shifted": lambda t: honest(t) + 1.0,
        "lowered": lambda t: honest(t) - 1.0,
        "constant": lambda t: 1000.0,
        "late": lambda t: honest(t + 2e-3)}[lie])
    assert arc_zero_localize(form) == want


@settings(max_examples=200, deadline=None)
@given(st.floats(-2000, 2000), st.floats(0, 10))
def test_least_dyadic_of_floats_and_fractions(x, w):
    # floats and Fractions of equal value give the same least dyadic, the
    # shortest point of the window, or None when the window is empty
    a, b = x - w, x + w
    got = zeros._least_dyadic(a, b)
    assert got == zeros._least_dyadic(Fraction(a), Fraction(b))
    if got is None:
        assert a >= b
    else:
        e = got.denominator.bit_length() - 1
        assert a < got < b and got.denominator == 1 << e and got - Fraction(1, 1 << e) <= a
        if e:                           # no point of the grid one step coarser fits
            half = 1 << (e - 1)
            assert not any(a < Fraction(n, half) < b for n in range(
                math.floor(Fraction(a) * half), math.floor(Fraction(b) * half) + 1))


def test_separated_signs_needs_strictly_decreasing_separators():
    # p = x (x - 10) is negative at the bracketed points 3.5, 5 and 1.5.
    # Out of order, the changes 3 -> 11 and -1 -> 2 count both roots while
    # both also hide in [-1, 11], which would pass off sign p(5) as +1
    p = IntPolynomial.make([0, -10, 1])
    pairs = [(Fraction(4), Fraction(3)), (Fraction(11), Fraction(-1)),
             (Fraction(2), Fraction(1))]
    assert _separated_signs(p, iter(pairs)) is None
    # in order, one pair around each point: the count proves every sign
    pairs = [(Fraction(12), Fraction(11)), (Fraction(6), Fraction(4)),
             (Fraction(-1), Fraction(-2))]
    assert _separated_signs(p, iter(pairs)) == [1, -1, 1]
    assert _separated_signs(p, iter(pairs[:2] + [None] + pairs[2:])) is None


@pytest.mark.parametrize("at", ["v_2", "v_2 and u_2"])
def test_separator_at_an_exact_root_falls_back(monkeypatch, form_48_1, at):
    # the separators depend on the angles only; give g_{48,1} Faber
    # polynomials with roots placed among them
    thetas = _sampled(form_48_1)
    x = [point for pair in _separators(thetas, [_j_ends(t) for t in thetas])
         for point in pair]
    assert len(x) == 8 and x == sorted(x, reverse=True)

    def with_roots(*roots):
        p = IntPolynomial.make([1])
        for r in roots:
            p = p * IntPolynomial.make([-r.numerator, r.denominator])
        return dataclasses.replace(form_48_1, faber=p)

    # one root in each changing gap (u_i, v_(i+1)): the certificate holds
    honest = with_roots((x[2] + x[1]) / 2, (x[4] + x[3]) / 2, (x[6] + x[5]) / 2)
    assert _counted_brackets(honest) == _per_sample_brackets(honest)
    # F(v_2) = 0, or F(v_2) = F(u_2) = 0, where the signs left would count 3 changes
    roots = {"v_2": (x[2], (x[4] + x[3]) / 2, (x[6] + x[5]) / 2),
             "v_2 and u_2": (x[2], x[3], (x[6] + x[5]) / 2)}[at]
    at_root = with_roots(*roots)
    assert _counted_brackets(at_root) is None
    want = _per_sample_brackets(at_root)
    calls = _count_certified(monkeypatch)
    assert arc_zero_localize(at_root) == want
    assert len(calls) == len(thetas) - 1


def test_cross_oracle_j_images(form_48_1):
    # refined arc zeros must land, under j, inside the Sturm intervals
    rep = zero_report(form_48_1)
    roots = sturm_census(_deflated(form_48_1.faber)[2], 0, 1728)[0]
    assert len(roots) == len(rep.arc_angles) == 3
    refined = [refine_arc_zero(form_48_1, lo, hi) for lo, hi in rep.arc_angles]
    images = [j_of_angle(iv) for iv in refined]
    # j decreases along the arc; the Sturm intervals ascend
    for (jlo, jhi), (slo, shi) in zip(reversed(images), roots):
        assert jlo <= shi and slo <= jhi      # intervals intersect
    for a, b in zip(images, images[1:]):
        assert b[1] < a[0]                    # pairwise disjoint, decreasing


def test_j_of_angle_endpoints():
    with workprec(120):
        lo, hi = j_of_angle((mp.pi / 2, 2 * mp.pi / 3))
    assert lo <= 0 <= hi or lo <= Fraction(1, 10 ** 6)
    assert hi >= 1728


def test_j_of_angle_rejects_a_reversed_interval():
    lo, hi = j_of_angle((1.6, 1.7))
    assert lo < hi
    with pytest.raises(ValueError, match="reversed"):
        j_of_angle((1.7, 1.6))


def test_arc_j_agrees_with_eisenstein_quotient():
    for theta in (1.5708, 1.65, 1.8, 1.95, 2.09):
        jv = arc_j(theta)
        av = arc_functions(theta)
        with workprec(140):
            quot = av.e4.pow_int(3) / av.delta_arc
        assert abs(jv.value - quot.value) <= jv.err + quot.err
        assert jv.err < 1e-30


def test_j_of_angle_rounds_outward():
    def exact(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    for theta in (1.6, 1.7):
        cv = arc_j(theta)
        lo, hi = j_of_angle(theta)
        assert lo <= exact(cv.value) - exact(cv.err)
        assert hi >= exact(cv.value) + exact(cv.err)


def test_exact_keeps_the_sign():
    assert _exact(mpf(-0.75)) == Fraction(-3, 4)
    assert _exact(mpf(0)) == 0
    assert _exact(mpf(3) * 2 ** 80) == 3 * 2 ** 80
    assert _exact(-mpf(5) / 2 ** 70) == Fraction(-5, 2 ** 70)
    with pytest.raises(ValueError):
        _exact(mpf("inf"))


# ---------------------------------------------------------------------------
# reports and the valence identity

def test_trivial_orders_table():
    assert trivial_orders(0) == (0, 0)
    assert trivial_orders(4) == (0, 1)
    assert trivial_orders(6) == (1, 0)
    assert trivial_orders(8) == (0, 2)
    assert trivial_orders(10) == (1, 1)
    assert trivial_orders(14) == (1, 2)


def test_zero_report_48(form_48_1):
    rep = zero_report(form_48_1)
    assert len(rep.faber_roots_in) == 3
    assert rep.faber_roots_out == {"real_outside": 0, "complex_pairs": 0}
    assert rep.boundary_mult == {0: 0, 1728: 0}
    assert rep.ord_infty == 1 and rep.squarefree_defect == 0
    assert rep.valence_ok
    d = rep.to_json_dict()
    assert d["k"] == 48 and len(d["arc_angles"]) == 3


def test_zero_report_counterexample(form_132_9):
    rep = zero_report(form_132_9, with_arc=False)
    out = rep.faber_roots_out
    assert out["real_outside"] + out["complex_pairs"] >= 1
    assert rep.valence_ok


# ---------------------------------------------------------------------------
# the root census: interlacing certificate first, Descartes isolation on its misses

SWEEP_WEIGHTS = sorted(12 * ell + kp for ell in range(1, 15) for kp in EISENSTEIN_FACTORS)

# the forms with ell <= 14 whose certificate fails: each has one real
# Faber root below 0, a zero on the side Re tau = -1/2 above rho
CERTIFICATE_MISSES = [(132, 9), (138, 10), (144, 10), (150, 11), (156, 11), (162, 12),
                      (168, 12), (174, 13)]


def _report_census(rep) -> tuple:
    return rep.faber_roots_in, rep.faber_roots_out, rep.squarefree_defect


def _sturm_oracle(form) -> tuple:
    """The census by Sturm alone, every leaf by bisection: no certificate."""
    return sturm_census(_deflated(form.faber)[2], 0, 1728)


def _forbid_isolation(monkeypatch):
    def refuse(*args):
        raise AssertionError("the census isolated roots")
    monkeypatch.setattr(zeros, "_census", refuse)


# the forms with ell <= 14 whose certificate holds but whose one Faber root
# is a grid point, 216, 432, 648, 864 or 1080, so _root_cells declines
GRID_ROOT_FORMS = [(34, 1), (48, 3), (50, 2), (64, 4), (80, 5), (142, 10), (156, 12),
                   (158, 11), (172, 13)]


def test_census_matches_sturm_interval_for_interval(monkeypatch):
    # every form with ell <= 14, every m, then two larger ones
    misses, grid_roots, cells = [], [], []
    inner = zeros._root_cells
    monkeypatch.setattr(zeros, "_root_cells", lambda *args: cells.append(inner(*args)) or cells[-1])
    forms = [f for k in SWEEP_WEIGHTS for f in miller_basis(k)]
    for form in forms + [miller_form(480, 1), miller_form(720, 2)]:
        deflated = _deflated(form.faber)[2]
        cells.clear()
        if deflated.degree > 0 and _interlaced_census(deflated, form.id) is None:
            (grid_roots if cells else misses).append((form.id.k, form.id.m))
        assert _report_census(zero_report(form, with_arc=False)) == _sturm_oracle(form)
    assert len(forms) == 630 and misses == CERTIFICATE_MISSES
    assert grid_roots == GRID_ROOT_FORMS
    for k, m in GRID_ROOT_FORMS:
        faber = miller_form(k, m).faber
        assert faber.degree == 1 and faber.coeffs[0] % 216 == 0


def test_certified_census_runs_no_isolation(monkeypatch, form_48_1):
    want = _report_census(zero_report(form_48_1, with_arc=False))
    _forbid_isolation(monkeypatch)
    rep = zero_report(form_48_1, with_arc=False)
    assert _report_census(rep) == want and rep.valence_ok
    assert rep.faber_roots_out == {"real_outside": 0, "complex_pairs": 0}


# sha256 of json.dumps(zero_report(form, with_arc=False).to_json_dict()),
# computed before the interlacing certificate
MISS_REPORT_SHA256 = {
    (132, 9): "bce0e26ea7a21c3395e871018715a1948151838484af9a0dfbb523fa13911ef1",
    (138, 10): "a42da214b98b1127a753266bad96b9737701af22359e0dd0030c3931b33ef232",
    (144, 10): "45e196c513d33e52e14a0414736c7232a44117ae99d3307d45afe0b37e474b63",
    (276, 22): "c48d0db79e7486631f5602689d0e6fa35393fcad6a6e7f7d33b022aef92866df",
}


@pytest.mark.parametrize("k, m", list(MISS_REPORT_SHA256))
def test_certificate_misses_take_sturm(k, m):
    # a root below 0, or k <= 4 pi m (h not monotone, no sample angles)
    form = miller_form(k, m)
    assert _interlaced_census(_deflated(form.faber)[2], form.id) is None
    text = json.dumps(zero_report(form, with_arc=False).to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == MISS_REPORT_SHA256[k, m]


def test_census_deflates_boundary_roots_and_certifies(monkeypatch):
    # F = j (j - 1728) F_{60,1} in place of F_{84,1}, both of degree 6
    inner = miller_form(60, 1).faber
    form = dataclasses.replace(miller_form(84, 1), faber=poly_from_roots([0, 1728], extra=inner))
    want = _report_census(zero_report(miller_form(60, 1), with_arc=False))
    _forbid_isolation(monkeypatch)
    rep = zero_report(form, with_arc=False)
    assert rep.boundary_mult == {0: 1, 1728: 1} and rep.valence_ok
    assert _report_census(rep) == want and len(rep.faber_roots_in) == 4


def test_swapped_separators_fail_the_certificate(monkeypatch, form_48_1):
    want = zero_report(form_48_1, with_arc=False)
    honest = HFunction.double_angles

    def swapped(self):
        out = honest(self)
        out[1], out[2] = out[2], out[1]
        return out

    monkeypatch.setattr(HFunction, "double_angles", swapped)
    assert _interlaced_census(form_48_1.faber, form_48_1.id) is None
    assert zero_report(form_48_1, with_arc=False) == want


def test_valence_with_boundary_roots():
    # hand-built report: F of degree 1 with its root exactly at 0
    fid = FormId.from_k(28, 1)
    rep = ZeroReport(
        id=fid, arc_angles=[], faber_roots_in=[],
        faber_roots_out={"real_outside": 0, "complex_pairs": 0},
        boundary_mult={0: 1, 1728: 0}, ord_infty=1,
        trivial_i=0, trivial_rho=1 + 3,
        squarefree_defect=0)
    assert valence_reconcile(rep)
    rep.trivial_rho = 1
    assert not valence_reconcile(rep)


def test_valence_detects_missing_roots(form_48_1):
    rep = zero_report(form_48_1, with_arc=False)
    rep.faber_roots_in = rep.faber_roots_in[:-1]
    assert not valence_reconcile(rep)


def test_theorem_sweep_small():
    res = verify_theorem_m1(max_ell=2)
    assert len(res) == 12
    assert [k for k, _ in res] == sorted(k for k, _ in res)
    for k, rep in res:
        assert rep.valence_ok
        assert rep.faber_roots_out == {"real_outside": 0, "complex_pairs": 0}
        assert len(rep.faber_roots_in) == rep.id.ell - 1


# sha256 of every isolating interval of the full m = 1 sweep, one line
# "k:lo,hi;lo,hi;..." per form in sweep order
THEOREM_SWEEP_INTERVALS_SHA256 = \
    "14b093723a049a612ea43110727d87c2e3aad6d3d95081af041158c9ed7bd471"


def test_theorem_sweep_intervals_golden():
    res = verify_theorem_m1(max_ell=14)
    text = "\n".join(f"{k}:" + ";".join(f"{lo},{hi}" for lo, hi in rep.faber_roots_in)
                     for k, rep in res)
    assert len(res) == 84
    assert hashlib.sha256(text.encode()).hexdigest() == THEOREM_SWEEP_INTERVALS_SHA256


# ---------------------------------------------------------------------------
# distribution

def test_star_discrepancy_exact_cases():
    assert star_discrepancy([0.5]) == pytest.approx(0.5)
    assert star_discrepancy([0.25]) == pytest.approx(0.75)
    n = 10
    mids = [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
    assert star_discrepancy(mids) == pytest.approx(1 / (2 * n))


def test_zero_angles_inside_brackets(form_48_1):
    brackets = arc_zero_localize(form_48_1)
    angles = zero_angles(form_48_1)
    assert len(angles) == 3
    for th, (lo, hi) in zip(angles, brackets):
        assert lo - 1e-9 <= th <= hi + 1e-9


def test_distribution_stats_single():
    (s,) = distribution_stats([(120, 1)], bins=8)
    assert s.k == 120 and s.m == 1
    assert s.count == 9 and sum(s.histogram) == 9
    assert 0 < s.discrepancy < 1
    assert s.to_json_dict()["count"] == 9


@pytest.mark.parametrize("bins", [0, -1])
def test_distribution_stats_rejects_fewer_than_one_bin(bins):
    with pytest.raises(ValueError, match="bins"):
        distribution_stats([(120, 1)], bins=bins)


def test_exception_types():
    e = InconclusiveSignError(1.67, 4)
    assert "1.67" in str(e)
    v = TheoremViolationError(FormId.from_k(48, 1), "demo")
    assert isinstance(v, AssertionError)
