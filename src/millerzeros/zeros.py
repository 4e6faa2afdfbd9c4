"""Zero location and counting for the basis forms g_{k,m}.

Two mechanisms see every zero:

  * the exact census of the Faber polynomial F over the rationals,
    deflated at 0 and 1728, which decides "all roots real, simple,
    inside [0, 1728]" as a theorem-grade statement: an interlacing
    certificate first (_interlaced_census), a Sturm chain only when it
    fails (_sturm_census); a failure never means a zero off the arc.
  * certified sign changes of F inside the j-image of the angle
    intervals between the samples where h(theta) = k theta / 2 + 2 pi m
    cos theta crosses multiples of pi, each a zero of
    g_{k,m} = Delta^ell E_k' F(j) whatever its other factors
    (_sign_change_inside); one count of F's sign changes against deg F
    decides every interval at once where it holds (_separated_signs).

refine_arc_zero narrows a bracket by bisection on doubles and an
uncertified sign, and certifies only the cell it ends in.  The j-images
of the arc brackets must land in the Faber isolating intervals, and the
valence formula must reconcile exactly; both checks are assembled into a
ZeroReport.

Isolating intervals are the leaves of bisection on a dyadic grid of an
interval with no root at an end (_bisect): zero_report's [0, 1728] and
real_root_census's Cauchy bound.  Under the certificate each leaf comes
straight from a double guess of its root, accepted on exact signs
(_root_cells); otherwise the certificate's gaps (_gap_counter) or a
Sturm chain (_chain_counter) count roots for the bisection.  Every sign
is one integer Horner loop, IntPolynomial.sign_at, which only shifts at
a dyadic point: a double, a grid point, a libmp end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from mpmath import mp, mpf
from mpmath.libmp import (from_float, from_man_exp, mpf_abs, mpf_add, mpf_cos_sin, mpf_div,
                          mpf_lt, mpf_mul, mpf_mul_int, mpf_pi, mpf_sub)

from .evalnum import _corner_angles, _exact, arc_j, arc_j_float
from .miller import IntPolynomial, MillerForm, miller_form
from .qseries import EISENSTEIN_FACTORS, EXTRA_WEIGHTS, FormId

ROOT_WIDTH = Fraction(1728, 10 ** 6)    # default isolating interval width


class InconclusiveSignError(ArithmeticError):
    """The j enclosures of two arc angles overlap, so no sign change of F
    between them can be certified."""


class TheoremViolationError(AssertionError):
    def __init__(self, fid: FormId, reason: str):
        super().__init__(f"g_{{{fid.k},{fid.m}}}: {reason}")
        self.fid = fid
        self.reason = reason


# ---------------------------------------------------------------------------
# exact polynomial tools


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


def _squarefree_chain(p: IntPolynomial) -> tuple:
    """(square-free part of p, its Sturm chain) from one remainder sequence.

    p's own chain ends in gcd(p, p') up to sign, so a square-free p needs
    no second sequence; otherwise the part is p / gcd, possibly negated,
    which moves no root and no sign-change count.
    """
    chain = sturm_chain(p)
    if chain[-1].degree <= 0:
        return p, chain
    sqf = p.exact_div(chain[-1]).primitive()
    return sqf, sturm_chain(sqf)


def _changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign(p: IntPolynomial, x: Fraction) -> int:
    return p.sign_at(x.numerator, x.denominator)


def _sign_changes(chain: list, x: Fraction) -> int:
    return _changes(_sign(c, x) for c in chain)


def _roots_in_closed(chain: list, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of chain[0] in [lo, hi], lo <= hi.

    The sign-change count at a root equals the count just right of it,
    so V(lo) - V(hi) counts (lo, hi] even when an end is a root.
    """
    return (_sign_changes(chain, lo) - _sign_changes(chain, hi)
            + (_sign(chain[0], lo) == 0))


def cauchy_bound(p: IntPolynomial) -> Fraction:
    lead = abs(p.coeffs[-1])
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return 1 + Fraction(m, lead)


def _root_power(p: IntPolynomial) -> Fraction:
    """A power of two 2^(s+1) strictly above Fujiwara's bound 2 max_i
    |a_(n-i) / a_n|^(1/i) on the roots of p, s the least integer with
    2^(s i) >= 2^(bits(a_(n-i)) - top) for every i, 2^top <= |a_n|."""
    *rest, lead = p.coeffs
    top = abs(lead).bit_length() - 1
    return Fraction(2) ** (1 + max((-((top - abs(c).bit_length()) // (p.degree - i))
                                    for i, c in enumerate(rest) if c), default=0))


# Bisection runs on the dyadic grid of [0, 1]: a point is an integer pair
# (n, e) for t = n / 2^e in lowest terms (n odd or e = 0), standing for
# lo + (hi - lo) t of the isolation interval [lo, hi].


def _reduced(n: int, e: int) -> tuple:
    if n == 0:
        return 0, 0
    z = min(e, (n & -n).bit_length() - 1)
    return n >> z, e - z


def _common(a: tuple, b: tuple) -> tuple:
    """(n_a, n_b, e): both points on the finer of their two grids."""
    e = max(a[1], b[1])
    return a[0] << (e - a[1]), b[0] << (e - b[1]), e


def _safe_point(q: IntPolynomial, a: tuple, b: tuple) -> tuple:
    """A grid point in (a, b) that is not a root of q, with q's sign there.

    The candidates are mid + i (b - a) / 2048 for i < 32, on the grid
    2^-(e + 11) of the common exponent e.
    """
    na, nb, e = _common(a, b)
    base, step = (na + nb) << 10, nb - na
    for i in range(32):
        pt = _reduced(base + i * step, e + 11)
        s = q.sign_at(pt[0], 1 << pt[1])
        if s != 0:
            return pt, s
    raise ArithmeticError("could not find a root-free bisection point")


def _chain_counter(chain: list, lo: Fraction, hi: Fraction):
    """Distinct real roots in (a, b] for grid points a < b of [lo, hi].

    Every chain polynomial is mapped once to [0, 1] by IntPolynomial.affine;
    each point's sign changes are computed once, cached under its place t
    in [0, 1].  Sturm's count does not change beyond every root, so a
    point beyond +-B = +-_root_power(chain[0]) is clipped to it, where the
    chain is evaluated once.
    """
    mapped = [c.affine(lo, hi) for c in chain]
    bound = _root_power(chain[0])
    below, above = ((x - lo) / (hi - lo) for x in (-bound, bound))
    seen = {}

    def changes(pt: tuple) -> int:
        t = min(max(Fraction(pt[0], 1 << pt[1]), below), above)
        if t not in seen:
            seen[t] = _changes(c.sign_at(t.numerator, t.denominator) for c in mapped)
        return seen[t]

    return lambda a, b: changes(a) - changes(b)


def _gap_counter(p: IntPolynomial, xs: list, signs: list, lo: Fraction, hi: Fraction):
    """Roots of p in (a, b] for grid points a < b of [lo, hi], from
    _interlaced_census' certificate: p's signs at the falling points xs.

    p's roots are then simple, one in each gap of xs whose end signs
    differ and none elsewhere.  A point t in such a gap (x, y), x < y, has
    that root at or below it exactly when p's sign at t is not p's sign at
    x: one sign_at per point, cached under (n, e).
    """
    span = hi - lo
    cuts, up = xs[::-1], signs[::-1]
    below = list(accumulate((s != r for s, r in zip(up, up[1:])), initial=0))
    seen = {}

    def roots_to(pt: tuple) -> int:
        if pt not in seen:
            x = lo + span * Fraction(pt[0], 1 << pt[1])
            i = bisect_right(cuts, x) - 1
            n = below[i]
            if i + 1 < len(cuts) and up[i] != up[i + 1] and _sign(p, x) != up[i]:
                n += 1
            seen[pt] = n
        return seen[pt]

    return lambda a, b: roots_to(b) - roots_to(a)


def _bisect(sqf: IntPolynomial, count, lo: Fraction, hi: Fraction, width: Fraction) -> list:
    """Isolating intervals below width for the roots of sqf in (lo, hi).

    count(a, b) is the number of roots of sqf in (a, b] for grid points
    a < b: _chain_counter or _gap_counter on [lo, hi].  Neither end may be
    a root of sqf (ArithmeticError otherwise).  [lo, hi] is mapped once
    onto [0, 1] (IntPolynomial.affine); every point visited is a grid
    point t = n / 2^e there, the midpoint of its interval or, when that is
    a root of sqf, the first of mid + i (b - a) / 2048 that is not.  A
    midpoint beyond +-_root_power(sqf) holds no root and takes no sign.
    An interval with one root is bisected on the sign of sqf alone until
    (n_b - n_a) w_den <= w_num 2^e, w = width / (hi - lo).  The intervals
    with more roots are split on an explicit stack, left half first, so
    the leaves come out in order at any depth of splitting.
    """
    q = sqf.affine(lo, hi)
    if q.sign_at(0) == 0 or q.sign_at(1) == 0:
        raise ArithmeticError(f"an end of [{lo}, {hi}] is a root")
    span = hi - lo
    w = width / span
    bound = _root_power(sqf)
    below, above = ((x - lo) / span for x in (-bound, bound))
    out, stack = [], [((0, 0), (1, 0))]
    while stack:
        a, b = stack.pop()
        roots = count(a, b)
        if roots == 0:
            continue
        if roots == 1:
            s_a = q.sign_at(a[0], 1 << a[1])
            while True:
                na, nb, e = _common(a, b)
                if (nb - na) * w.denominator <= w.numerator << e:
                    break
                mid, s = _safe_point(q, a, b)
                if s == s_a:
                    a = mid
                else:
                    b = mid
            out.append(tuple(lo + span * Fraction(n, 1 << e) for n, e in (a, b)))
            continue
        na, nb, e = _common(a, b)
        mid = _reduced(na + nb, e + 1)
        if below < Fraction(na + nb, 2 << e) < above:
            mid, _ = _safe_point(q, a, b)
        stack += [(mid, b), (a, mid)]       # the left half is taken first
    return out


def real_root_census(p: IntPolynomial, width: Fraction = ROOT_WIDTH) -> tuple:
    """(isolating intervals of every real root of p, counts off [0, 1728]).

    Both come from one Sturm chain of p's square-free part: the intervals
    from bisection on the Cauchy bound, the counts as real_outside and
    complex_pairs.  A width <= 0, which no interval reaches, raises
    ValueError.
    """
    if width <= 0:
        raise ValueError(f"isolating width must be positive, got {width}")
    sqf, chain = _squarefree_chain(p)
    b = cauchy_bound(p)
    return (_bisect(sqf, _chain_counter(chain, -b, b), -b, b, width),
            _count_off(sqf, chain, Fraction(0), Fraction(1728)))


def _count_off(sqf: IntPolynomial, chain: list, lo: Fraction, hi: Fraction) -> dict:
    """Distinct real roots of sqf outside [lo, hi], and its complex pairs.

    sqf has V(-inf) - V(+inf) distinct real roots: the sign changes of the
    chain's leading coefficients, each negated at -inf for an odd degree.
    """
    if sqf.degree <= 0:
        return {"real_outside": 0, "complex_pairs": 0}
    top = [1 if c.coeffs[-1] > 0 else -1 for c in chain]
    total = _changes([-s if c.degree % 2 else s for s, c in zip(top, chain)]) - _changes(top)
    inside = _roots_in_closed(chain, lo, hi)
    return {"real_outside": total - inside,
            "complex_pairs": (sqf.degree - total) // 2}


# ---------------------------------------------------------------------------
# the phase function h and the sample angles


@dataclass(frozen=True)
class HFunction:
    """h(theta) = k theta / 2 + 2 pi m cos theta, increasing once k > 4 pi m."""

    k: int
    m: int

    def __call__(self, theta):
        t = mpf(theta)
        return self.k * t / 2 + 2 * mp.pi * self.m * mp.cos(t)

    @property
    def monotone(self) -> bool:
        return self.k > 4 * math.pi * self.m

    def double_angles(self) -> list:
        """(n, theta) for each multiple n pi that h hits, theta a double, or
        None at a corner (pi/2 where 4n = k, 2 pi/3 where 3n = k - 3m).

        h runs from k pi / 4 to (k/3 - m) pi; the multiples in between
        are n = ceil(k/4) .. floor(k/3 - m), one angle per multiple by
        monotonicity.  On the arc h'' = -2 pi m cos theta >= 0, so h is
        convex and Newton's method started right of a root decreases onto
        it.  The tangent at the previous angle meets the next multiple at
        that angle + pi / h', which convexity puts right of the next root;
        the first start is 2 pi / 3.
        """
        if not self.monotone:
            raise ValueError(f"h not monotone for k={self.k}, m={self.m}")
        k, m = self.k, self.m
        # h = a theta + b cos theta and h' = a - b sin theta
        a, b, top = k / 2, 2 * math.pi * m, 2 * math.pi / 3
        out, start = [], top
        for n in range(-(-k // 4), (k - 3 * m) // 3 + 1):
            if 4 * n == k or 3 * n == k - 3 * m:
                theta = math.pi / 2 if 4 * n == k else top
                out.append((n, None))
            else:
                theta = self.solve(n * math.pi, start)
                out.append((n, theta))
            start = min(top, theta + math.pi / (a - b * math.sin(theta)))
        return out

    def solve(self, target: float, theta: float) -> float:
        """The double angle where h = target, by Newton's method from theta
        until a step is below 2^-40 or stops shrinking (rounding then rules)."""
        a, b, last = self.k / 2, 2 * math.pi * self.m, math.inf
        while True:
            step = (a * theta + b * math.cos(theta) - target) / (a - b * math.sin(theta))
            theta -= step
            if abs(step) < 2 ** -40 or abs(step) >= last:
                return theta
            last = abs(step)

    def sample_angles(self) -> list:
        """(n, theta): the angles of double_angles at 96 bits, the corners
        exact.  Each double is polished by Newton on libmp values, every
        operation at 96 bits rounding to nearest, h and h' from one cos_sin
        per step, until a step is below 2^-60, which leaves the angle
        accurate to rounding.
        """
        k, pi, tol = self.k, mpf_pi(96, "n"), from_man_exp(1, -60)
        lo_all, hi_all = _corner_angles(96)
        half_k, two_pi_m = from_man_exp(k, -1), mpf_mul_int(pi, 2 * self.m, 96, "n")
        out = []
        for n, theta in self.double_angles():
            if theta is None:
                out.append((n, lo_all if 4 * n == k else hi_all))
                continue
            t, target = from_float(theta), mpf_mul_int(pi, n, 96, "n")
            while True:
                c, s = mpf_cos_sin(t, 96, "n")
                h = mpf_add(mpf_mul(half_k, t, 96, "n"), mpf_mul(two_pi_m, c, 96, "n"), 96, "n")
                slope = mpf_sub(half_k, mpf_mul(two_pi_m, s, 96, "n"), 96, "n")
                step = mpf_div(mpf_sub(h, target, 96, "n"), slope, 96, "n")
                t = mpf_sub(t, step, 96, "n")
                if mpf_lt(mpf_abs(step), tol):
                    break
            out.append((n, mp.make_mpf(t)))
        return out


# ---------------------------------------------------------------------------
# certified arc localization


def _j_ends(theta) -> tuple:
    """(lo, hi): the exact ends of arc_j's enclosure of j(theta) at DEFAULT_PREC."""
    return tuple(_exact(t) for t in arc_j(theta).re)


def _float_arc_sign(form: MillerForm, theta) -> int:
    """Sign of F at the double j of arc_j_float, exact at that double:
    only the double can be wrong.  refine_arc_zero picks its cell by it."""
    n, d = arc_j_float(theta).as_integer_ratio()
    return form.faber.sign_at(n, d)


def _least_dyadic(a, b):
    """The dyadic n / 2^e in (a, b) with the least e >= 0, and of those the
    least; None if a >= b.  a and b are Fractions or floats."""
    if a >= b:
        return None
    (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
    den = math.lcm(da, db)
    lo, hi = na * (den // da), nb * (den // db)
    e = 0
    while True:
        n = (lo << e) // den + 1
        if n * den < hi << e:
            return Fraction(n, 1 << e)
        e += 1


def _sign_change_inside(p: IntPolynomial, ends_a: tuple, ends_b: tuple) -> bool:
    """Whether p has opposite exact signs at two points of [hi_b, lo_a].

    ends_a = (lo_a, hi_a) and ends_b = (lo_b, hi_b) are the j enclosures
    (_j_ends) of two arc angles a < b.  j is continuous and strictly
    decreasing on the arc, so j((a, b)) holds [hi_b, lo_a]: a sign change
    of p = F there puts a zero of g_{k,m} in (a, b).  The points tried are
    the least dyadics within 2^-32 of the gap of each end, short integers
    for sign_at, then the ends.  Overlapping enclosures raise
    InconclusiveSignError.
    """
    lo_a, hi_b = ends_a[0], ends_b[1]
    if hi_b >= lo_a:
        raise InconclusiveSignError(f"the j enclosures overlap: {float(hi_b)} >= {float(lo_a)}")
    step = (lo_a - hi_b) / (1 << 32)
    near = (_least_dyadic(lo_a - step, lo_a), _least_dyadic(hi_b, hi_b + step))
    return any(_sign(p, x_a) * _sign(p, x_b) < 0 for x_a, x_b in (near, (lo_a, hi_b)))


def _separated_signs(p: IntPolynomial, pairs):
    """The signs of p around the points that pairs separate, or None.

    pairs yields (v_1, u_1), (v_2, u_2), ... of rationals, each bracketing
    one point x_i (u_i <= x_i <= v_i), or None where no pair was found.  The
    certificate holds when v_1 >= u_1 > v_2 >= u_2 > ..., no exact
    sign p(v_i), p(u_i) (IntPolynomial.sign_at) is 0, and the sign
    changes along the sequence number deg p; sign p(v_i) = sign p(u_i)
    follows from that count, and checking it stops a failing certificate
    early.  Proof: once each pair has one sign, every change falls in a
    gap (u_i, v_(i+1)) and puts a root of p there; the gaps are disjoint,
    and p has deg p roots counted with multiplicity, so each changing gap
    holds exactly one and p has no other root, none on any [u_i, v_i].
    Hence sign p(x_i) = sign p(u_i), the i-th sign returned.  Without the
    strict order one root can make several changes, and roots can hide
    in pairs inside some [u_i, v_i].
    """
    signs, changes, last = [], 0, None
    for pair in pairs:
        if pair is None:
            return None
        v, u = pair
        if not v >= u or (last is not None and v >= last):
            return None
        s_v, s_u = _sign(p, v), _sign(p, u)
        if s_v == 0 or s_v != s_u:
            return None
        if signs and s_v != signs[-1]:
            changes += 1
        signs.append(s_u)
        last = u
    return signs if changes == p.degree else None


def _separators(thetas: list, ends: list):
    """Short dyadics (v_i, u_i) around j(theta_i) at the increasing angles thetas.

    With (lo_i, hi_i) = ends[i] the certified j enclosure of theta_i
    (_j_ends), v_i is the least-denominator dyadic in (hi_i, J+_i)
    nearest hi_i, and u_i the same in (J-_i, lo_i) nearest lo_i; None
    when a window is empty.  J+_i and J-_i are the exact values of
    arc_j_float a quarter of the angle gap before and after theta_i (to
    the neighbour sample, or to pi/2 and 2 pi/3); a corner sample with no
    gap on one side takes a window of width 1 there.  The windows are
    quarter gaps in angle, not in j: near rho j grows like (theta - rho)^3,
    so the last zero can sit far into its j-gap.  A wrong double only
    breaks the certificate.  Yields lazily, so a failure stops early.
    """
    t = [float(x) for x in thetas]
    edges = [math.pi / 2] + t + [2 * math.pi / 3]
    for i, (lo, hi) in enumerate(ends):
        back, ahead = t[i] - edges[i], edges[i + 2] - t[i]
        top = Fraction(arc_j_float(t[i] - back / 4)) if back > 0 else hi + 1
        bottom = Fraction(arc_j_float(t[i] + ahead / 4)) if ahead > 0 else lo - 1
        v, u = _least_dyadic(hi, top), _least_dyadic(-lo, -bottom)
        yield None if v is None or u is None else (v, -u)


def arc_zero_localize(form: MillerForm) -> list | None:
    """Bracketing angle intervals for the arc zeros of g_{k,m}.

    Samples j at the h-multiple angles (one _j_ends each), skipping a
    corner whose j is an exact Faber root; neighbours with a certified
    sign change of F between their enclosures bracket a zero
    (_sign_change_inside), ell - m brackets under the oscillation
    estimate.  One sign-change count (_separated_signs on the _separators)
    decides every pair at once; a Faber root at 0, 1728 or off the arc, or
    fewer samples than deg F + 1, fails it, and then each pair is decided
    alone.  k <= 4 pi m (h not monotone) returns None: not sampled.
    """
    fid = form.id
    p = form.faber
    if p.degree <= 0:
        return []
    h = HFunction(fid.k, fid.m)
    if not h.monotone:
        return None
    skip_i = p(1728) == 0
    skip_rho = p(0) == 0
    thetas = [theta for n, theta in h.sample_angles()
              if not (skip_i and 4 * n == fid.k)
              and not (skip_rho and 3 * n == fid.k - 3 * fid.m)]
    ends = [_j_ends(theta) for theta in thetas]
    signs = _separated_signs(p, _separators(thetas, ends)) if len(thetas) > p.degree else None
    if signs is None:
        changes = [_sign_change_inside(p, a, b) for a, b in zip(ends, ends[1:])]
    else:
        changes = [s != r for s, r in zip(signs, signs[1:])]
    return [(float(a), float(b)) for a, b, c in zip(thetas, thetas[1:], changes) if c]


def _bisect_arc(lo, hi, width, sign) -> tuple:
    """The cell of width <= width that bisecting [lo, hi] on sign ends in.

    Each step keeps the half whose lower end has the sign of lo.  The
    midpoints (lo + hi) / 2 depend on the path alone, so every sign
    function walks the same tree of cells and ends in one of its leaves.
    A midpoint that rounds to an end of its cell, as below the width
    the precision can halve, raises ValueError.
    """
    s_lo = sign(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            raise ValueError(f"the cell [{lo}, {hi}] has no midpoint inside it at "
                             f"this precision, above the width {width}")
        if sign(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def refine_arc_zero(form: MillerForm, lo: float, hi: float, width: float = 1e-5) -> tuple:
    """Shrink a sign-change bracket (lo < hi, else ValueError) to a
    certified sign-change cell of width <= width (> 0, else ValueError).

    Bisection runs on doubles, lo and hi rounded to the nearest, whatever
    mp.prec, and on the double-precision sign _float_arc_sign; only the
    cell it ends in is certified (_sign_change_inside on the j enclosures
    of the doubles returned): with one zero in the bracket, bisection on
    true signs ends there too.  Otherwise it runs again on F's exact sign
    at each angle's lower j end; a cell still without a certified sign
    change raises ValueError.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"the bracket [{lo!r}, {hi!r}] is empty or reversed")
    if not width > 0:
        raise ValueError(f"the cell width must be positive, got {width!r}")
    p = form.faber
    ends = lru_cache(maxsize=None)(_j_ends)
    a, b = _bisect_arc(lo, hi, width, lambda t: _float_arc_sign(form, t))
    if not _sign_change_inside(p, ends(a), ends(b)):
        a, b = _bisect_arc(lo, hi, width, lambda t: _sign(p, ends(t)[0]))
        if not _sign_change_inside(p, ends(a), ends(b)):
            raise ValueError(f"no certified sign change of g_{{{form.id.k},{form.id.m}}} "
                             f"in the bracket [{lo!r}, {hi!r}]")
    return a, b


def j_of_angle(interval) -> tuple:
    """Certified rational enclosure of j(e^{i theta}) over an angle interval.

    j is strictly decreasing along the arc, so the image is spanned by
    the endpoint enclosures (_j_ends), exact rationals with no rounding
    at all.  A reversed interval (lo > hi) raises ValueError.
    """
    lo, hi = interval if isinstance(interval, tuple) else (interval, interval)
    if lo > hi:
        raise ValueError(f"reversed angle interval [{lo!r}, {hi!r}]")
    return _j_ends(hi)[0], _j_ends(lo)[1]


# ---------------------------------------------------------------------------
# trivial orders and the valence formula


def trivial_orders(kprime: int) -> tuple:
    """(order at i, order at rho) of the Eisenstein factor E_{k'}.

    E_6 vanishes simply at i and E_4 simply at rho; E_{k'} factors as
    E_4^a E_6^b with 4a + 6b = k'.
    """
    a, b = EISENSTEIN_FACTORS[kprime]
    return (b, a)


@dataclass
class ZeroReport:
    id: FormId
    arc_angles: list | None             # (theta_lo, theta_hi) float pairs; None: not sampled
    faber_roots_in: list                # rational isolating intervals in (0, 1728)
    faber_roots_out: dict               # real_outside / complex_pairs counts
    boundary_mult: dict                 # exact Faber roots at 0 and 1728
    ord_infty: int
    trivial_i: int
    trivial_rho: int
    squarefree_defect: int
    valence_ok: bool = False

    def to_json_dict(self) -> dict:
        return {
            "k": self.id.k, "m": self.id.m, "ell": self.id.ell,
            "kprime": self.id.kprime,
            "arc_angles": (None if self.arc_angles is None
                           else [[a, b] for a, b in self.arc_angles]),
            "faber_roots_in": [[str(a), str(b)] for a, b in self.faber_roots_in],
            "faber_roots_out": self.faber_roots_out,
            "boundary_mult": {str(k): v for k, v in self.boundary_mult.items()},
            "ord_infty": self.ord_infty,
            "trivial_i": self.trivial_i,
            "trivial_rho": self.trivial_rho,
            "squarefree_defect": self.squarefree_defect,
            "valence_ok": self.valence_ok,
        }


def _deflated(p: IntPolynomial) -> tuple:
    """(multiplicity of the root 0, of the root 1728, p with both divided out)."""
    mults = []
    for at in (0, 1728):
        mults.append(0)
        while p.degree > 0 and p(at) == 0:
            p = p.exact_div(IntPolynomial((-at, 1))).primitive()
            mults[-1] += 1
    return (*mults, p)


def _sturm_census(p: IntPolynomial) -> tuple:
    """(isolating intervals in (0, 1728), counts off [0, 1728], square-free
    defect) of p, with no root at 0 or 1728, from one Sturm chain."""
    if p.degree <= 0:
        return [], {"real_outside": 0, "complex_pairs": 0}, 0
    sqf, chain = _squarefree_chain(p)
    lo, hi = Fraction(0), Fraction(1728)
    return (_bisect(sqf, _chain_counter(chain, lo, hi), lo, hi, ROOT_WIDTH),
            _count_off(sqf, chain, lo, hi), p.degree - sqf.degree)


def _interlaced_census(p: IntPolynomial, fid: FormId) -> tuple | None:
    """_sturm_census's result from an interlacing certificate, or None.

    The points xs are 1728, the least dyadic within 2^-20 relative of
    arc_j_float at each interior double_angles angle, and 0.  If they fall
    strictly and p's exact signs there, none 0, change deg p times, each
    root is real, simple and alone in a gap whose end signs differ (the
    proof of _separated_signs with v_i = u_i); a wrong double only breaks
    the certificate.  Newton (_secular_roots) starts in each gap at the
    zero of 2 cos h, h = (n + 1/2) pi (Rankin and Swinnerton-Dyer), and
    _root_cells makes its guesses _bisect's leaves.
    """
    h = HFunction(fid.k, fid.m)
    if not h.monotone:
        return None
    angles = [(n, t) for n, t in h.double_angles() if t is not None]
    xs = ([Fraction(1728)] + [_least_dyadic(x - x / 2 ** 20, x + x / 2 ** 20) or Fraction(x)
                              for x in (arc_j_float(t) for _, t in angles)] + [Fraction(0)])
    values = [p.scaled_at(x.numerator, x.denominator) for x in xs]
    signs = [(v > 0) - (v < 0) for v in values]
    if 0 in signs or _changes(signs) != p.degree or any(x <= y for x, y in zip(xs, xs[1:])):
        return None
    ts = [math.pi / 2] + [t for _, t in angles] + [2 * math.pi / 3]
    starts = [arc_j_float(h.solve((math.floor(n) + 0.5) * math.pi, (s + t) / 2))
              for n, s, t in zip([fid.k / 4] + [n for n, _ in angles], ts, ts[1:])]
    guesses = _secular_roots(xs, values, starts, float(ROOT_WIDTH) / (1 << 20))
    return _root_cells(p, xs, signs, guesses), {"real_outside": 0, "complex_pairs": 0}, 0


def _secular_roots(xs: list, values: list, starts: list, tol) -> list:
    """Double guesses, to about tol, of p's root in each gap of the falling
    points xs whose end signs differ, Newton in gap i starting at
    starts[i]; values[i] = b^d p(a / b) at xs[i] = a / b, d = deg p.

    With one node x_i per run of one sign, p = prod (x - x_i) N for the
    secular function N = sum c_i / (x - x_i), c_i = p(x_i) /
    prod_(j != i) (x_i - x_j).  The c_i share one sign, so N is monotone
    between poles, and safeguarded Newton on it, the c_i from log2 |c_i|,
    avoids the cancellation of p's monomials (Bunch, Nielsen and Sorensen).
    """
    keep = [i for i, v in enumerate(values) if i == 0 or (v > 0) != (values[i - 1] > 0)]
    nodes = [float(xs[i]) for i in keep]
    logs = [math.log2(abs(values[i])) - (len(keep) - 1) * math.log2(xs[i].denominator)
            - sum(math.log2(abs(x - y)) for y in nodes if y != x) for i, x in zip(keep, nodes)]
    weights = [2.0 ** (c - max(logs)) for c in logs]
    out = []
    for i, start in enumerate(starts):
        if (values[i] > 0) == (values[i + 1] > 0):
            continue
        lo, hi = float(xs[i + 1]), float(xs[i])
        x = start if lo < start < hi else (lo + hi) / 2
        for _ in range(64):
            n = dn = 0.0
            for c, y in zip(weights, nodes):
                d = x - y
                n += c / d
                dn += c / d / d
            step = n / dn
            if abs(step) < tol:
                break
            lo, hi = (x, hi) if n > 0 else (lo, x)
            x = x + step if lo < x + step < hi else (lo + hi) / 2
            if not lo < x < hi:                 # the bracket is down to one ulp
                break
        out.append(x)
    return out


def _root_cells(p: IntPolynomial, xs: list, signs: list, guesses: list) -> list:
    """_bisect's leaves on [0, 1728] for p under the certificate (xs, signs),
    from a guess of each root.

    A guess names the grid cell of the first depth of width <= ROOT_WIDTH.
    Deg p distinct cells with nonzero, opposite exact end signs hold one
    root each, strictly inside, so no point of the bisection tree is a root
    and the cells are its leaves.  A cell with two guesses or no sign
    change is bisected alone; if an end sign is 0 or fewer than deg p
    roots are found, [0, 1728] is.
    """
    lo, hi = Fraction(0), Fraction(1728)
    grid = 1 << (math.ceil(hi / ROOT_WIDTH) - 1).bit_length()     # cell c: 1728 [c, c + 1] / grid
    cells = Counter(int(x * grid / 1728) for x in guesses)
    ends = {c: p.sign_at(1728 * c, grid) for cell in cells for c in (cell, cell + 1)}
    out = []
    for c, n in sorted(cells.items()):
        a, b = Fraction(1728 * c, grid), Fraction(1728 * (c + 1), grid)
        if ends[c] * ends[c + 1] == 0:
            break
        out += ([(a, b)] if n == 1 and ends[c] != ends[c + 1]
                else _bisect(p, _gap_counter(p, xs, signs, a, b), a, b, ROOT_WIDTH))
    else:
        if len(out) == p.degree:
            return out
    return _bisect(p, _gap_counter(p, xs, signs, lo, hi), lo, hi, ROOT_WIDTH)


def zero_report(form: MillerForm, with_arc: bool = True) -> ZeroReport:
    """Exact Faber root census, arc brackets and the valence check of one form.

    The census deflates F at 0 and 1728, then tries _interlaced_census,
    whose leaves come from guessed cells that exact signs accept, and runs
    _sturm_census only when that certificate fails.  with_arc=False
    leaves arc_angles empty.  A form that arc_zero_localize does not
    sample (k <= 4 pi m) has arc_angles None; the exact census and the
    valence check still decide it.
    """
    fid = form.id
    mult0, mult1728, deflated = _deflated(form.faber)
    census = _interlaced_census(deflated, fid) if deflated.degree > 0 else None
    inner, off, defect = census or _sturm_census(deflated)
    ti, trho = trivial_orders(fid.kprime)
    report = ZeroReport(
        id=fid,
        arc_angles=arc_zero_localize(form) if with_arc else [],
        faber_roots_in=inner,
        faber_roots_out=off,
        boundary_mult={0: mult0, 1728: mult1728},
        ord_infty=fid.m,
        trivial_i=ti + 2 * mult1728,
        trivial_rho=trho + 3 * mult0,
        squarefree_defect=defect,
    )
    report.valence_ok = valence_reconcile(report)
    return report


def valence_reconcile(report: ZeroReport) -> bool:
    """Exact rational valence identity for the assembled report.

    ord_infty + ord_i/2 + ord_rho/3 + (nontrivial zeros with
    multiplicity) must equal k/12.  The nontrivial count is the Faber
    degree ell - m (MillerForm.check holds every form to it) minus the
    boundary multiplicities; the report's census must also account for
    every one of those roots.
    """
    fid = report.id
    nontrivial = fid.ell - fid.m - report.boundary_mult[0] - report.boundary_mult[1728]
    total = (Fraction(report.ord_infty)
             + Fraction(report.trivial_i, 2)
             + Fraction(report.trivial_rho, 3)
             + nontrivial)
    if total != Fraction(fid.k, 12):
        return False
    distinct = (len(report.faber_roots_in)
                + report.faber_roots_out["real_outside"]
                + 2 * report.faber_roots_out["complex_pairs"])
    return distinct + report.squarefree_defect == nontrivial


# ---------------------------------------------------------------------------
# the exhaustive small-weight sweep


def verify_theorem_m1(max_ell: int = 14) -> list:
    """All g_{k,1} with 1 <= ell <= max_ell have real simple Faber roots
    inside [0, 1728]; raises TheoremViolationError at the first failure.

    Covers every extra weight, 6 forms per ell.  Combined with the
    oscillation estimate for ell >= 15 this machine-checks the full
    on-arc statement for m = 1.  max_ell < 1 checks no form and raises
    ValueError.
    """
    if max_ell < 1:
        raise ValueError(f"max_ell must be at least 1, got {max_ell}")
    ks = sorted(12 * ell + kp for ell in range(1, max_ell + 1)
                for kp in EXTRA_WEIGHTS)
    out = []
    for k in ks:
        rep = zero_report(miller_form(k, 1), with_arc=False)
        if any(rep.faber_roots_out.values()) or rep.squarefree_defect:
            raise TheoremViolationError(rep.id, "Faber roots leave [0, 1728]")
        if not rep.valence_ok:
            raise TheoremViolationError(rep.id, "valence reconciliation failed")
        out.append((k, rep))
    return out


# ---------------------------------------------------------------------------
# distribution of the arc zeros


@dataclass
class DistributionStats:
    k: int
    m: int
    count: int | None               # None: the form is not sampled
    discrepancy: float | None
    histogram: list | None

    def to_json_dict(self) -> dict:
        return {"k": self.k, "m": self.m, "count": self.count,
                "discrepancy": self.discrepancy, "histogram": self.histogram}


def star_discrepancy(unit_points: list) -> float:
    """Sup-distance between the empirical cdf of points in [0,1] and x."""
    pts = sorted(unit_points)
    n = len(pts)
    if n == 0:
        return 1.0
    worst = 0.0
    for i, u in enumerate(pts, start=1):
        worst = max(worst, abs(i / n - u), abs(u - (i - 1) / n))
    return worst


def zero_angles(form: MillerForm) -> list | None:
    """Midpoints of the arc zero brackets, each refined to width 1e-5.

    None when arc_zero_localize does not sample the form.
    """
    brackets = arc_zero_localize(form)
    if brackets is None:
        return None
    out = []
    for lo, hi in brackets:
        a, b = refine_arc_zero(form, lo, hi)
        out.append((a + b) / 2)
    return out


def distribution_stats(fid_list: list, bins: int = 8) -> list:
    """Histogram and star discrepancy of normalized zero angles per form.

    Angles are mapped to [0, 1] by u = (theta - pi/2) / (pi/6); uniform
    distribution of the zeros corresponds to the uniform measure there.
    A form without sample angles (zero_angles None) gets None for its
    count, discrepancy and histogram.  Fewer than one bin raises
    ValueError.
    """
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    lo = math.pi / 2
    span = math.pi / 6
    out = []
    for fid in fid_list:
        if isinstance(fid, tuple):
            fid = FormId.from_k(*fid)
        angles = zero_angles(miller_form(fid.k, fid.m))
        if angles is None:
            out.append(DistributionStats(k=fid.k, m=fid.m, count=None,
                                         discrepancy=None, histogram=None))
            continue
        units = [(t - lo) / span for t in angles]
        hist = [0] * bins
        for u in units:
            hist[min(bins - 1, int(u * bins))] += 1
        out.append(DistributionStats(k=fid.k, m=fid.m, count=len(units),
                                     discrepancy=star_discrepancy(units),
                                     histogram=hist))
    return out
