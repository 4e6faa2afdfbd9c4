"""Zero location and counting for the basis forms g_{k,m}.

Two mechanisms see every zero:

  * the exact census of the Faber polynomial F over the rationals,
    deflated at 0 and 1728, which decides "all roots real, simple,
    inside [0, 1728]" as a theorem-grade statement.  An interlacing
    certificate decides it first: F's exact signs at 1728, at the exact
    values of arc_j_float at the interior sample angles and at 0 change
    deg F times (_interlaced_census).  Only when that fails does a Sturm
    chain decide (_sturm_census); a failure never means a zero off the arc.
  * certified sign changes of F inside the j-image of the angle
    intervals between the samples where h(theta) = k theta / 2 + 2 pi m
    cos theta crosses multiples of pi.  j is a decreasing bijection of
    the arc onto [0, 1728], so for angles a < b with certified j
    enclosures [lo_a, hi_a] and [lo_b, hi_b], j((a, b)) holds
    [hi_b, lo_a]; opposite exact signs of F at two points there
    (IntPolynomial.sign_at) put a zero of g_{k,m} = Delta^ell E_k' F(j)
    in (a, b), whatever the signs of its other factors.  Each sample
    costs one certified j(theta) enclosure at DEFAULT_PREC; one count of
    F's sign changes at short dyadics around them against deg F decides
    every interval at once (_separated_signs), and only when that count
    fails is each interval decided alone (_sign_change_inside).

refine_arc_zero narrows a bracket by bisection on an uncertified sign,
F at the double j of evalnum.arc_j_float, and certifies only the cell it
ends in, by _sign_change_inside; bisection on F's exact sign at each
angle's j enclosure runs only when that fails.

The j-images of the arc brackets must land in the Faber isolating
intervals, and the valence formula must reconcile exactly; both checks
are assembled into a ZeroReport.

Isolation bisects an interval with no root at an end: zero_report's
[0, 1728], counting roots by the certificate's gaps (_gap_counter) or a
Sturm chain (_chain_counter), and real_root_census's Cauchy bound, by a
chain, which counts a point beyond every root at a power of two above
them (_root_power).  The chains are primitive remainder sequences of
IntPolynomial, whose content gcds cost seconds at degree 79.  Every point visited is a
dyadic t = n / 2^e of [lo, hi] mapped onto [0, 1] (IntPolynomial.affine)
and every sign one integer Horner loop, IntPolynomial.sign_at(n, 2^e);
a root's last cell may be guessed in doubles, but only exact signs
accept it (_guess_leaf).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from mpmath import mp, mpf, workprec
from mpmath.libmp import mpf_cos_sin

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
    """Roots of p in (a, b] for grid points a < b of [lo, hi], from a
    certificate: signs = _separated_signs(p, (x, x) for x in xs), not None,
    with xs falling from hi to lo.

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


def _guess_leaf(q: IntPolynomial, fq: list, a: tuple, b: tuple, w: Fraction):
    """The leaf that bisecting the grid cell (a, b), which holds one root
    of q, down to width w ends in; None when no guess holds.

    Newton's method on q's doubles fq, kept inside the cell, locates the
    root; the leaf is the dyadic subinterval of the cell holding it at
    the first depth that passes the width test.  It is taken only when
    q's exact signs at its ends are nonzero and opposite: the root is then
    strictly inside, no midpoint on the path to the leaf is a root, and
    bisection on exact signs ends there too.  No guess is made when a
    double cannot resolve the leaf.
    """
    na, nb, e = _common(a, b)
    span = nb - na
    need, have = span * w.denominator, w.numerator << e
    depth = max(need.bit_length() - have.bit_length(), 0)
    depth += (have << depth) < need
    lo, hi = na / (1 << e), nb / (1 << e)
    leaf = span / (1 << (e + depth))
    if depth == 0 or leaf < 64 * math.ulp(hi):
        return None

    def value(t: float) -> tuple:
        v = dv = 0.0
        for c in reversed(fq):
            v, dv = v * t + c, dv * t + v
        return v, dv

    v_lo, v_hi = value(lo)[0], value(hi)[0]
    if not v_lo * v_hi < 0:
        return None
    rising = v_lo < 0
    t = (lo + hi) / 2
    for _ in range(100):
        v, dv = value(t)
        if v == 0:
            break
        if (v < 0) == rising:
            lo = t
        else:
            hi = t
        step = v / dv if dv else math.inf
        t, last = t - step if lo < t - step < hi else (lo + hi) / 2, t
        if abs(t - last) < leaf / 16:
            break
    i = min(max(int((t - na / (1 << e)) / leaf), 0), (1 << depth) - 1)
    ends = [_reduced((na << depth) + j * span, e + depth) for j in (i, i + 1)]
    s_lo, s_hi = (q.sign_at(n, 1 << f) for n, f in ends)
    return tuple(ends) if s_lo * s_hi < 0 else None


def _bisect(sqf: IntPolynomial, count, lo: Fraction, hi: Fraction, width: Fraction) -> list:
    """Isolating intervals below width for the roots of sqf in (lo, hi).

    count(a, b) is the number of roots of sqf in (a, b] for grid points
    a < b: _chain_counter or _gap_counter on [lo, hi].  Neither end may be
    a root of sqf (ArithmeticError otherwise): zero_report deflates at 0
    and 1728, real_root_census isolates on the Cauchy bound, which lies
    strictly beyond every root.  [lo, hi] is mapped once onto [0, 1]
    (IntPolynomial.affine), and every point visited is a grid point
    t = n / 2^e there: the midpoint of the current interval or, when
    that is a root of sqf, the first of mid + i (b - a) / 2048 that is
    not.  Every sign is IntPolynomial.sign_at(n, 2^e), and the width
    test (n_b - n_a) w_den > w_num 2^e, with w = width / (hi - lo), is
    integer arithmetic too; only the returned ends lo + (hi - lo) t are
    Fractions.  Counting stops at an interval with exactly one root; that
    root is simple and both ends are non-roots, so the leaf is either
    _guess_leaf's or found by bisecting on the sign of sqf alone.
    """
    q = sqf.affine(lo, hi)
    if q.sign_at(0) == 0 or q.sign_at(1) == 0:
        raise ArithmeticError(f"an end of [{lo}, {hi}] is a root")
    span = hi - lo
    w = width / span
    # q's shape in doubles for _guess_leaf, all coefficients divided by
    # one power of two that leaves the largest below 2^960
    shift = max(max(abs(c).bit_length() for c in q.coeffs) - 960, 0)
    fq = [float(c >> shift) for c in q.coeffs]
    out = []

    def inner(a: tuple, b: tuple):
        roots = count(a, b)
        if roots == 0:
            return
        if roots == 1:
            leaf = _guess_leaf(q, fq, a, b, w)
            if leaf is not None:
                a, b = leaf
            else:
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
            return
        mid, _ = _safe_point(q, a, b)
        inner(a, mid)
        inner(mid, b)

    inner((0, 0), (1, 0))
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
        the first start is 2 pi / 3.  Newton runs until its step is below
        2^-40 or stops shrinking (rounding then dominates it).
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
                theta, target, last = start, n * math.pi, math.inf
                while True:
                    step = (a * theta + b * math.cos(theta) - target) / (a - b * math.sin(theta))
                    theta -= step
                    if abs(step) < 2 ** -40 or abs(step) >= last:
                        break
                    last = abs(step)
                out.append((n, theta))
            start = min(top, theta + math.pi / (a - b * math.sin(theta)))
        return out

    def sample_angles(self) -> list:
        """(n, theta): the angles of double_angles at 96 bits, the corners
        exact.  Each double is polished by Newton at 96 bits, h and h' from
        one cos_sin per step, until a step is below 2^-60, which leaves the
        angle accurate to rounding.
        """
        k, m = self.k, self.m
        out = []
        with workprec(96):
            lo_all, hi_all = _corner_angles(96)
            tol = mpf(2) ** -60
            half_k, two_pi_m = mpf(k) / 2, 2 * mp.pi * m
            for n, theta in self.double_angles():
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


# ---------------------------------------------------------------------------
# certified arc localization


def _j_ends(theta) -> tuple:
    """(lo, hi): the exact ends of arc_j's enclosure of j(theta) at DEFAULT_PREC."""
    return tuple(_exact(t) for t in arc_j(theta).re)


def _float_arc_sign(form: MillerForm, theta) -> int:
    """Sign of F at the double j of arc_j_float; uncertified.

    F's sign is exact at the rational value n / d of that double
    (IntPolynomial.sign_at), so only the double itself can be wrong.
    refine_arc_zero uses it to pick the cell that it then certifies.
    """
    n, d = arc_j_float(theta).as_integer_ratio()
    return form.faber.sign_at(n, d)


def _least_dyadic(a: Fraction, b: Fraction):
    """The dyadic n / 2^e in (a, b) with the least e >= 0, and of those the
    least; None if a >= b."""
    if a >= b:
        return None
    den = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
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
    of the Faber polynomial p = F there puts a root of F in j((a, b)) and
    a zero of g_{k,m} in (a, b).  The points tried are the least dyadics
    (_least_dyadic) within 2^-32 of the gap of each end, whose short
    integers keep sign_at cheap, and then the ends themselves.  Raises
    InconclusiveSignError when the enclosures overlap.
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
    in pairs inside some [u_i, v_i].  A pair may be one point (v_i = u_i):
    then the certificate puts every root of p in a gap between the points.
    """
    signs, changes, last = [], 0, None
    for pair in pairs:
        if pair is None:
            return None
        v, u = pair
        if not v >= u or (last is not None and v >= last):
            return None
        s_v = _sign(p, v)
        s_u = _sign(p, u) if u < v else s_v
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
    so the last zero can sit far into its j-gap.  The doubles only place
    the separators; a wrong one can only break _separated_signs'
    certificate.  Yields lazily, so a failing certificate stops early.
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
    corner whose j is an exact Faber root; a pair of neighbours with a
    certified sign change of F between their enclosures brackets at least
    one zero (_sign_change_inside), and under the oscillation estimate
    exactly ell - m brackets appear.  One sign-change count
    (_separated_signs on the _separators) decides every pair at once: u_i
    and v_(i+1) are points of the gap with F's signs at samples i and
    i + 1.  A Faber root at 0, 1728 or off the arc, or fewer samples than
    deg F + 1, fails the count, and then each pair is decided alone.  A
    form with nontrivial zeros and k <= 4 pi m has no sample angles (h is
    not monotone) and returns None: not sampled.
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

    Bisection runs on the double-precision sign _float_arc_sign, and only
    the cell it ends in is certified, by _sign_change_inside on the j
    enclosures of its ends.  With one zero in the bracket that is the one
    leaf of the bisection tree holding the zero, where bisection on true
    signs ends too.  Otherwise the bisection runs again on F's exact sign
    at each angle's lower j end, and a cell that still holds no certified
    sign change raises ValueError.
    """
    if not lo < hi:
        raise ValueError(f"the bracket [{float(lo)!r}, {float(hi)!r}] is empty or reversed")
    if not width > 0:
        raise ValueError(f"the cell width must be positive, got {width!r}")
    p = form.faber
    ends = lru_cache(maxsize=None)(_j_ends)
    lo, hi = mpf(lo), mpf(hi)
    a, b = _bisect_arc(lo, hi, width, lambda t: _float_arc_sign(form, t))
    if not _sign_change_inside(p, ends(a), ends(b)):
        a, b = _bisect_arc(lo, hi, width, lambda t: _sign(p, ends(t)[0]))
        if not _sign_change_inside(p, ends(a), ends(b)):
            raise ValueError(f"no certified sign change of g_{{{form.id.k},{form.id.m}}} "
                             f"in the bracket [{float(lo)!r}, {float(hi)!r}]")
    return (float(a), float(b))


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

    The points are 1728, the exact values of arc_j_float at the interior
    double_angles, and 0, falling; _separated_signs takes each as a pair
    of one point.  When it holds, p's roots are real, simple and inside
    (0, 1728), one in each gap whose end signs differ, and _gap_counter
    counts them for _bisect.  The doubles only place the points: a wrong
    one can only break the certificate, and then Sturm decides.
    """
    h = HFunction(fid.k, fid.m)
    if not h.monotone:
        return None
    xs = ([Fraction(1728)] + [Fraction(arc_j_float(t)) for _, t in h.double_angles()
                              if t is not None] + [Fraction(0)])
    signs = _separated_signs(p, ((x, x) for x in xs))
    if signs is None:
        return None
    lo, hi = Fraction(0), Fraction(1728)
    return (_bisect(p, _gap_counter(p, xs, signs, lo, hi), lo, hi, ROOT_WIDTH),
            {"real_outside": 0, "complex_pairs": 0}, 0)


def zero_report(form: MillerForm, with_arc: bool = True) -> ZeroReport:
    """Exact Faber root census, arc brackets and the valence check of one form.

    The census deflates F at 0 and 1728, then tries _interlaced_census and
    runs _sturm_census only when that certificate fails.  with_arc=False
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
    boundary multiplicities; the report's Sturm data must also account
    for every one of those roots.
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
