"""Match-count polynomial: real roots, Bernoulli splitting, tail bounds.

For vectors counted by the no-adjacent-support rule, the number U of
nonzero coordinates has weight C(n-k, k) d^k at k.  Its generating
polynomial has simple negative real roots, which splits U into a sum of
independent Bernoulli variables and buys sub-Gaussian lower tails.

Root finding here is certified, not numeric: roots of the derivative are
isolated recursively, consecutive critical intervals are refined until the
polynomial has a known sign on each, and every sign change then brackets
exactly one simple root.  A returned certificate is a proof, and a
polynomial that is not real-rooted fails loudly instead of quietly.

The arithmetic is integer throughout.  A bracket is held as integers
(a, b, S) with lo = a/S, hi = b/S and S > 0; its midpoint is (a + b)/(2S),
so bisection needs no gcd, and a Fraction is built only for the returned
certificate.

Signs come from `_sign`, an exact oracle in the manner of Shewchuk's
adaptive predicates, planned once per polynomial (`_Plan`) and tried
cheapest tier first:

1. doubles, when every |a_k| <= 2^53: Horner at the correctly rounded
   quotient num/den decides when its value clears Higham's a-priori bound
   E, widened for the rounding of x and for underflow (`_float_sign`);
2. fixed point at P = 160 bits, deciding when the value clears the bound B
   on its floor errors (`_fixed_sign`, which proves B for every P);
3. the same at P = bits(den) + bits(B), for points so close to a root that
   160 bits cannot see the value: a bisection point with denominator den
   lies about 1/den from the root it brackets;
4. exact integer Horner of den^m p(num/den), which alone can return 0.

Each filter returns a sign only when its proof holds, so every sign is
exact.  B and E depend on the point only through T = floor|x| + 2; the plan
computes them once per T, and a bisection keeps T for most of its steps.
The brackets that refine the derivative's roots also keep p's signs at
their two ends: a bisection moves one end and keeps the other (b/S =
2b/2S), so only the moved end is evaluated again.  Rounds, midpoints and
the stopping rule are those of plain Fraction bisection and every sign is
the exact one, so the brackets equal, value for value, the ones Fraction
arithmetic gives.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .distributions import DiscreteDist

_REFINE_ROUNDS = 256
_WIDTH_SCALE = 10**13  # refine to relative width 1 / _WIDTH_SCALE
_FILTER_BITS = 160  # P of the first fixed-point tier
_FLOAT_COEFF_MAX = 2**53  # every integer up to this is a double
_FLOAT_X_MIN = 2.0**-1000  # below it the float tier steps aside


class RealRootednessError(ValueError):
    """Raised when the requested real-root certificate cannot be produced."""


class PFSequence(namedtuple("PFSequence", "coefficients")):
    """Integer coefficient sequence a_0..a_m, ascending degree."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        if not coefficients or coefficients[-1] == 0:
            raise ValueError("need a nonzero leading coefficient")
        if any(c < 0 for c in coefficients):
            raise ValueError("coefficients must be nonnegative")
        return super().__new__(cls, coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _derivative(coeffs: Sequence[int]) -> tuple[int, ...]:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


class _Plan:
    """One polynomial's sign oracle: its coefficients in every form a tier reads.

    `coeffs` are the integers, a_0 first; `shifted`, the same times
    2^_FILTER_BITS, and `floats`, their doubles (None when some |a_k| > 2^53),
    run from a_m down, in the order Horner reads them.  `bounds(t)` gives
    the fixed-point bound B and the float bound E at T = t, computed once per
    T: a bisection keeps T for most of its steps.
    """

    __slots__ = ("coeffs", "shifted", "floats", "_mass", "_terms", "_bounds")

    def __init__(self, coeffs: Sequence[int]):
        self.coeffs = tuple(coeffs)
        top = self.coeffs[::-1]
        self.shifted = tuple(c << _FILTER_BITS for c in top)
        fits = all(abs(c) <= _FLOAT_COEFF_MAX for c in top)
        self.floats = tuple(map(float, top)) if fits else None
        m = len(top) - 1
        # S = sum_k |a_k| T^k and B = m T^(m-1) + sum_k k |a_k| T^(k-1) as
        # polynomials in T, highest power first
        self._mass = tuple(map(abs, top))
        self._terms = tuple(k * abs(self.coeffs[k]) + (m if k == m else 0) for k in range(m, 0, -1))
        self._bounds = {}

    def bounds(self, t: int) -> tuple[int, float]:
        """(B, E) at T = t, as `_fixed_sign` and `_float_sign` prove them."""
        found = self._bounds.get(t)
        if found is None:
            fixed = 0
            for c in self._terms:
                fixed = fixed * t + c
            error = math.inf
            if self.floats is not None and t <= _FLOAT_COEFF_MAX:
                mass = 0
                for c in self._mass:
                    mass = mass * t + c
                m2 = 2 * (len(self._mass) - 1)
                try:
                    error = math.nextafter((m2 * mass + t * fixed) / (2**53 - m2), math.inf)
                except OverflowError:
                    pass
            found = self._bounds[t] = (fixed, error)
        return found


def _float_sign(plan: _Plan, num: int, den: int, error: float):
    """Sign of p(num/den) from double Horner, or None when it cannot decide.

    x^ = num/den is Python's correctly rounded quotient.  The tier steps
    aside when some |a_k| > 2^53 (the doubles would not be the coefficients),
    when the quotient overflows, when |x^| < 2^-1000 and when the Horner
    value is not finite (an overflow stays infinite, as x^ != 0).  Otherwise
    x = num/den is a normal number, so |x - x^| <= u |x| with u = 2^-53, and
    every a_k is exact.  Let T = floor|x| + 2 <= 2^53: then T is a double
    and |x|, |x^| <= T.  Horner in doubles, with
    fl(a op b) = (a op b)(1 + delta) + eta, |delta| <= u, eta = 0 for a sum
    and |eta| <= 2^-1075 for a product in gradual underflow, returns r with
    (Higham, Accuracy and Stability of Numerical Algorithms, eq. 5.3, plus
    the eta terms)
        |r - p(x^)| <= gamma_2m S + 2^-1075 (1 + gamma_2m) sum_{k<m} T^k,
    S = sum_k |a_k| T^k, gamma_2m = 2mu / (1 - 2mu) = 2m / (2^53 - 2m), and
    the last term is below u m T^m.  By the mean value theorem,
    |p(x) - p(x^)| <= u T sum_k k |a_k| T^(k-1).  With `_fixed_sign`'s
    B = m T^(m-1) + sum_k k |a_k| T^(k-1), and u <= 1 / (2^53 - 2m),
        |r - p(x)| <= gamma_2m S + u T B <= E = (2m S + T B) / (2^53 - 2m),
    which `_Plan.bounds` computes in integers, divides correctly rounded and
    steps up one ulp.  |r| > E gives sign p(x) = sign r.  A root has
    |r| <= E, so the tier never returns 0.
    """
    floats = plan.floats
    if floats is None:
        return None
    try:
        x = num / den
    except OverflowError:
        return None
    if abs(x) < _FLOAT_X_MIN:
        return None
    r = 0.0
    for c in floats:
        r = r * x + c
    if not math.isfinite(r) or abs(r) <= error:
        return None
    return 1 if r > 0 else -1


def _fixed_sign(plan: _Plan, num: int, den: int, shift: int, bound: int):
    """Sign of p(num/den) from Horner at fixed point 2^shift, or None.

    For x = num/den, X = floor(x 2^P) with P = shift and floor shifts, Horner
    computes H_m = a_m 2^P, H_k = floor(H_{k+1} X / 2^P) + a_k 2^P.  Write
    x~ = X / 2^P = x + eps, -2^-P < eps <= 0, h_k for the exact Horner
    values of p at x (h_0 = p(x)) and e_k = H_k / 2^P - h_k.  Each step
    drops a floor part delta_k in [0, 2^-P), so e_m = 0 and
    e_k = e_{k+1} x~ + h_{k+1} eps - delta_k, whence
    e_0 = sum_{k<m} x~^k (h_{k+1} eps - delta_k).  With T = floor|x| + 2,
    both |x| and |x~| are below T, and |h_{k+1}| <= sum_{j>k} |a_j| T^(j-k-1),
    so |e_0| <= 2^-P (sum_{k<m} T^k + sum_k T^k |h_{k+1}|)
               <= 2^-P (m T^(m-1) + sum_j j |a_j| T^(j-1)) = 2^-P B.
    Thus |H_0 - 2^P p(x)| <= B for every P, and |H_0| > B gives
    sign p(x) = sign H_0.  A root has |H_0| <= B, so the tier never
    returns 0.
    """
    coeffs = plan.shifted if shift == _FILTER_BITS else [c << shift for c in plan.coeffs[::-1]]
    x = (num << shift) // den
    acc = 0
    for c in coeffs:
        acc = ((acc * x) >> shift) + c
    if acc > bound:
        return 1
    if acc < -bound:
        return -1
    return None


def _exact_sign(coeffs: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den), den > 0, from the integer Horner of den^m p(num/den)."""
    acc = 0
    dp = 1
    for c in reversed(coeffs):
        acc = acc * num + c * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def _sign(plan: _Plan, num: int, den: int) -> int:
    """Exact sign of p(num/den) for den > 0, cheapest tier first.

    Doubles, then fixed point at P = 160, then at P = bits(den) + bits(B),
    then exact integers; each filter either proves the sign or passes.
    """
    fixed, error = plan.bounds(abs(num) // den + 2)
    s = _float_sign(plan, num, den, error)
    if s is None:
        s = _fixed_sign(plan, num, den, _FILTER_BITS, fixed)
    if s is None:
        wide = den.bit_length() + fixed.bit_length()
        if wide > _FILTER_BITS:
            s = _fixed_sign(plan, num, den, wide, fixed)
    if s is None:
        s = _exact_sign(plan.coeffs, num, den)
    return s


def _root_bound(coeffs: Sequence[int]) -> tuple[int, int]:
    # Cauchy: every root has |z| < 1 + max|a_i| / |a_m|, as (numerator, denominator)
    lead = abs(coeffs[-1])
    return lead + max(abs(c) for c in coeffs[:-1]), lead


def _bisect_once(plan: _Plan, br: list) -> None:
    # br = [a, b, S, sign at a/S, sign at b/S, q at a/S, q at b/S]: the signs
    # are plan's and differ, q caches another polynomial's sign (None: unknown);
    # the end kept names the same point (b/S = 2b/2S), so only the moved q resets
    a, b, den, s_lo, s_hi, q_lo, q_hi = br
    mid = a + b
    den *= 2
    s = _sign(plan, mid, den)
    if s == 0:
        br[:] = [mid, mid, den, 0, 0, None, None]
    elif s == s_lo:
        br[:] = [mid, 2 * b, den, s, s_hi, None, q_hi]
    else:
        br[:] = [2 * a, mid, den, s_lo, s, q_lo, None]


def _isolate(plan: _Plan) -> list[list]:
    """Disjoint increasing intervals, each holding one simple real root.

    Entries are [a, b, S, sign at a/S, sign at b/S, None, None] for the
    interval [a/S, b/S], S > 0, with signs taken for this polynomial; the
    two free slots are `_bisect_once`'s cache for a caller.  Exact rational
    roots collapse to [r, r, S, 0, 0, None, None].  Raises
    RealRootednessError if degree-many simple real roots cannot be certified
    (multiple root, or roots off the real line).
    """
    coeffs = plan.coeffs
    m = len(coeffs) - 1
    if m <= 0:
        return []
    if m == 1:
        num, den = -coeffs[0], coeffs[1]
        if den < 0:
            num, den = -num, -den
        return [[num, num, den, 0, 0, None, None]]
    dplan = _Plan(_derivative(coeffs))
    # child brackets carry dco signs, exactly what bisection on dco needs,
    # and cache p's signs at their ends in the free slots
    crit = _isolate(dplan)
    bound, bound_den = _root_bound(coeffs)
    s_left = _sign(plan, -bound, bound_den)
    s_right = _sign(plan, bound, bound_den)
    for _ in range(_REFINE_ROUNDS):
        sites = _critical_signs(plan, crit)
        if sites is not None:
            found = _sign_changes(sites, bound, bound_den, s_left, s_right)
            if len(found) == m:
                return found
        for br in crit:
            if br[0] != br[1]:
                _bisect_once(dplan, br)
    raise RealRootednessError(f"no certificate of {m} simple real roots")


def _critical_signs(plan: _Plan, crit):
    """(a, b, S, sign of p near the critical point), or None to refine more.

    p's end signs are read from the brackets' cache slots and filled where
    a bisection reset them.
    """
    sites = []
    for br in crit:
        a, b, den = br[:3]
        if br[5] is None:
            br[5] = _sign(plan, a, den)
        if br[6] is None:
            br[6] = br[5] if a == b else _sign(plan, b, den)
        s_lo, s_hi = br[5], br[6]
        if a == b and s_lo == 0:
            raise RealRootednessError("multiple root")
        if s_lo == s_hi and s_lo != 0:
            sites.append((a, b, den, s_lo))
        else:
            return None
    return sites


def _sign_changes(sites, bound, bound_den, s_left, s_right):
    pts = [(-bound, -bound, bound_den, s_left)] + sites + [(bound, bound, bound_den, s_right)]
    out = []
    for (_, u1, d1, s1), (l2, _, d2, s2) in zip(pts, pts[1:]):
        if s1 != 0 and s2 != 0 and s1 != s2:
            den = math.lcm(d1, d2)
            out.append([u1 * (den // d1), l2 * (den // d2), den, s1, s2, None, None])
    return out


def _refine(plan: _Plan, br: list) -> None:
    # bisect while hi - lo > max(1, |lo|, |hi|) / _WIDTH_SCALE, multiplied
    # through by S; an exact root (a == b) has width 0 and stops at once
    while (br[1] - br[0]) * _WIDTH_SCALE > max(br[2], abs(br[0]), abs(br[1])):
        _bisect_once(plan, br)


class RootCertificate(namedtuple("RootCertificate", "degree brackets")):
    """Exact bracketing proof for the full real root list: (lo, hi) per root."""

    __slots__ = ()

    @property
    def all_negative(self) -> bool:
        return all(hi < 0 for _, hi in self.brackets)

    def all_at_most(self, bound: Fraction) -> bool:
        return all(hi <= bound for _, hi in self.brackets)


def pf_real_roots(seq: PFSequence | Iterable[int]) -> tuple[list[float], RootCertificate]:
    """All roots, certified real and simple, ascending.

    Brackets in the certificate are refined to relative width 1e-13, so the
    float roots carry comparable accuracy.  A nonzero constant has degree 0
    and no roots; an empty sequence or a zero leading coefficient (the zero
    polynomial included) raises ValueError.
    """
    coeffs = tuple(seq.coefficients if isinstance(seq, PFSequence) else seq)
    if not coeffs or coeffs[-1] == 0:
        raise ValueError("need a nonzero leading coefficient")
    plan = _Plan(coeffs)
    refined = []
    for br in _isolate(plan):
        _refine(plan, br)
        a, b, den = br[:3]
        refined.append((Fraction(a, den), Fraction(b, den)))
    cert = RootCertificate(degree=len(coeffs) - 1, brackets=tuple(refined))
    roots = [float((lo + hi) / 2) for lo, hi in refined]
    return roots, cert


def residual(coeffs: Sequence[int], root: float) -> float:
    """|p(root)| relative to the coefficient mass at |root|."""
    acc = 0.0
    scale = 0.0
    power = 1.0
    for c in coeffs:
        acc += c * power
        scale += abs(c) * abs(power)
        power *= root
    return abs(acc) / scale


def u_weights(n: int, d: int) -> list[int]:
    if n < 2 or d < 1:
        raise ValueError("need n >= 2, d >= 1")
    return [comb(n - k, k) * d**k for k in range(n // 2 + 1)]


def u_polynomial(n: int, d: int) -> PFSequence:
    return PFSequence(tuple(u_weights(n, d)))


def u_distribution(n: int, d: int) -> DiscreteDist:
    """Nonzero-coordinate count over the no-adjacent-support family."""
    return DiscreteDist(dict(enumerate(u_weights(n, d))))


BernoulliSplit = namedtuple(
    "BernoulliSplit", "n d roots probabilities certificate reconstruction_error")


def bernoulli_decomposition(n: int, d: int) -> BernoulliSplit:
    """U as an independent Bernoulli sum, p_i = 1/(1 - z_i).

    The split is re-multiplied and compared against the exact weights; the
    max pmf discrepancy is recorded so callers can see the float loss.
    """
    roots, cert = pf_real_roots(u_polynomial(n, d))
    if not cert.all_negative:
        raise RealRootednessError("roots must be negative for a Bernoulli split")
    probs = [1.0 / (1.0 - z) for z in roots]
    pmf = [1.0]
    for p in probs:
        nxt = [0.0] * (len(pmf) + 1)
        for i, mass in enumerate(pmf):
            nxt[i] += mass * (1.0 - p)
            nxt[i + 1] += mass * p
        pmf = nxt
    dist = u_distribution(n, d)
    err = max(abs(pmf[k] - float(dist.probability(k))) for k in range(len(pmf)))
    return BernoulliSplit(
        n=n,
        d=d,
        roots=tuple(roots),
        probabilities=tuple(sorted(probs, reverse=True)),
        certificate=cert,
        reconstruction_error=err,
    )


# linear_slack is the mean minus (5 - sqrt 5)/10 * n
UMeanBounds = namedtuple("UMeanBounds", "n d mean upper meets_upper linear_slack")


def u_mean_bounds(n: int, d: int) -> UMeanBounds:
    mean = u_distribution(n, d).mean()
    upper = Fraction(n, 2)
    slope = (5.0 - math.sqrt(5.0)) / 10.0
    return UMeanBounds(
        n=n,
        d=d,
        mean=mean,
        upper=upper,
        meets_upper=mean <= upper,
        linear_slack=float(mean) - slope * n,
    )


LowerTailCheck = namedtuple("LowerTailCheck", "n d r mean tail bound holds")


def pf_tail_bound(n: int, d: int, r) -> LowerTailCheck:
    """Exact P(U <= mean - r) against exp(-r^2 / (2 mean))."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError("need r > 0")
    dist = u_distribution(n, d)
    mu = dist.mean()
    cut = mu - r
    tail = Fraction(sum(w for k, w in dist.items() if k <= cut), dist.total)
    bound = math.exp(-float(r * r) / (2.0 * float(mu)))
    return LowerTailCheck(
        n=n, d=d, r=r, mean=mu, tail=tail, bound=bound, holds=float(tail) <= bound
    )


def u_variance_deviations(n_range: Iterable[int], d: int = 1) -> list[tuple[int, Fraction, float]]:
    """(n, exact Var U, |Var - n sqrt(5)/25|) rows; the gap should stay O(1)."""
    slope = math.sqrt(5.0) / 25.0
    rows = []
    for n in n_range:
        var = u_distribution(n, d).variance()
        rows.append((n, var, abs(float(var) - slope * n)))
    return rows
