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
certificate.  Signs come from `_sign`, a filter in the manner of
Shewchuk's adaptive predicates: Horner at fixed point with a proven error
bound decides the sign when the approximation clears the bound, and exact
integer Horner decides it otherwise, so every sign is exact.  Rounds,
midpoints and the stopping rule are those of plain Fraction bisection and
every sign is the exact one, so the brackets equal, value for value, the
ones Fraction arithmetic gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .distributions import DiscreteDist

_REFINE_ROUNDS = 256
_WIDTH_SCALE = 10**13  # refine to relative width 1 / _WIDTH_SCALE
_FILTER_BITS = 160  # P, the fixed-point precision of the sign filter


class RealRootednessError(ValueError):
    """Raised when the requested real-root certificate cannot be produced."""


@dataclass(frozen=True)
class PFSequence:
    """Integer coefficient sequence a_0..a_m, ascending degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        if not self.coefficients or self.coefficients[-1] == 0:
            raise ValueError("need a nonzero leading coefficient")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("coefficients must be nonnegative")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _derivative(coeffs: Sequence[int]) -> tuple[int, ...]:
    return tuple(k * coeffs[k] for k in range(1, len(coeffs)))


def _bound_terms(coeffs: Sequence[int]) -> tuple[int, ...]:
    """`_sign`'s error bound B as a polynomial in T, highest power first.

    B = m T^(m-1) + sum_k k |a_k| T^(k-1) has coefficients m (|a_m| + 1),
    then k |a_k| for k = m-1 .. 1; they are fixed per polynomial.
    """
    m = len(coeffs) - 1
    return (m * (abs(coeffs[m]) + 1),) + tuple(k * abs(coeffs[k]) for k in range(m - 1, 0, -1))


def _sign(coeffs: Sequence[int], num: int, den: int, terms: tuple[int, ...]) -> int:
    """Exact sign of p(num/den) for den > 0; `terms` is `_bound_terms(coeffs)`.

    Filter: for x = num/den, X = floor(x 2^P) and floor shifts, Horner computes
    H_m = a_m 2^P, H_k = floor(H_{k+1} X / 2^P) + a_k 2^P.  Write
    x~ = X / 2^P = x + eps, -2^-P < eps <= 0, h_k for the exact Horner
    values of p at x (h_0 = p(x)) and e_k = H_k / 2^P - h_k.  Each step
    drops a floor part delta_k in [0, 2^-P), so e_m = 0 and
    e_k = e_{k+1} x~ + h_{k+1} eps - delta_k, whence
    e_0 = sum_{k<m} x~^k (h_{k+1} eps - delta_k).  With T = floor|x| + 2,
    both |x| and |x~| are below T, and |h_{k+1}| <= sum_{j>k} |a_j| T^(j-k-1),
    so |e_0| <= 2^-P (sum_{k<m} T^k + sum_k T^k |h_{k+1}|)
               <= 2^-P (m T^(m-1) + sum_j j |a_j| T^(j-1)) = 2^-P B.
    Thus |H_0 - 2^P p(x)| <= B, and |H_0| > B gives sign p(x) = sign H_0.
    A root of p has |H_0| <= B, so a zero is always left to the exact
    branch: the integer Horner of den^m p(num/den).
    """
    shift = _FILTER_BITS
    m = len(coeffs) - 1
    x = (num << shift) // den
    acc = coeffs[m] << shift
    for k in range(m - 1, -1, -1):
        acc = ((acc * x) >> shift) + (coeffs[k] << shift)
    t = abs(num) // den + 2
    bound = 0  # B by Horner in t
    for c in terms:
        bound = bound * t + c
    if acc > bound:
        return 1
    if acc < -bound:
        return -1
    acc = 0
    dp = 1
    for k in range(m, -1, -1):
        acc = acc * num + coeffs[k] * dp
        dp *= den
    return (acc > 0) - (acc < 0)


def _root_bound(coeffs: Sequence[int]) -> tuple[int, int]:
    # Cauchy: every root has |z| < 1 + max|a_i| / |a_m|, as (numerator, denominator)
    lead = abs(coeffs[-1])
    return lead + max(abs(c) for c in coeffs[:-1]), lead


def _bisect_once(coeffs: Sequence[int], terms: tuple[int, ...], br: list) -> None:
    # br = [a, b, S, sign at a/S, sign at b/S] with differing nonzero signs
    a, b, den, s_lo, s_hi = br
    mid = a + b
    den *= 2
    s = _sign(coeffs, mid, den, terms)
    if s == 0:
        br[:] = [mid, mid, den, 0, 0]
    elif s == s_lo:
        br[:] = [mid, 2 * b, den, s, s_hi]
    else:
        br[:] = [2 * a, mid, den, s_lo, s]


def _isolate(coeffs: Sequence[int]) -> list[tuple]:
    """Disjoint increasing intervals, each holding one simple real root.

    Entries are (a, b, S, sign at a/S, sign at b/S) for the interval
    [a/S, b/S], S > 0, with signs taken for this polynomial; exact rational
    roots collapse to (r, r, S, 0, 0).  Raises RealRootednessError if
    degree-many simple real roots cannot be certified (multiple root, or
    roots off the real line).
    """
    m = len(coeffs) - 1
    if m <= 0:
        return []
    if m == 1:
        num, den = -coeffs[0], coeffs[1]
        if den < 0:
            num, den = -num, -den
        return [(num, num, den, 0, 0)]
    dco = _derivative(coeffs)
    # child brackets carry dco signs, exactly what bisection on dco needs
    crit = [list(t) for t in _isolate(dco)]
    terms, dterms = _bound_terms(coeffs), _bound_terms(dco)
    bound, bound_den = _root_bound(coeffs)
    s_left = _sign(coeffs, -bound, bound_den, terms)
    s_right = _sign(coeffs, bound, bound_den, terms)
    for _ in range(_REFINE_ROUNDS):
        sites = _critical_signs(coeffs, terms, crit)
        if sites is not None:
            found = _sign_changes(sites, bound, bound_den, s_left, s_right)
            if len(found) == m:
                return found
        for br in crit:
            if br[0] != br[1]:
                _bisect_once(dco, dterms, br)
    raise RealRootednessError(f"no certificate of {m} simple real roots")


def _critical_signs(coeffs, terms, crit):
    """(a, b, S, sign of p near the critical point), or None to refine more."""
    sites = []
    for a, b, den, _, _ in crit:
        if a == b:
            s = _sign(coeffs, a, den, terms)
            if s == 0:
                raise RealRootednessError("multiple root")
            sites.append((a, b, den, s))
            continue
        s_lo = _sign(coeffs, a, den, terms)
        s_hi = _sign(coeffs, b, den, terms)
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
            out.append((u1 * (den // d1), l2 * (den // d2), den, s1, s2))
    return out


def _refine(coeffs, terms, br: list) -> None:
    # bisect while hi - lo > max(1, |lo|, |hi|) / _WIDTH_SCALE, multiplied
    # through by S; an exact root (a == b) has width 0 and stops at once
    while (br[1] - br[0]) * _WIDTH_SCALE > max(br[2], abs(br[0]), abs(br[1])):
        _bisect_once(coeffs, terms, br)


@dataclass(frozen=True)
class RootCertificate:
    """Exact bracketing proof for the full real root list."""

    degree: int
    brackets: tuple[tuple[Fraction, Fraction], ...]

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
    terms = _bound_terms(coeffs)
    refined = []
    for br in map(list, _isolate(coeffs)):
        _refine(coeffs, terms, br)
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


@dataclass(frozen=True)
class BernoulliSplit:
    n: int
    d: int
    roots: tuple[float, ...]
    probabilities: tuple[float, ...]
    certificate: RootCertificate
    reconstruction_error: float


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


@dataclass(frozen=True)
class UMeanBounds:
    n: int
    d: int
    mean: Fraction
    upper: Fraction
    meets_upper: bool
    linear_slack: float  # mean minus (5 - sqrt 5)/10 * n


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


@dataclass(frozen=True)
class LowerTailCheck:
    n: int
    d: int
    r: Fraction
    mean: Fraction
    tail: Fraction
    bound: float
    holds: bool


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
