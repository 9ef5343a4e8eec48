"""Standard-normal reference and exact-CDF distances to it.

Distances standardize the discrete distribution by its exact mean and
standard deviation first.  The discrete CDF is exact (rational plateau
levels), the normal CDF comes from erfc and is good to well below 1e-12,
and the Wasserstein integral is evaluated piecewise in closed form, so the
reported distances carry no quadrature error worth mentioning.

`normal_distances` gives dK and dW together from one walk over the
standardized steps, with Phi, phi and the Phi-integral evaluated once per
support point; `kolmogorov_to_normal` and `wasserstein_to_normal` are its
two halves.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .distributions import DiscreteDist, central_moments_from_sums

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Phi(x) with absolute error well under 1e-12 on |x| <= 8."""
    v = 0.5 * math.erfc(-x / _SQRT2)
    return min(1.0, max(0.0, v))


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _cdf_integral(t: float) -> float:
    # integral of Phi over (-inf, t]; d/dt (t*Phi(t) + phi(t)) = Phi(t)
    return t * normal_cdf(t) + normal_pdf(t)


def _standardized_steps(dist: DiscreteDist):
    """Yield (standardized point, F(x-), F(x)) with float levels, atom by atom.

    N, s1 = sum v*w and s2 = sum v^2*w are the power sums of the pmf, and
    the variance (N*s2 - s1^2)/N^2 is the exact rational of
    `central_moments_from_sums`.  The exact rationals x - mu = (v*N - s1)/N
    and F = acc/N are rounded by int / int, which is correctly rounded as
    float(Fraction) is, so no Fraction is needed per atom, and the steps are
    read off the pmf's own view, never held as a list.  A variance or a
    centred point past the float range is refused with ValueError.
    """
    raw = dist.power_sums(2)
    total, s1 = raw[0], raw[1]
    var = central_moments_from_sums(raw)[2]
    if var == 0:
        raise ValueError("distance to normal needs positive variance")
    try:
        sigma = math.sqrt(float(var))
        if sigma == 0.0:
            raise ValueError("distance to normal needs a variance above the float underflow")
        acc = 0
        for v, w in dist.items():
            before = acc / total
            acc += w
            yield (v * total - s1) / total / sigma, before, acc / total
    except OverflowError:
        # the variance, or a point's distance from the mean, is past the float range
        raise ValueError("distance to normal needs a law within the float range") from None


def normal_distances(dist: DiscreteDist) -> tuple[float, float]:
    """(dK, dW) of the standardized distribution, in one walk over its steps.

    dK = sup |F - Phi| sits at a jump of F, approached from the left or
    attained on the right, so scanning support points covers it.

    dW = integral of |F - Phi| over the line, piecewise in closed form
    with I(t) = t*Phi(t) + phi(t), the antiderivative of Phi.  Between
    consecutive points t0 < t1 F is a constant c; the segment is
    c*(t1 - t0) - (I(t1) - I(t0)) when Phi(t1) <= c, its negative when
    Phi(t0) >= c, and otherwise it is split at the unique crossing
    Phi^{-1}(c), found by bisection.  F = 0 left of the first point and 1
    right of the last add I(t_first) and phi(t_last) - t_last*(1 - Phi(t_last)).

    Phi, phi and I are evaluated once per point and carried into the next
    segment; the sum runs left to right.
    """
    best = 0.0
    total = None
    for t, before, after in _standardized_steps(dist):
        cdf = normal_cdf(t)
        pdf = normal_pdf(t)
        area_to = t * cdf + pdf  # I(t)
        best = max(best, abs(before - cdf), abs(after - cdf))
        if total is None:
            total = area_to  # F = 0 to the left of the first point
        else:
            area = area_to - area_lo  # integral of Phi on [lo, t]
            if cdf <= level:
                total += level * (t - lo) - area
            elif cdf_lo >= level:
                total += area - level * (t - lo)
            else:
                t_star = _inverse_cdf(level, lo, t)
                left = _cdf_integral(t_star) - area_lo
                right = area - left
                total += (level * (t_star - lo) - left) + (right - level * (t - t_star))
        lo, cdf_lo, area_lo, level = t, cdf, area_to, after
    # F = 1 beyond the last point: integral of 1 - Phi
    total += pdf - lo * (1.0 - cdf)
    return best, total


def kolmogorov_to_normal(dist: DiscreteDist) -> float:
    """sup |F - Phi| of the standardized distribution (see `normal_distances`)."""
    return normal_distances(dist)[0]


def wasserstein_to_normal(dist: DiscreteDist) -> float:
    """Integral of |F - Phi| over the line (see `normal_distances`)."""
    return normal_distances(dist)[1]


def _inverse_cdf(level: float, lo: float, hi: float) -> float:
    # bisection on a bracket known to contain the crossing
    for _ in range(200):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class NormalDistanceResult(namedtuple("NormalDistanceResult", "family stat cap n d_k d_w")):
    __slots__ = ()

    @property
    def sqrtn_d_k(self) -> float:
        return math.sqrt(self.n) * self.d_k

    @property
    def sqrtn_d_w(self) -> float:
        return math.sqrt(self.n) * self.d_w


def rate_table(family: str, stat, cap: int, n_range: Iterable[int]) -> list[NormalDistanceResult]:
    """Per-n distances of the statistic to the normal, with sqrt(n) scalings."""
    from .exactdist import dist_statistic
    from .families import FamilySpec, stat_name

    out = []
    for n in n_range:
        d_k, d_w = normal_distances(dist_statistic(FamilySpec(family, n, cap), stat))
        out.append(
            NormalDistanceResult(
                family=family,
                stat=stat_name(stat),
                cap=cap,
                n=n,
                d_k=d_k,
                d_w=d_w,
            )
        )
    return out


RATE_CSV_HEADER = "family,stat,cap,n,dK,dW,sqrtn_dK,sqrtn_dW"


def rate_table_csv(rows: list[NormalDistanceResult]) -> str:
    lines = [RATE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.family},{r.stat},{r.cap},{r.n},"
            f"{r.d_k:.12g},{r.d_w:.12g},{r.sqrtn_d_k:.12g},{r.sqrtn_d_w:.12g}"
        )
    return "\n".join(lines) + "\n"
