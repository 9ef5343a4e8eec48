"""Standard-normal reference and exact-CDF distances to it.

Distances standardize the discrete distribution by its exact mean and
standard deviation first.  The discrete CDF is exact (rational plateau
levels), the normal CDF comes from erfc and is good to well below 1e-12,
and the Wasserstein integral is evaluated piecewise in closed form, so the
reported distances carry no quadrature error worth mentioning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .distributions import DiscreteDist

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
    """(standardized point, F(x-), F(x)) triples with float levels.

    With N the total weight and s1 = sum v*w, the exact rationals x - mu =
    (v*N - s1)/N and F = acc/N are rounded by int / int, which is correctly
    rounded as float(Fraction) is, so no Fraction is needed per atom.
    """
    var = dist.variance()
    if var == 0:
        raise ValueError("distance to normal needs positive variance")
    sigma = math.sqrt(float(var))
    items = dist.items()
    total = dist.total
    s1 = sum(v * w for v, w in items)
    steps = []
    acc = 0
    for v, w in items:
        before = acc / total
        acc += w
        steps.append(((v * total - s1) / total / sigma, before, acc / total))
    return steps


def kolmogorov_to_normal(dist: DiscreteDist) -> float:
    """sup |F - Phi| of the standardized distribution.

    The supremum sits at a jump of F, approached from the left or attained
    on the right, so scanning support points covers it.
    """
    best = 0.0
    for t, before, after in _standardized_steps(dist):
        phi = normal_cdf(t)
        best = max(best, abs(before - phi), abs(after - phi))
    return best


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


def wasserstein_to_normal(dist: DiscreteDist) -> float:
    """Integral of |F - Phi| over the line, piecewise closed form.

    Between consecutive support points F is a constant c; the segment
    integral uses the antiderivative of Phi, split at the unique crossing
    Phi^{-1}(c) when the plateau cuts through the normal CDF.
    """
    steps = _standardized_steps(dist)
    t0 = steps[0][0]
    total = _cdf_integral(t0)  # F = 0 to the left of the first point
    for (t, _, level), (t_next, _, _) in zip(steps, steps[1:]):
        total += _segment(level, t, t_next)
    t_last = steps[-1][0]
    # F = 1 beyond the last point: integral of 1 - Phi
    total += normal_pdf(t_last) - t_last * (1.0 - normal_cdf(t_last))
    return total


def _segment(level: float, lo: float, hi: float) -> float:
    area = _cdf_integral(hi) - _cdf_integral(lo)  # integral of Phi on [lo, hi]
    if normal_cdf(hi) <= level:
        return level * (hi - lo) - area
    if normal_cdf(lo) >= level:
        return area - level * (hi - lo)
    t_star = _inverse_cdf(level, lo, hi)
    left = _cdf_integral(t_star) - _cdf_integral(lo)
    right = area - left
    return (level * (t_star - lo) - left) + (right - level * (hi - t_star))


@dataclass(frozen=True)
class NormalDistanceResult:
    family: str
    stat: str
    cap: int
    n: int
    d_k: float
    d_w: float

    @property
    def sqrtn_d_k(self) -> float:
        return math.sqrt(self.n) * self.d_k

    @property
    def sqrtn_d_w(self) -> float:
        return math.sqrt(self.n) * self.d_w


def rate_table(family: str, stat, cap: int, n_range: Iterable[int]) -> list[NormalDistanceResult]:
    """Per-n distances of the statistic to the normal, with sqrt(n) scalings."""
    from .exactdist import dist_statistic
    from .families import FamilySpec

    out = []
    for n in n_range:
        dist = dist_statistic(FamilySpec(family, n, cap), stat)
        out.append(
            NormalDistanceResult(
                family=family,
                stat=stat if isinstance(stat, str) else f"power:{stat[1]}",
                cap=cap,
                n=n,
                d_k=kolmogorov_to_normal(dist),
                d_w=wasserstein_to_normal(dist),
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
