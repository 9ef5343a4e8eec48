"""Numerical sanity checks behind the limit claims, at desk scale.

Everything here is exact until the final ratio: condition checks run over
rationals, tail probabilities are exact weight sums, and the only floats
are logs, square roots, and the reported quotients.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .distributions import DiscreteDist, central_moments_from_sums
from .exactdist import decode_lanes, dist_statistic, size_coefficients, size_components
from .families import FamilySpec, resolve_stat, stat_name


def _to_json(value):
    """JSON-ready data: a record's fields as a dict, Fractions as exact strings, tuples as lists."""
    if hasattr(value, "_fields"):
        return {name: _to_json(getattr(value, name)) for name in value._fields}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class ConditionReport(namedtuple("ConditionReport", (
        "n d pair_coupling arithmetic_exact zero_at_origin var_x inf_var_g sup_g_sq "
        "near_independence_ratio boundedness_ratio nondegeneracy_max"))):
    """Exact evaluation of the four sum-plus-pairs normality conditions.

    Ratios are None when the infimum variance vanishes; that happens at
    d = 2, where y^2 is an affine function of y on {1, 2} and some g_i can
    collapse.  The nondegeneracy ratio is exact so the boundary case
    (correlation exactly 1 at d = 2) is visible as Fraction(1).
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return _to_json(self)


def check_size_conditions(n: int, d: int) -> ConditionReport:
    if n < 3 or d < 2:
        raise ValueError("need n >= 3, d >= 2")
    q, bs, a = size_coefficients(n, d)
    var_x, parts = size_components(n, d)

    def g(b, y):
        return q * y * y + b * y

    # g_{i+1}(y) - g_i(y) = y for every y: exact second differences vanish
    arithmetic = all(bs[i + 1] - bs[i] == 1 for i in range(len(bs) - 1))
    zero_at_origin = all(g(b, 0) == 0 for b in bs)

    sup_gsq = max(g(b, y) ** 2 for b in bs for y in range(1, d + 1))
    inf_var = min(v for _, v, _ in parts)
    degenerate = inf_var == 0
    nondeg = None
    if not degenerate:
        nondeg = max(c * c / (var_x * v) for _, v, c in parts)
    return ConditionReport(
        n=n,
        d=d,
        pair_coupling=a,
        arithmetic_exact=arithmetic,
        zero_at_origin=zero_at_origin,
        var_x=var_x,
        inf_var_g=inf_var,
        sup_g_sq=sup_gsq,
        near_independence_ratio=None
        if degenerate
        else float(Fraction(a * a * n * n * d**4) / inf_var),
        boundedness_ratio=None if degenerate else float(sup_gsq / inf_var),
        nondegeneracy_max=nondeg,
    )


# c_witness is None when the exact tail is zero
TailEntry = namedtuple("TailEntry", "multiple r tail tail_float c_witness")


class TailReport(namedtuple("TailReport", "family stat n cap scale mean variance entries")):
    """Sub-Gaussian tail audit: P(|X - mu| >= r) vs 2 exp(-C r^2 / scale).

    witnessed_c is the largest constant C for which the bound holds at
    every grid radius, computed from exact tails; larger is stronger.
    """

    __slots__ = ()

    @property
    def witnessed_c(self) -> float | None:
        vals = [e.c_witness for e in self.entries if e.c_witness is not None]
        return min(vals) if vals else None

    def to_json(self) -> dict:
        return {**_to_json(self), "witnessed_c": self.witnessed_c}


def _tail_scale(family: str, stat, n: int, cap: int) -> int:
    form = resolve_stat(family, stat)
    if form in (("length", None), ("power", 0)):
        return n * cap * cap
    if form in (("size", None), ("power", 1)):
        return n**3 * cap**4
    raise ValueError(f"no tail scale for stat {stat!r}")


def concentration_check(family: str, stat, n: int, cap: int, multiples: Sequence) -> TailReport:
    """Exact two-sided tails at radii given as multiples of sigma."""
    spec = FamilySpec(family, n, cap)
    dist = dist_statistic(spec, stat)
    total, s1, s2 = dist.power_sums(2)
    var = central_moments_from_sums([total, s1, s2])[2]
    if var == 0:
        raise ValueError("degenerate distribution has no tail scale")
    mu = Fraction(s1, total)
    scale = _tail_scale(family, stat, n, cap)
    sigma = math.sqrt(float(var))
    entries = []
    for mult in multiples:
        mult = Fraction(mult)
        if mult <= 0:
            raise ValueError("need positive sigma multiples")
        # (v - mu)^2 >= thr = num/den, times N^2 den: an exact integer comparison per atom
        thr = mult * mult * var
        num, den = thr.numerator, thr.denominator
        bound = num * total * total
        weight = sum(w for v, w in dist.items() if (v * total - s1) ** 2 * den >= bound)
        tail = Fraction(weight, total)
        r = float(mult) * sigma
        if tail == 0:
            c = None
        else:
            c = scale / float(thr) * math.log(2.0 / float(tail))
        entries.append(
            TailEntry(multiple=mult, r=r, tail=tail, tail_float=float(tail), c_witness=c)
        )
    return TailReport(
        family=family,
        stat=stat_name(stat),
        n=n,
        cap=cap,
        scale=scale,
        mean=mu,
        variance=var,
        entries=tuple(entries),
    )


def subset_sum_distribution(m: int, k: int) -> DiscreteDist:
    """Sum of a uniformly random k-subset of {1..m}, exact counts.

    The exact variance identity k(m-k)(m+1)/12 is asserted on the way out;
    it doubles as a self-check of the table.
    """
    if not 0 < k <= m:
        raise ValueError("need 0 < k <= m")
    dist = DiscreteDist.from_lanes(_subset_sum_counts(m, k))
    assert dist.variance() == Fraction(k * (m - k) * (m + 1), 12)
    return dist


def _subset_sum_counts(m: int, k: int) -> list[int]:
    """Number of k-subsets of {1..m} with sum s, for s = 0 .. the largest sum.

    dp[j] packs the counts of the j-subsets into lanes of one integer, lane
    s for sum s, so adding the value v is dp[j] += dp[j-1] << v lanes.  The
    packing is linear: a lane may overflow along the way and the integer is
    still exact, so only the final counts, each <= C(m, k), must fit a lane.
    """
    width = -(-comb(m, k).bit_length() // 8)
    dp = [1] + [0] * k
    for v in range(1, m + 1):
        for j in range(min(k, v), 0, -1):
            dp[j] += dp[j - 1] << (8 * width * v)
    return decode_lanes(dp[k], width)


def subset_sum_rates(ms: Iterable[int]) -> list[dict]:
    """Distance-to-normal sweep for the k = m//2 subset sums.

    The scaled columns multiply by sqrt(k(m-k)/m), the rate the sampling
    CLT predicts, so bounded values mean the predicted rate is visible.
    """
    from .gaussref import normal_distances

    rows = []
    for m in ms:
        k = m // 2
        dist = subset_sum_distribution(m, k)
        d_k, d_w = normal_distances(dist)
        factor = math.sqrt(k * (m - k) / m)
        rows.append(
            {
                "m": m,
                "k": k,
                "dK": d_k,
                "dW": d_w,
                "scaled_dK": factor * d_k,
                "scaled_dW": factor * d_w,
            }
        )
    return rows
