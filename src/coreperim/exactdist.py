"""Exact distributions of the family statistics via big-integer DP.

Engines:
  * length over the core family: fold of independent uniform{0..d} coords.
  * length/size over the strict family: DP over positions whose state is
    (was previous entry nonzero, running sums); the size statistic is
    reconstructed at the end as S = (V - A^2)/2 from A = sum(x_i) and
    V = sum(n*x_i^2 + (2i-n+1)*x_i), both tracked exactly.
  * power sums over the self-conjugate family: the antipodal coordinate
    pairs are independent, so the distribution is a product of per-pair
    convolutions (the middle coordinate of odd n is pinned to zero).

The moment engine (`power_sums`, `moment_report`) never builds a pmf: it
folds the same family automata over exact power sums of the statistic.

All weights stay arbitrary-precision integers; floats appear only when a
standardized moment is finally printed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, prod
from typing import Iterator

from .distributions import (
    DiscreteDist,
    central_moments_from_sums,
    convolve,
    point_mass,
    round_half_away,
    uniform_range,
)
from .families import FamilySpec, normalize_stat

__all__ = [
    "DiscreteDist",
    "MomentReport",
    "convolve",
    "dist_length",
    "dist_size",
    "dist_power_sum_selfconj",
    "dist_statistic",
    "moments",
    "moment_report",
    "power_sums",
    "conditional_stat",
    "ConditionalStat",
    "legal_supports",
]


def dist_length(spec: FamilySpec) -> DiscreteDist:
    """Exact pmf of sum(x_i) over the uniform family."""
    n, cap = spec.n, spec.cap
    if spec.family == "core":
        acc = point_mass(0)
        step = uniform_range(0, cap)
        for _ in range(n - 1):
            acc = convolve(acc, step)
        return acc
    if spec.family == "strict":
        return _strict_fold(n, cap, lambda i, x: x)
    return dist_power_sum_selfconj(n, cap, 0)


def dist_size(spec: FamilySpec) -> DiscreteDist:
    """Exact pmf of the size statistic over the uniform family."""
    n, cap = spec.n, spec.cap
    if spec.family == "selfconj":
        return dist_power_sum_selfconj(n, cap, 1)
    if spec.family == "core":
        return _size_from_av(_core_av_layers(n, cap))
    return _size_from_av(_strict_av_layers(n, cap))


def dist_power_sum_selfconj(n: int, e: int, k: int) -> DiscreteDist:
    """Exact pmf of the sum of k-th powers of the diagonal hooks.

    k=0 is the Durfee length (and the length statistic of the family),
    k=1 the size.  Pair i < n+1-i carries residues 2i-1 and 2n+1-2i; a run
    of length a in class r contributes r^k + (r+2n)^k + ... + (r+2(a-1)n)^k.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    acc = point_mass(0)
    for i in range(1, n // 2 + 1):
        pair: dict[int, int] = {}
        for value in _pair_values(n, e, k, i):
            pair[value] = pair.get(value, 0) + 1
        acc = convolve(acc, DiscreteDist(pair))
    return acc


def _pair_values(n: int, e: int, k: int, i: int) -> list[int]:
    """Power-sum contribution of antipodal pair i, one entry per assignment."""
    values = [0]
    for r in (2 * i - 1, 2 * n + 1 - 2 * i):
        run = 0
        for a in range(1, e + 1):
            run += (r + 2 * n * (a - 1)) ** k
            values.append(run)
    return values


def dist_statistic(spec: FamilySpec, stat) -> DiscreteDist:
    """Dispatch a statistic id to its DP engine."""
    kind, k = normalize_stat(stat)
    if kind == "length":
        return dist_length(spec)
    if kind == "size":
        return dist_size(spec)
    if spec.family != "selfconj":
        raise ValueError(f"statistic {stat!r} has no engine for family {spec.family!r}")
    if kind == "durfee":
        return dist_power_sum_selfconj(spec.n, spec.cap, 0)
    return dist_power_sum_selfconj(spec.n, spec.cap, k)


def _strict_fold(n: int, d: int, contribution) -> DiscreteDist:
    """DP over positions for strict vectors, summing contribution(i, x_i)."""
    free     = {0: 1}  # previous entry was zero (or at the start)
    blocked: dict[int, int] = {}  # previous entry was nonzero
    for i in range(1, n):
        new_free: dict[int, int] = {}
        new_blocked: dict[int, int] = {}
        zero_c = contribution(i, 0)
        for layer in (free, blocked):
            for s, w in layer.items():
                key = s + zero_c
                new_free[key] = new_free.get(key, 0) + w
        for x in range(1, d + 1):
            c = contribution(i, x)
            for s, w in free.items():
                key = s + c
                new_blocked[key] = new_blocked.get(key, 0) + w
        free, blocked = new_free, new_blocked
    out = dict(free)
    for s, w in blocked.items():
        out[s] = out.get(s, 0) + w
    return DiscreteDist(out)


def _core_av_layers(n: int, d: int) -> dict[tuple[int, int], int]:
    """Joint weights of (A, V) over the core family."""
    layer = {(0, 0): 1}
    for i in range(1, n):
        nxt: dict[tuple[int, int], int] = {}
        for (a, v), w in layer.items():
            for x in range(d + 1):
                key = (a + x, v + n * x * x + (2 * i - n + 1) * x)
                nxt[key] = nxt.get(key, 0) + w
        layer = nxt
    return layer


def _strict_av_layers(n: int, d: int) -> dict[tuple[int, int], int]:
    """Joint weights of (A, V) over the strict family."""
    free = {(0, 0): 1}
    blocked: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        new_free: dict[tuple[int, int], int] = {}
        new_blocked: dict[tuple[int, int], int] = {}
        for layer in (free, blocked):
            for key, w in layer.items():
                new_free[key] = new_free.get(key, 0) + w
        for (a, v), w in free.items():
            for x in range(1, d + 1):
                key = (a + x, v + n * x * x + (2 * i - n + 1) * x)
                new_blocked[key] = new_blocked.get(key, 0) + w
        free, blocked = new_free, new_blocked
    for key, w in blocked.items():
        free[key] = free.get(key, 0) + w
    return free


def _size_from_av(layer: dict[tuple[int, int], int]) -> DiscreteDist:
    out: dict[int, int] = {}
    for (a, v), w in layer.items():
        num = v - a * a
        assert num % 2 == 0
        out[num // 2] = out.get(num // 2, 0) + w
    return DiscreteDist(out)


@dataclass(frozen=True)
class MomentReport:
    """Exact central moments plus print-ready standardized moments."""

    mean: Fraction
    variance: Fraction
    central: tuple[Fraction, ...]  # mu_0 .. mu_kmax
    standardized: dict[int, str]  # k -> 3-decimal string; empty if variance is 0
    family: str | None = None
    stat: str | None = None
    n: int | None = None
    cap: int | None = None

    @property
    def degenerate(self) -> bool:
        return self.variance == 0


def moments(dist: DiscreteDist, k_max: int, digits: int = 3, **meta) -> MomentReport:
    """Central moments in exact rationals; m_k rounded half-away-from-zero.

    The rounding is exact as well: m_k^2 is rational, so the 3-decimal
    string is decided by integer square-root comparisons, never by a float.
    """
    return _report(dist.power_sums(max(k_max, 2)), k_max, digits, meta)


def moment_report(spec: FamilySpec, stat, k_max: int, digits: int = 3) -> MomentReport:
    """`moments(dist_statistic(spec, stat), k_max)` without building the pmf."""
    raw = power_sums(spec, stat, max(k_max, 2))
    meta = {"family": spec.family, "stat": str(stat), "n": spec.n, "cap": spec.cap}
    return _report(raw, k_max, digits, meta)


def _report(raw: list[int], k_max: int, digits: int, meta: dict) -> MomentReport:
    central = central_moments_from_sums(raw)
    variance = central[2]
    standardized: dict[int, str] = {}
    if variance != 0:
        for k in range(1, k_max + 1):
            sign, square = _std_sq(central, k)
            standardized[k] = round_half_away(sign, square, digits)
    return MomentReport(
        mean=Fraction(raw[1], raw[0]),
        variance=variance,
        central=tuple(central[: k_max + 1]),
        standardized=standardized,
        **meta,
    )


def _std_sq(central: tuple[Fraction, ...], k: int) -> tuple[int, Fraction]:
    mk, var = central[k], central[2]
    sign = (mk > 0) - (mk < 0)
    return sign, mk * mk / var**k


# ---------------------------------------------------------- moment engine
#
# Each family is a small automaton over its coordinates: one state with iid
# values (core), a free/blocked chain where a nonzero entry blocks the next
# (strict), or one state with iid antipodal pairs (selfconj).  A coordinate
# adds a contribution vector c to a running vector C, so the fold carries,
# per state, the mixed power sums M[e] = sum over paths of prod_t C_t^e_t for
# e in a downward-closed index set.  Appending values with power sums
# U[g] = sum_c prod_t c_t^g_t updates them by the binomial rule
#     M'[e] = sum_{f <= e} prod_t C(e_t, f_t) * M[f] * U[e - f].

# The fold's plan holds sum over the index of prod_t (e_t + 1) terms, and
# each coordinate costs that many products: k_max^4 / 6 for size, k_max^2 / 2
# otherwise.  Past this limit (size k_max > 16, other statistics k_max > 198)
# the power sums are read off the pmf, so no order allocates a huge plan.
FOLD_PLAN_LIMIT = 20_000


def power_sums(spec: FamilySpec, stat, k_max: int) -> list[int]:
    """[sum of s^j over the family, j = 0..k_max] for the statistic s; no pmf.

    Length and the selfconj power sums carry one contribution.  Size over
    core/strict carries (A, V) with A = sum(x_i), V = sum(n*x_i^2 +
    (2i-n+1)*x_i), and sums A^p V^q for p + 2q <= 2*k_max; then
    S = (V - A^2)/2 gives sum S^j = 2^-j sum_m C(j,m) (-1)^m sum A^2m V^(j-m).
    Orders whose fold plan exceeds FOLD_PLAN_LIMIT are read off the pmf.
    """
    kind, k = normalize_stat(stat)
    n, cap = spec.n, spec.cap
    index = [(j,) for j in range(k_max + 1)]
    if spec.family == "selfconj":
        k = {"length": 0, "durfee": 0, "size": 1}.get(kind, k)
        states, steps = 1, (
            [(0, 0, [(v,) for v in _pair_values(n, cap, k, i)])] for i in range(1, n // 2 + 1)
        )
    elif kind == "length":
        states, steps = _coordinate_steps(spec, lambda i, x: (x,))
    elif kind == "size":
        index = [(p, q) for q in range(k_max + 1) for p in range(2 * (k_max - q) + 1)]
        states, steps = _coordinate_steps(spec, lambda i, x: (x, n * x * x + (2 * i - n + 1) * x))
    else:
        raise ValueError(f"statistic {stat!r} has no engine for family {spec.family!r}")
    if sum(prod(a + 1 for a in e) for e in index) > FOLD_PLAN_LIMIT:
        return dist_statistic(spec, stat).power_sums(k_max)
    sums = _fold_power_sums(states, steps, index)
    if len(index[0]) == 1:
        return sums
    mixed = dict(zip(index, sums))
    out = []
    for j in range(k_max + 1):
        scaled = sum((-1) ** m * comb(j, m) * mixed[(2 * m, j - m)] for m in range(j + 1))
        assert scaled % 2**j == 0
        out.append(scaled // 2**j)
    return out


def _coordinate_steps(spec: FamilySpec, contribution):
    """(states, steps) of the core or strict automaton; state 1 is 'blocked'."""
    n, d = spec.n, spec.cap
    if spec.family == "core":
        return 1, ([(0, 0, [contribution(i, x) for x in range(d + 1)])] for i in range(1, n))
    return 2, (
        [
            (0, 0, [contribution(i, 0)]),
            (1, 0, [contribution(i, 0)]),
            (0, 1, [contribution(i, x) for x in range(1, d + 1)]),
        ]
        for i in range(1, n)
    )


def _fold_power_sums(states: int, steps, index: list[tuple[int, ...]]) -> list[int]:
    """Mixed power sums, in `index` order, over every path (all states accept).

    `steps` yields, per coordinate, transitions (src, dst, contributions).
    """
    where = {e: t for t, e in enumerate(index)}
    plan = [
        [
            (
                prod(comb(a, b) for a, b in zip(e, f)),
                where[f],
                where[tuple(a - b for a, b in zip(e, f))],
            )
            for f in product(*(range(a + 1) for a in e))
        ]
        for e in index
    ]
    unit = [int(not any(e)) for e in index]
    zero = [0] * len(index)
    layer = [unit] + [zero] * (states - 1)
    for transitions in steps:
        nxt = [zero] * states
        for src, dst, values in transitions:
            sums = layer[src]
            factor = [sum(prod(c**g for c, g in zip(v, e)) for v in values) for e in index]
            if factor != unit:
                sums = [sum(c * sums[f] * factor[g] for c, f, g in terms) for terms in plan]
            nxt[dst] = [a + b for a, b in zip(nxt[dst], sums)]
        layer = nxt
    return [sum(col) for col in zip(*layer)]


def legal_supports(n: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {1..n-1} with no two adjacent elements, the strict support patterns."""

    def rec(start: int, acc: list[int]):
        yield tuple(acc)
        for i in range(start, n):
            acc.append(i)
            yield from rec(i + 2, acc)
            acc.pop()

    yield from rec(1, [])


@dataclass(frozen=True)
class ConditionalStat:
    dist: DiscreteDist
    mean: Fraction
    variance: Fraction
    closed_mean: Fraction
    closed_variance: Fraction


def conditional_stat(spec: FamilySpec, stat, support) -> ConditionalStat:
    """Statistic of a strict vector conditioned on its nonzero set being `support`.

    The conditional law puts the coordinates in `support` independent and
    uniform on {1..d}.  Mean and variance are computed twice, from the
    distribution and from the closed forms of the mixture decomposition
    (evaluated in centered coordinates); they must agree exactly.
    """
    if spec.family != "strict":
        raise ValueError("conditional statistics are defined for the strict family")
    kind, _ = normalize_stat(stat)
    if kind not in ("length", "size"):
        raise ValueError(f"unsupported conditional statistic {stat!r}")
    t = tuple(sorted(support))
    if any(b - a == 1 for a, b in zip(t, t[1:])):
        raise ValueError(f"support {t} has adjacent indices")
    if t and not (1 <= t[0] and t[-1] <= spec.n - 1):
        raise ValueError(f"support {t} not inside [1, {spec.n - 1}]")

    n, d = spec.n, spec.cap
    if kind == "length":
        dist = _conditional_length(d, t)
        closed_mean, closed_var = _closed_forms_length(d, t)
    else:
        dist = _conditional_size(n, d, t)
        closed_mean, closed_var = _closed_forms_size(n, d, t)
    mean, var = dist.mean(), dist.variance()
    if (mean, var) != (closed_mean, closed_var):
        raise AssertionError(
            f"conditional closed forms disagree with the distribution: "
            f"({mean}, {var}) vs ({closed_mean}, {closed_var})"
        )
    return ConditionalStat(dist, mean, var, closed_mean, closed_var)


def _conditional_length(d: int, t: tuple[int, ...]) -> DiscreteDist:
    acc = point_mass(0)
    for _ in t:
        acc = convolve(acc, uniform_range(1, d))
    return acc


def _conditional_size(n: int, d: int, t: tuple[int, ...]) -> DiscreteDist:
    layer = {(0, 0): 1}
    for i in t:
        nxt: dict[tuple[int, int], int] = {}
        for (a, v), w in layer.items():
            for x in range(1, d + 1):
                key = (a + x, v + n * x * x + (2 * i - n + 1) * x)
                nxt[key] = nxt.get(key, 0) + w
        layer = nxt
    return _size_from_av(layer)


def _closed_forms_length(d: int, t: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    c = Fraction(d + 1, 2)
    var_x = Fraction(d * d - 1, 12)
    return len(t) * c, len(t) * var_x


def _closed_forms_size(n: int, d: int, t: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Mixture-component mean and variance of the size statistic.

    Centered coordinates: X uniform on {-(d-1)/2, ..., (d-1)/2}, a = -1,
    g_i(x) = (n-1)/2 * y^2 + (i - (n-1)/2 - (n-2)(d+1)/2) * y at y = x + (d+1)/2.
    """
    a = -1
    c = Fraction(d + 1, 2)
    size = len(t)
    ys = [Fraction(y) for y in range(1, d + 1)]
    e_y = sum(ys) / d
    e_y2 = sum(y * y for y in ys) / d
    var_x = e_y2 - e_y * e_y  # centering does not change the variance

    mean = Fraction(0)
    sum_var_g = Fraction(0)
    sum_cov = Fraction(0)
    half = Fraction(n - 1, 2)
    for i in t:
        b_i = i - half - (n - 2) * c
        e_g = half * e_y2 + b_i * e_y
        e_g2 = sum((half * y * y + b_i * y) ** 2 for y in ys) / d
        cov = sum((half * y * y + b_i * y) * (y - e_y) for y in ys) / d
        mean += e_g
        sum_var_g += e_g2 - e_g * e_g
        sum_cov += cov

    mean += a * comb(n - 1 - size, 2) * c * c - a * comb(n - 1, 2) * c * c
    var = (
        sum_var_g
        - a * (n - 1 - size) * (d + 1) * sum_cov
        + a * a * size * (n - 1 - size) ** 2 * c * c * var_x
        + a * a * comb(size, 2) * var_x**2
    )
    return mean, var


def mixture_identity_check(spec: FamilySpec, stat) -> bool:
    """Exact check that conditioning on the support tiles the full law.

    Component weights are implicit: each conditional distribution carries
    total weight d^[support size], and summing raw weights over every legal
    support must rebuild the unconditional distribution atom for atom.
    """
    acc: dict[int, int] = {}
    for t in legal_supports(spec.n):
        for v, w in conditional_stat(spec, stat, t).dist.items():
            acc[v] = acc.get(v, 0) + w
    return DiscreteDist(acc) == dist_statistic(spec, stat)
