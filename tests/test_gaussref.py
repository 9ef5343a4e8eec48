import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from coreperim.distributions import DiscreteDist
from coreperim.exactdist import dist_statistic
from coreperim.families import FamilySpec
from coreperim.gaussref import (
    _inverse_cdf,
    _standardized_steps,
    RATE_CSV_HEADER,
    kolmogorov_to_normal,
    normal_cdf,
    normal_distances,
    normal_pdf,
    rate_table,
    rate_table_csv,
    wasserstein_to_normal,
)
from coreperim.rng import SplitMix64


def quad_wasserstein(dist):
    """Adaptive-quadrature reference for the L1 distance to the fitted normal."""
    mu = float(dist.mean())
    sd = math.sqrt(float(dist.variance()))
    pts = []
    levels = []
    for v, _, hi in dist.cdf_steps():
        pts.append((v - mu) / sd)
        levels.append(float(hi))

    def f(t):
        lvl = 0.0
        for p, l in zip(pts, levels):
            if t >= p:
                lvl = l
            else:
                break
        return abs(lvl - normal_cdf(t))

    lo, hi = pts[0] - 12.0, pts[-1] + 12.0
    total = 0.0
    knots = [lo] + pts + [hi]
    for a, b in zip(knots, knots[1:]):
        if b > a:
            val, _ = quad(f, a, b, limit=200)
            total += val
    return total


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == 0.5
    assert abs(normal_cdf(1.0) - 0.8413447460685429) < 1e-15
    assert abs(normal_cdf(-1.0) - 0.15865525393145707) < 1e-15
    assert abs(normal_cdf(2.0) - 0.9772498680518208) < 1e-15
    assert normal_cdf(-40.0) == 0.0
    assert normal_cdf(40.0) == 1.0


def test_normal_cdf_symmetry_and_monotonicity():
    xs = [i / 64 for i in range(-512, 513)]
    for x in xs:
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-15
    vals = [normal_cdf(x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # strictly increasing wherever doubles can still resolve the tail
    mid = [normal_cdf(i / 64) for i in range(-384, 385)]
    assert all(a < b for a, b in zip(mid, mid[1:]))


def test_normal_pdf_reference_points():
    assert abs(normal_pdf(0.0) - 1 / math.sqrt(2 * math.pi)) < 1e-16
    assert abs(normal_pdf(1.0) - 0.24197072451914337) < 1e-16
    assert normal_pdf(1.5) == normal_pdf(-1.5)


def test_distances_reject_zero_variance():
    with pytest.raises(ValueError):
        kolmogorov_to_normal(DiscreteDist({3: 1}))
    with pytest.raises(ValueError):
        wasserstein_to_normal(DiscreteDist({3: 1}))


@pytest.mark.parametrize(
    "distance", [normal_distances, kolmogorov_to_normal, wasserstein_to_normal]
)
def test_distances_reject_variance_below_float_range(distance):
    # the exact variance is about 2^-1100: positive, but float() rounds it to 0
    tiny = DiscreteDist({0: 1, 1: 2**1100})
    with pytest.raises(ValueError, match="float underflow"):
        distance(tiny)


@pytest.mark.parametrize(
    "distance", [normal_distances, kolmogorov_to_normal, wasserstein_to_normal]
)
@pytest.mark.parametrize(
    "atoms",
    [
        {0: 1, 2**1100: 1},  # the variance, about 2^2198, is past the float range
        {0: 2**1100, 2**1030: 1},  # the variance fits, the centred 2^1030 does not
    ],
    ids=["variance", "centred-point"],
)
def test_distances_reject_laws_past_the_float_range(distance, atoms):
    with pytest.raises(ValueError, match="float range"):
        distance(DiscreteDist(atoms))


def test_two_point_distances_by_hand():
    d = DiscreteDist({-1: 1, 1: 1})
    # standardized support is already {-1, +1}
    assert abs(kolmogorov_to_normal(d) - (0.5 - normal_cdf(-1.0))) < 1e-15
    # left tail + middle + right tail of |F - Phi|
    phi1, cap1 = normal_pdf(1.0), normal_cdf(1.0)
    expect = 2 * (phi1 - (1 - cap1)) + 2 * (cap1 + phi1 - normal_pdf(0.0)) - 1
    assert abs(wasserstein_to_normal(d) - expect) < 1e-14
    assert abs(expect - 0.5353773215478798) < 1e-14


def test_distances_are_affine_invariant():
    d = DiscreteDist({0: 3, 1: 1, 5: 2})
    for a, b in ((2, 7), (5, -3), (-1, 0), (-4, 11)):
        t = DiscreteDist({a * v + b: w for v, w in d.items()})  # a != 0: one atom each
        assert abs(kolmogorov_to_normal(t) - kolmogorov_to_normal(d)) < 1e-12
        assert abs(wasserstein_to_normal(t) - wasserstein_to_normal(d)) < 1e-12


def test_wasserstein_against_quadrature():
    rng = SplitMix64(99)
    dists = [
        DiscreteDist({-1: 1, 1: 1}),
        DiscreteDist({0: 3, 1: 1, 5: 2}),
        DiscreteDist({0: 1, 1: 1, 2: 1, 3: 1}),
    ]
    while len(dists) < 8:
        atoms = {rng.below(20): 1 + rng.below(9) for _ in range(2 + rng.below(5))}
        if len(atoms) >= 2:
            dists.append(DiscreteDist(atoms))
    for d in dists:
        exact = wasserstein_to_normal(d)
        ref = quad_wasserstein(d)
        assert abs(exact - ref) < 1e-6, d


def test_kolmogorov_against_dense_grid():
    d = DiscreteDist({0: 3, 1: 1, 5: 2})
    mu = float(d.mean())
    sd = math.sqrt(float(d.variance()))
    best = 0.0
    for v, lo, hi in d.cdf_steps():
        z = (v - mu) / sd
        best = max(best, abs(normal_cdf(z) - float(lo)), abs(normal_cdf(z) - float(hi)))
    assert abs(kolmogorov_to_normal(d) - best) < 1e-15


def test_symmetric_distribution_gap_symmetry():
    # for a symmetric statistic the KS gap is attained at a +- pair
    d = DiscreteDist({-2: 1, -1: 3, 1: 3, 2: 1})
    mu = float(d.mean())
    assert mu == 0.0
    sd = math.sqrt(float(d.variance()))
    gaps = {}
    for v, lo, hi in d.cdf_steps():
        z = (v - mu) / sd
        gaps[v] = max(abs(normal_cdf(z) - float(lo)), abs(normal_cdf(z) - float(hi)))
    assert abs(gaps[-2] - gaps[2]) < 1e-15
    assert abs(gaps[-1] - gaps[1]) < 1e-15
    assert abs(kolmogorov_to_normal(d) - max(gaps.values())) < 1e-15


def test_rate_table_shapes_and_csv():
    rows = rate_table("strict", "length", 2, range(10, 15))
    assert [r.n for r in rows] == list(range(10, 15))
    for r in rows:
        assert r.family == "strict" and r.stat == "length" and r.cap == 2
        assert 0 < r.d_k < 1 and r.d_w > 0
        assert abs(r.sqrtn_d_k - math.sqrt(r.n) * r.d_k) < 1e-15
        assert abs(r.sqrtn_d_w - math.sqrt(r.n) * r.d_w) < 1e-15
    text = rate_table_csv(rows)
    lines = text.splitlines()
    assert lines[0] == RATE_CSV_HEADER == "family,stat,cap,n,dK,dW,sqrtn_dK,sqrtn_dW"
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert cells[:4] == ["strict", "length", "2", "10"]
    assert abs(float(cells[4]) - rows[0].d_k) < 1e-12


def test_rate_table_tuple_stat_spelling():
    rows = rate_table("selfconj", ("power", 2), 1, range(8, 10))
    assert all(r.stat == "power:2" for r in rows)


def test_wasserstein_handles_plateau_crossings():
    # heavily skewed mass forces F to cross Phi inside a plateau
    d = DiscreteDist({0: 99, 10: 1})
    exact = wasserstein_to_normal(d)
    assert abs(exact - quad_wasserstein(d)) < 1e-6


def fraction_steps(dist):
    """The CDF steps through Fraction: float(x - mu) / sigma, float(F(x-)), float(F(x))."""
    mu = dist.mean()
    sigma = math.sqrt(float(dist.variance()))
    return [(float(v - mu) / sigma, float(lo), float(hi)) for v, lo, hi in dist.cdf_steps()]


def test_standardized_steps_match_fractions_bit_for_bit():
    plans = {
        "core": ["length", "size"],
        "strict": ["length", "size"],
        "selfconj": ["durfee", "size", "power:2", "power:3"],
    }
    checked = 0
    for family, stats in plans.items():
        for n, cap in product(range(2, 9), range(1, 4)):  # the C05 grid, cap 0 has no variance
            for stat in stats:
                dist = dist_statistic(FamilySpec(family, n, cap), stat)
                if dist.variance() == 0:
                    continue
                assert list(_standardized_steps(dist)) == fraction_steps(dist), (family, stat, n, cap)
                checked += 1
    assert checked == 7 * 3 * 8  # every cell has positive variance
    # weights far past the float range, where only exact rounding keeps the levels
    big = 2**1100
    dist = DiscreteDist({-7: big + 1, 0: 3 * big - 5, 2: big // 3, 11: 2 * big + 12345, 40: 9})
    assert list(_standardized_steps(dist)) == fraction_steps(dist)


def test_distances_hold_no_per_atom_copy():
    # 15 114 atoms: a list of steps or of (value, weight) pairs would take MiBs
    dist = dist_statistic(FamilySpec("selfconj", 12, 2), "power:3")
    tracemalloc.start()
    try:
        normal_distances(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


# ---------------------------------------------------------------- two-pass oracle
#
# A frozen copy of the two-pass distances the fused `normal_distances`
# replaced: dK and dW each walk the steps on their own, and every segment
# evaluates Phi and its integral afresh.  The fused pass must give the
# same floats, bit for bit.


def _oracle_cdf_integral(t):
    return t * normal_cdf(t) + normal_pdf(t)


def _oracle_segment(level, lo, hi):
    area = _oracle_cdf_integral(hi) - _oracle_cdf_integral(lo)
    if normal_cdf(hi) <= level:
        return level * (hi - lo) - area
    if normal_cdf(lo) >= level:
        return area - level * (hi - lo)
    t_star = _inverse_cdf(level, lo, hi)
    left = _oracle_cdf_integral(t_star) - _oracle_cdf_integral(lo)
    right = area - left
    return (level * (t_star - lo) - left) + (right - level * (hi - t_star))


def _oracle_steps(dist):
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


def two_pass_distances(dist):
    steps = _oracle_steps(dist)
    d_k = 0.0
    for t, before, after in steps:
        phi = normal_cdf(t)
        d_k = max(d_k, abs(before - phi), abs(after - phi))
    steps = _oracle_steps(dist)
    d_w = _oracle_cdf_integral(steps[0][0])
    for (t, _, level), (t_next, _, _) in zip(steps, steps[1:]):
        d_w += _oracle_segment(level, t, t_next)
    t_last = steps[-1][0]
    d_w += normal_pdf(t_last) - t_last * (1.0 - normal_cdf(t_last))
    return d_k, d_w


def _crossings(dist):
    """Segments whose plateau cuts through Phi (the bisection branch)."""
    steps = list(_standardized_steps(dist))
    return sum(
        normal_cdf(lo) < level < normal_cdf(hi)
        for (lo, _, level), (hi, _, _) in zip(steps, steps[1:])
    )


pmfs = st.one_of(
    # two atoms, from balanced to very skewed
    st.tuples(st.integers(-30, 30), st.integers(1, 40), st.integers(1, 10**6),
              st.integers(1, 10**6))
    .map(lambda a: DiscreteDist({a[0]: a[2], a[0] + a[1]: a[3]})),
    # a heavy atom and a light far tail: F crosses Phi inside plateaus
    st.tuples(st.integers(10, 10**4), st.lists(st.tuples(st.integers(1, 60), st.integers(1, 5)),
                                                 min_size=1, max_size=6))
    .map(lambda a: DiscreteDist({0: a[0], **dict(a[1])})),
    # general small pmfs, also with weights far past the float range
    st.tuples(st.dictionaries(st.integers(-50, 50), st.integers(1, 10**6), min_size=2, max_size=25),
              st.sampled_from([1, 2**1100]), st.integers(0, 2**64))
    .map(lambda a: DiscreteDist({v: w * a[1] + a[2] for v, w in a[0].items()})),
)


@settings(max_examples=300, deadline=None)
@given(pmfs)
def test_fused_distances_equal_the_two_pass_oracle(dist):
    expect = two_pass_distances(dist)
    assert normal_distances(dist) == expect
    assert (kolmogorov_to_normal(dist), wasserstein_to_normal(dist)) == expect


def test_fused_distances_on_family_laws_and_crossings():
    laws = [
        dist_statistic(FamilySpec(family, n, cap), stat)
        for family, stat, cap, n in (
            ("core", "length", 3, 9), ("core", "size", 3, 9),
            ("strict", "length", 2, 12), ("strict", "size", 2, 12),
            ("selfconj", "power:2", 2, 10), ("selfconj", "power:3", 2, 10),
            ("selfconj", "durfee", 3, 11), ("selfconj", "size", 2, 12),
        )
    ]
    laws += [DiscreteDist({0: 99, 10: 1}), DiscreteDist({0: 1000, 3: 2, 17: 1, 40: 1})]
    assert sum(map(_crossings, laws[-2:])) >= 2  # the bisection branch is reached
    for dist in laws:
        assert normal_distances(dist) == two_pass_distances(dist), dist
