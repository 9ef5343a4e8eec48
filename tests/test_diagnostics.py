import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from coreperim.diagnostics import (
    check_size_conditions,
    concentration_check,
    subset_sum_distribution,
    subset_sum_rates,
)
from coreperim.distributions import DiscreteDist
from coreperim.exactdist import dist_statistic
from coreperim.families import FamilySpec


# sha256 of the reprs of check_size_conditions(n, d), n 3..29 and d 2..6,
# generated while the report worked out the moments of g_i on its own
CONDITION_REPORTS_SHA256 = "64c1bf0714a89f3caf5636b0cf57001a3d764c11b7475b3a4a543799e2e4dbe9"


def test_condition_reports_are_pinned():
    digest = hashlib.sha256()
    for n in range(3, 30):
        for d in range(2, 7):
            digest.update(repr(check_size_conditions(n, d)).encode())
    assert digest.hexdigest() == CONDITION_REPORTS_SHA256


def test_condition_report_by_hand_n5_d3():
    rep = check_size_conditions(5, 3)
    assert rep.pair_coupling == -1
    assert rep.arithmetic_exact
    assert rep.zero_at_origin
    assert rep.var_x == Fraction(2, 3)
    # coordinates carry g(y) = 2y^2 + b y with b in {-7,-6,-5,-4};
    # b = -7 gives values (-5,-6,-3) on {1,2,3}, variance 14/9
    assert rep.inf_var_g == Fraction(14, 9)
    assert rep.sup_g_sq == 36
    assert rep.near_independence_ratio == pytest.approx(
        float(Fraction(25 * 81) / Fraction(14, 9))
    )
    assert rep.boundedness_ratio == pytest.approx(float(36 / Fraction(14, 9)))
    # the b = -4 coordinate has values (-2,0,6), cov 8/3, rho^2 = 12/13;
    # that is the largest correlation with its own coordinate
    assert rep.nondegeneracy_max == Fraction(12, 13)


def test_condition_report_validation():
    with pytest.raises(ValueError):
        check_size_conditions(2, 3)
    with pytest.raises(ValueError):
        check_size_conditions(5, 1)


def test_condition_report_d2_boundary():
    # on {1, 2} the square is affine in y, so g can degenerate
    even = check_size_conditions(6, 2)
    assert even.inf_var_g == 0
    assert even.near_independence_ratio is None
    assert even.boundedness_ratio is None
    assert even.nondegeneracy_max is None
    odd = check_size_conditions(7, 2)
    assert odd.inf_var_g > 0
    # every coordinate is perfectly correlated with its square there
    assert odd.nondegeneracy_max == 1


def test_condition_report_regular_cases_nondegenerate():
    for n in (5, 8, 11):
        for d in (3, 4):
            rep = check_size_conditions(n, d)
            assert rep.inf_var_g > 0
            assert rep.nondegeneracy_max < 1
            assert rep.boundedness_ratio > 1
            obj = json.loads(json.dumps(rep.to_json()))
            assert obj["n"] == n and obj["d"] == d
            assert Fraction(obj["inf_var_g"]) == rep.inf_var_g


def test_concentration_by_hand():
    # length over two free coordinates uniform {0,1}: atoms {0:1, 1:2, 2:1}
    rep = concentration_check("core", "length", 3, 1, [1, 2])
    assert rep.scale == 3 * 1 * 1
    assert rep.mean == 1 and rep.variance == Fraction(1, 2)
    e1, e2 = rep.entries
    assert e1.tail == Fraction(1, 2)
    assert e1.c_witness == pytest.approx(3 / 0.5 * math.log(4.0))
    # two sigma exceeds the range: exact zero tail, no constraint
    assert e2.tail == 0 and e2.c_witness is None
    assert rep.witnessed_c == e1.c_witness
    obj = rep.to_json()
    assert obj["entries"][1]["c_witness"] is None
    assert Fraction(obj["variance"]) == Fraction(1, 2)


def test_concentration_tails_match_direct_sum():
    for family, stat in (("strict", "length"), ("strict", "size"), ("selfconj", "durfee")):
        spec = FamilySpec(family, 8, 2)
        dist = dist_statistic(spec, stat)
        rep = concentration_check(family, stat, 8, 2, [1, Fraction(3, 2), 2, 3])
        mu, var = dist.mean(), dist.variance()
        for entry in rep.entries:
            thr = entry.multiple**2 * var
            brute = sum(w for v, w in dist.items() if (v - mu) ** 2 >= thr)
            assert entry.tail == Fraction(brute, dist.total)
            assert entry.r == pytest.approx(float(entry.multiple) * math.sqrt(float(var)))


def test_concentration_validation():
    with pytest.raises(ValueError):
        concentration_check("core", "length", 5, 0, [1])  # zero variance
    with pytest.raises(ValueError):
        concentration_check("core", "length", 5, 2, [0])
    with pytest.raises(ValueError):
        concentration_check("selfconj", "power:2", 5, 2, [1])  # no scale for power sums


def test_tail_scales():
    assert concentration_check("core", "length", 5, 3, [1]).scale == 5 * 9
    assert concentration_check("core", "size", 5, 2, [1]).scale == 125 * 16
    assert concentration_check("selfconj", "durfee", 6, 2, [1]).scale == 6 * 4
    # power:0 and power:1 are durfee and size on selfconj: the same laws, the same scales
    assert concentration_check("selfconj", "power:0", 6, 2, [1]).scale == 6 * 4
    assert concentration_check("selfconj", "size", 6, 2, [1]).scale == 216 * 16
    assert concentration_check("selfconj", "power:1", 6, 2, [1]).scale == 216 * 16


def test_subset_sums_match_brute_force():
    for m in range(1, 11):
        for k in range(1, m + 1):
            dist = subset_sum_distribution(m, k)
            brute: dict[int, int] = {}
            for combo in combinations(range(1, m + 1), k):
                s = sum(combo)
                brute[s] = brute.get(s, 0) + 1
            assert dist == DiscreteDist(brute)
            assert dist.total == comb(m, k)


def test_subset_sums_symmetry_and_moments():
    # C(m, k) sets the lane width: the pairs straddle 2^8, 2^16 and 2^64,
    # where the width steps from 1 to 2, 2 to 3 and 8 to 9 bytes, and a
    # carry between lanes would break the exact moments or the symmetry
    pairs = ((10, 5), (11, 5), (18, 9), (19, 9), (67, 33), (68, 34), (30, 15), (41, 13), (70, 35))
    for m, k in pairs:
        dist = subset_sum_distribution(m, k)
        assert dist.total == comb(m, k)
        assert dist.mean() == Fraction(k * (m + 1), 2)
        assert dist.variance() == Fraction(k * (m - k) * (m + 1), 12)
        center = k * (m + 1)
        atoms = dist.atoms
        assert all(atoms[center - v] == w for v, w in atoms.items())  # reflection symmetry
        assert dist.central_moment(3) == 0


def test_subset_sum_validation():
    with pytest.raises(ValueError):
        subset_sum_distribution(5, 0)
    with pytest.raises(ValueError):
        subset_sum_distribution(5, 6)


def test_subset_sum_rates_columns():
    rows = subset_sum_rates([10, 14, 18])
    assert [r["m"] for r in rows] == [10, 14, 18]
    for r in rows:
        assert r["k"] == r["m"] // 2
        factor = math.sqrt(r["k"] * (r["m"] - r["k"]) / r["m"])
        assert r["scaled_dK"] == pytest.approx(factor * r["dK"])
        assert r["scaled_dW"] == pytest.approx(factor * r["dW"])
        assert 0 < r["dK"] < 0.1


def test_concentration_reports_are_pinned():
    # sha256 of every TailReport.to_json() over a grid, generated before the
    # per-atom tail test moved from Fractions to integers; every tail stays ==
    multiples = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    grid = [
        (family, stat, n, cap)
        for family, stats in (("core", ("length", "size")), ("strict", ("length", "size")),
                              ("selfconj", ("length", "size", "power:0", "power:1")))
        for stat in stats
        for n in range(3, 13)
        for cap in (1, 2, 3)
    ]
    digest = hashlib.sha256()
    for family, stat, n, cap in grid:
        rep = concentration_check(family, stat, n, cap, multiples)
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "9797b93c5d7ad927e7686cb1462412ddcf9264a605536cdcb5babd3e27bc80cb"
    rep = concentration_check("core", "size", 40, 3, [1, 2, 3])
    assert hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest() == (
        "623289535199239ab79006f8e6501a1f76ef0b489eb5aa029697516c5732b468"
    )
