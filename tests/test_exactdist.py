import hashlib
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from coreperim import exactdist
from coreperim.distributions import DiscreteDist
from coreperim.codec import statistic_value
from coreperim.exactdist import (
    ConditionalStat,
    MomentReport,
    conditional_stat,
    decode_lanes,
    dist_statistic,
    fold_power_sums,
    legal_supports,
    mixture_identity_check,
    moment_report,
    moments,
    power_sums,
    refuse_wide,
    sums_engine,
)
from coreperim.families import FamilySpec, count_family, enumerate_family, oracle_distribution


def stats_for(family):
    if family == "selfconj":
        return ["length", "size", "durfee", "power:2", "power:3"]
    return ["length", "size"]


def test_engines_match_enumeration_oracle():
    for family in ("core", "strict", "selfconj"):
        for n in range(2, 7):
            for cap in range(4):
                spec = FamilySpec(family, n, cap)
                for stat in stats_for(family):
                    assert dist_statistic(spec, stat) == oracle_distribution(
                        spec, stat
                    ), (family, n, cap, stat)


def test_dist_totals_are_family_counts():
    for family in ("core", "strict", "selfconj"):
        for n in (5, 8, 11):
            for cap in (1, 2, 3):
                spec = FamilySpec(family, n, cap)
                assert dist_statistic(spec, "length").total == count_family(spec)
                assert dist_statistic(spec, "size").total == count_family(spec)


def test_core_size_by_hand_n2():
    # single coordinate x: size is the triangular number x(x+1)/2
    d = dist_statistic(FamilySpec("core", 2, 3), "size")
    assert d.atoms == {0: 1, 1: 1, 3: 1, 6: 1}


def test_selfconj_power_by_hand_n3():
    # vectors (a,0,c), a*c = 0; runs give diagonal hooks {1,7} and {5,11}
    spec = FamilySpec("selfconj", 3, 2)
    d = dist_statistic(spec, "power:1")
    assert d.atoms == {0: 1, 1: 1, 5: 1, 8: 1, 16: 1}
    d0 = dist_statistic(spec, "power:0")
    assert d0.atoms == {0: 1, 1: 2, 2: 2}
    with pytest.raises(ValueError):
        dist_statistic(spec, "power:-1")


def test_dist_statistic_dispatch_errors():
    with pytest.raises(ValueError):
        dist_statistic(FamilySpec("core", 5, 2), "durfee")
    with pytest.raises(ValueError):
        dist_statistic(FamilySpec("strict", 5, 2), "power:2")


def test_pmf_byte_budget_refuses_before_the_first_step(monkeypatch):
    # core length d=3, n=6: 4^5 = 1024 paths need 2-byte lanes, T <= 15, so
    # the bound is 16 lanes * (1 layer * 2 bytes + _ATOM_BYTES) = 5152
    spec = FamilySpec("core", 6, 3)
    assert exactdist._ATOM_BYTES == 320
    monkeypatch.setattr(exactdist, "PMF_BYTE_BUDGET", 5152)
    assert dist_statistic(spec, "length").total == 4**5
    monkeypatch.setattr(exactdist, "PMF_BYTE_BUDGET", 5151)
    with pytest.raises(ValueError) as err:
        dist_statistic(spec, "length")
    msg = str(err.value)
    assert "\n" not in msg and "5152 bytes" in msg
    assert all(part in msg for part in ("family core", "stat length", "n 6", "cap 3", "moments"))
    # strict size d=2, n=5: 21 paths (1-byte lanes), states 2, A <= 8 and
    # T <= 7 + 9 + 11 + 13 = 40, so 41 * (2 * 9 * 1 + 320) = 13858
    spec = FamilySpec("strict", 5, 2)
    monkeypatch.setattr(exactdist, "PMF_BYTE_BUDGET", 13858)
    assert dist_statistic(spec, "size").total == 21
    monkeypatch.setattr(exactdist, "PMF_BYTE_BUDGET", 13857)
    with pytest.raises(ValueError, match="13858 bytes"):
        dist_statistic(spec, "size")


def test_pmf_refusal_allocates_nothing():
    # selfconj power:3 e=2: n=21 is the first n refused (as by the old step
    # limit); n=40 would hold ~365 MB of lanes
    for n in (21, 40):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="PMF_BYTE_BUDGET"):
                dist_statistic(FamilySpec("selfconj", n, 2), "power:3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_lane_width_edges_match_enumeration():
    # totals that are exact powers of two (2^8, 2^16: one bit past a byte),
    # cap 0 (a single path, 1-byte lanes) and n = 2 (one coordinate)
    cases = [FamilySpec("core", 9, 1), FamilySpec("core", 17, 1), FamilySpec("core", 5, 3),
             FamilySpec("core", 9, 3)]
    cases += [FamilySpec(f, n, 0) for f in ("core", "strict", "selfconj") for n in (2, 7, 30)]
    cases += [FamilySpec(f, 2, cap) for f in ("core", "strict", "selfconj") for cap in range(5)]
    for spec in cases:
        for stat in stats_for(spec.family):
            got = dist_statistic(spec, stat)
            assert got.total == count_family(spec), (spec, stat)
            if spec.cap == 0:
                assert got.atoms == {0: 1}, (spec, stat)
            else:
                assert got == oracle_distribution(spec, stat), (spec, stat)


def test_core_length_is_symmetric_sum():
    # sum of n-1 iid uniform{0..d}: odd central moments vanish exactly
    for n in (4, 7):
        for d in (1, 3):
            dist = dist_statistic(FamilySpec("core", n, d), "length")
            assert dist.mean() == Fraction((n - 1) * d, 2)
            assert dist.variance() == Fraction((n - 1) * (d * d + 2 * d), 12)
            ms = dist.central_moments(7)
            assert ms[3] == ms[5] == ms[7] == 0


def test_moment_report_fields():
    spec = FamilySpec("core", 5, 3)
    rep = moments(dist_statistic(spec, "length"), 6, family="core", stat="length", n=5, cap=3)
    assert isinstance(rep, MomentReport)
    assert rep.family == "core" and rep.n == 5 and rep.cap == 3
    assert rep.mean == 6 and rep.variance == 5
    assert len(rep.central) == 7
    assert rep.central[2] == rep.variance
    assert not rep.degenerate
    assert rep.standardized[1] == "0.000"
    assert rep.standardized[2] == "1.000"
    assert rep.standardized[3] == "0.000"
    # kurtosis of the 4-fold uniform{0..3} sum
    assert rep.standardized[4] == "2.660"


def test_moment_report_degenerate():
    rep = moments(DiscreteDist({7: 1}), 4)
    assert rep.degenerate
    assert rep.mean == 7 and rep.variance == 0
    assert rep.standardized == {}


# (family, stat, cap, n range) of the eight golden tables
GOLDEN_GRIDS = [
    ("core", "length", 3, range(5, 15)),
    ("core", "size", 3, range(5, 15)),
    ("strict", "length", 2, range(8, 18)),
    ("strict", "size", 2, range(8, 18)),
] + [("selfconj", f"power:{k}", 2, range(6, 16)) for k in range(4)]


def assert_engines_agree(spec, stat, k_max=8):
    rep = moment_report(spec, stat, k_max)
    dist = dist_statistic(spec, stat)
    assert list(rep.central) == dist.central_moments(k_max), (spec, stat)
    ref = moments(dist, k_max)
    assert (rep.mean, rep.variance, rep.standardized) == (ref.mean, ref.variance, ref.standardized)
    assert (rep.family, rep.stat, rep.n, rep.cap) == (spec.family, stat, spec.n, spec.cap)


def test_moment_engine_matches_pmf_on_golden_grids():
    for family, stat, cap, ns in GOLDEN_GRIDS:
        for n in ns:
            assert_engines_agree(FamilySpec(family, n, cap), stat)


def test_moment_engine_matches_pmf_on_oracle_grid():
    for family in ("core", "strict", "selfconj"):
        for n, cap in product(range(2, 9), range(4)):
            spec = FamilySpec(family, n, cap)
            for stat in stats_for(family):
                assert_engines_agree(spec, stat)
                # the CLI refuses cap 0 as the only zero-variance case
                assert moment_report(spec, stat, 8).degenerate == (cap == 0)


# columns that straddle the measured fold/pmf crossovers at k_max = 8
CROSSOVER_GRIDS = [
    ("strict", "size", 2, range(40, 49)),
    ("core", "size", 3, range(20, 26)),
    ("core", "length", 3, range(100, 151)),
    ("selfconj", "power:2", 2, range(8, 17)),
]


def test_power_sums_equal_the_pmf_sums_on_oracle_grid():
    # the fold itself, not `power_sums`, which reads small columns off the pmf;
    # raw sums, totals included: cap 0 (strict's empty 0 -> 1 step) and the
    # skipped zero-contribution steps must leave the path count exact
    for family in ("core", "strict", "selfconj"):
        for n, cap in product(range(2, 9), range(4)):
            spec = FamilySpec(family, n, cap)
            for stat in stats_for(family):
                assert fold_power_sums(spec, stat, 6) == dist_statistic(spec, stat).power_sums(6)
    for family, stat, cap, ns in GOLDEN_GRIDS + CROSSOVER_GRIDS:
        for n in ns:
            spec = FamilySpec(family, n, cap)
            assert fold_power_sums(spec, stat, 8) == dist_statistic(spec, stat).power_sums(8)


def test_power_sums_switch_engine_once_across_each_crossover():
    for family, stat, cap, ns in CROSSOVER_GRIDS:
        engines = [sums_engine(FamilySpec(family, n, cap), stat, 8) for n in ns]
        switch = engines.count("pmf")
        assert engines == ["pmf"] * switch + ["fold"] * (len(ns) - switch), (family, stat)
        # selfconj power:2 always folds; the other three cross inside their range
        assert (0 < switch < len(ns)) == (family != "selfconj"), (family, stat, engines)
        spec = FamilySpec(family, ns[switch - 1], cap)
        assert power_sums(spec, stat, 8) == fold_power_sums(spec, stat, 8)


# the columns of the benchmark's `tables` workload (eight golden tables, then
# four larger ones) and the engine each takes at k 3..8: p pmf, f fold
TABLE_ENGINES = [
    ("core", "length", 3, range(5, 15), "pppppppppp"),
    ("core", "size", 3, range(5, 15), "pppppppppp"),
    ("strict", "length", 2, range(8, 18), "pppppppppp"),
    ("strict", "size", 2, range(8, 18), "pppppppppp"),
    ("selfconj", "power:0", 2, range(6, 16), "pppppppppp"),
    ("selfconj", "power:1", 2, range(6, 16), "ppffffffff"),
    ("selfconj", "power:2", 2, range(6, 16), "ffffffffff"),
    ("selfconj", "power:3", 2, range(6, 16), "ffffffffff"),
    ("core", "size", 3, range(15, 21), "pppppp"),
    ("strict", "size", 2, range(18, 33), "ppppppppppppppp"),
    ("core", "length", 3, range(200, 204), "ffff"),
    ("selfconj", "power:3", 2, range(16, 18), "ff"),
]


def test_table_columns_take_the_pinned_engine():
    for family, stat, cap, ns, pinned in TABLE_ENGINES:
        got = "".join(sums_engine(FamilySpec(family, n, cap), stat, 8)[0] for n in ns)
        assert got == pinned, (family, stat, cap)
    assert {"p", "f"} <= set("".join(row[-1] for row in TABLE_ENGINES))


# sha256 of the reprs of (family, stat, cap, n, fold_power_sums(spec, stat, 8))
# over TABLE_ENGINES then CROSSOVER_GRIDS, generated while the fold read
# contribution tuples of its own, apart from the pmf's moves
FOLD_SUMS_SHA256 = "cc967fcc6185424af2c5b7b372d5f7cd3484f2a0ef8e2c35d86da7634ce1d53e"
# the four sweeps of the benchmark's `distance` workload
DISTANCE_SWEEPS = [
    ("core", "size", 3, range(20, 24)),
    ("strict", "size", 2, range(40, 45)),
    ("selfconj", "power:2", 2, range(16, 20)),
    ("strict", "length", 1, range(10, 61)),
]
# sha256 of the reprs of (family, stat, cap, n, list(pmf.items())) over
# DISTANCE_SWEEPS, generated at the same commit
DISTANCE_PMF_SHA256 = "fd7ff6a5bbee8b6b83ffa86fb233998f56c7cc9eb0341b33154a01f1d720c3e9"


def test_large_n_integers_are_pinned():
    # both engines read the automaton's moves, and enumeration stops at n <= 8,
    # so a fault shared by both would pass every cross-check but these pins
    digest = hashlib.sha256()
    for family, stat, cap, ns, *_ in TABLE_ENGINES + CROSSOVER_GRIDS:
        for n in ns:
            sums = fold_power_sums(FamilySpec(family, n, cap), stat, 8)
            digest.update(repr((family, stat, cap, n, sums)).encode())
    assert digest.hexdigest() == FOLD_SUMS_SHA256
    digest = hashlib.sha256()
    for family, stat, cap, ns in DISTANCE_SWEEPS:
        for n in ns:
            pmf = list(dist_statistic(FamilySpec(family, n, cap), stat).items())
            digest.update(repr((family, stat, cap, n, pmf)).encode())
    assert digest.hexdigest() == DISTANCE_PMF_SHA256


def test_the_pmf_is_never_chosen_past_its_byte_budget(monkeypatch):
    # core size d=3 n=10 reads off the pmf, until the budget would refuse it
    spec = FamilySpec("core", 10, 3)
    expected = dist_statistic(spec, "size").power_sums(8)
    assert sums_engine(spec, "size", 8) == "pmf"
    monkeypatch.setattr(exactdist, "PMF_BYTE_BUDGET", 1000)
    assert sums_engine(spec, "size", 8) == "fold"
    assert power_sums(spec, "size", 8) == expected


def test_the_engine_pick_reads_the_pmf_refusals_own_price(monkeypatch):
    # a pmf fold priced 100 times dearer, still far under PMF_SECONDS_LIMIT,
    # sends core size d=3 n=10 (a pinned pmf pick) to the fold
    spec = FamilySpec("core", 10, 3)
    expected = dist_statistic(spec, "size").power_sums(8)
    assert sums_engine(spec, "size", 8) == "pmf"
    monkeypatch.setattr(exactdist, "PMF_UNIT_NS", tuple(100 * ns for ns in exactdist.PMF_UNIT_NS))
    assert exactdist._Law.of(spec, "size").seconds < exactdist.PMF_SECONDS_LIMIT
    assert sums_engine(spec, "size", 8) == "fold"
    assert power_sums(spec, "size", 8) == expected


def test_power_sums_past_the_plan_limit_and_errors():
    # orders whose fold plan is too large are read off the pmf instead
    spec = FamilySpec("strict", 9, 2)
    assert power_sums(spec, "size", 18) == dist_statistic(spec, "size").power_sums(18)
    assert power_sums(spec, "length", 18) == dist_statistic(spec, "length").power_sums(18)
    assert power_sums(spec, "length", 200) == dist_statistic(spec, "length").power_sums(200)
    with pytest.raises(ValueError):
        power_sums(FamilySpec("core", 5, 2), "durfee", 4)
    with pytest.raises(ValueError):
        power_sums(FamilySpec("strict", 5, 2), "power:2", 4)


def test_legal_supports_counts_and_shape():
    for n in range(2, 10):
        supports = list(legal_supports(n))
        assert len(set(supports)) == len(supports)
        # one support per strict 0/1 pattern
        assert len(supports) == count_family(FamilySpec("strict", n, 1))
        for t in supports:
            assert all(b - a >= 2 for a, b in zip(t, t[1:]))
            assert all(1 <= i <= n - 1 for i in t)


def test_conditional_stat_validation():
    spec = FamilySpec("strict", 6, 2)
    with pytest.raises(ValueError):
        conditional_stat(FamilySpec("core", 6, 2), "length", (1,))
    with pytest.raises(ValueError):
        conditional_stat(spec, "power:2", (1,))
    with pytest.raises(ValueError):
        conditional_stat(spec, "length", (2, 3))  # adjacent
    with pytest.raises(ValueError):
        conditional_stat(spec, "length", (0, 4))  # out of range
    with pytest.raises(ValueError, match="cap"):
        conditional_stat(FamilySpec("strict", 6, 0), "size", (1, 3))  # nothing to take


def test_conditional_length_small():
    spec = FamilySpec("strict", 6, 2)
    c = conditional_stat(spec, "length", (1, 3))
    assert isinstance(c, ConditionalStat)
    # two independent uniform{1,2} coordinates
    assert c.dist.atoms == {2: 1, 3: 2, 4: 1}
    assert c.mean == c.closed_mean == 3
    assert c.variance == c.closed_variance == Fraction(1, 2)
    empty = conditional_stat(spec, "size", ())
    assert empty.dist == DiscreteDist({0: 1})
    assert empty.variance == 0


def test_conditional_size_matches_enumeration():
    spec = FamilySpec("strict", 6, 3)
    for t in legal_supports(6):
        c = conditional_stat(spec, "size", t)
        brute: dict[int, int] = {}
        for x in enumerate_family(spec):
            if tuple(i for i, v in enumerate(x, start=1) if v) == t:
                s = statistic_value(spec, "size", x)
                brute[s] = brute.get(s, 0) + 1
        assert c.dist == DiscreteDist(brute)
        assert c.mean == c.closed_mean
        assert c.variance == c.closed_variance


# sha256 of the reprs of (n, d, support, mean, variance, closed mean, closed
# variance) of the conditional size statistic over every legal support,
# n 2..11 and d 1..4, generated while the closed forms summed the moments of
# g_i over 1..d on their own
CONDITIONAL_SIZE_SHA256 = "987e70124e23ea19c268ba027f1382fdb91a890f66b227cdc0f29404f96d0117"


def test_conditional_size_closed_forms_are_pinned():
    digest = hashlib.sha256()
    for n in range(2, 12):
        for d in range(1, 5):
            for t in legal_supports(n):
                c = conditional_stat(FamilySpec("strict", n, d), "size", t)
                row = (n, d, t, c.mean, c.variance, c.closed_mean, c.closed_variance)
                digest.update(repr(row).encode())
    assert digest.hexdigest() == CONDITIONAL_SIZE_SHA256


def test_mixture_identity_exact():
    for n in range(2, 7):
        for d in (1, 2, 3):
            spec = FamilySpec("strict", n, d)
            assert mixture_identity_check(spec, "length")
            assert mixture_identity_check(spec, "size")


@pytest.mark.parametrize("stat", ["length", "size"])
def test_cap_zero_mixture_layer(stat):
    # the zero vector is the only member, on the empty support
    for n in range(2, 7):
        spec = FamilySpec("strict", n, 0)
        c = conditional_stat(spec, stat, ())
        assert c.dist == DiscreteDist({0: 1})
        assert c.mean == c.closed_mean == 0
        assert c.variance == c.closed_variance == 0
        assert mixture_identity_check(spec, stat) is True


def slice_lanes(packed, width):
    """The lanes of `packed` by one little-endian slice per lane."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, len(raw), width)]


@given(st.integers(1, 9).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 2 ** (8 * w) - 1), max_size=40))))
def test_decode_lanes_cast_and_slice_paths_agree(case):
    width, lanes = case
    packed = sum(lane << (8 * width * j) for j, lane in enumerate(lanes))
    got = decode_lanes(packed, width)
    assert got == slice_lanes(packed, width)
    top = max((j + 1 for j, lane in enumerate(lanes) if lane), default=0)
    assert got == lanes[:top]  # every lane up to the top nonzero one, zero lanes included


def test_lane_widths_are_padded_for_the_cast():
    # core length d=1, n=8w: N = 2^(8w-1) paths, exactly w bytes before padding
    for raw, padded in zip(range(1, 10), (1, 2, 4, 4, 8, 8, 8, 8, 9)):
        spec = FamilySpec("core", 8 * raw, 1)
        assert exactdist._Law.of(spec, "length").width == padded
        assert dist_statistic(spec, "length").atoms == {
            k: comb(8 * raw - 1, k) for k in range(8 * raw)
        }


def test_refuse_wide_boundaries():
    # n and cap + 1 are ranges like --n's, each checked before anything is built
    limit = exactdist.RANGE_LIMIT
    for n, cap in ((limit, 3), (5, limit - 1), (limit, limit - 1)):
        refuse_wide(FamilySpec("core", n, cap), "law")
    for n, cap in ((limit + 1, 3), (5, limit), (2, 10**18)):
        with pytest.raises(ValueError, match=f"^law refused: .* at most RANGE_LIMIT = {limit}$"):
            refuse_wide(FamilySpec("strict", n, cap), "law")


def test_move_limit_boundary():
    # n*(cap + 1) is priced before `_automaton` builds a move
    limit = exactdist.MOVE_LIMIT
    assert exactdist._Law.of(FamilySpec("core", 1000, limit // 1000 - 1), "length").moves < limit
    for family, stat in (("core", "size"), ("strict", "length"), ("selfconj", "power:2")):
        with pytest.raises(ValueError, match=f"^family {family}, .* = {limit + 100} moves, "
                                             f"over MOVE_LIMIT = {limit}$"):
            exactdist._Law.of(FamilySpec(family, 100, limit // 100), stat)


def test_the_pmf_fold_is_priced_in_time(monkeypatch):
    # the slowest pmfs answered so far fit PMF_SECONDS_LIMIT, and core length
    # d=3 n=2400 (estimated at 31 s) is refused before its first step
    limit = exactdist.PMF_SECONDS_LIMIT
    for family, stat, cap, n in (("core", "length", 3, 1600), ("strict", "size", 2, 160)):
        law = exactdist._Law.of(FamilySpec(family, n, cap), stat)
        assert law.seconds < limit / 2 and law.need <= exactdist.PMF_BYTE_BUDGET
    law = exactdist._Law.of(FamilySpec("core", 2400, 3), "length")
    assert law.seconds > limit and law.need <= exactdist.PMF_BYTE_BUDGET
    with pytest.raises(ValueError, match=f"over PMF_SECONDS_LIMIT = {limit}; `moments` reaches"):
        law.pmf()
    # length moves are the same at every coordinate: its steps share one list
    assert len({id(step) for step in law.steps}) == 1
    # a column past the limit folds, as one past PMF_BYTE_BUDGET does
    spec = FamilySpec("core", 10, 3)
    expected = dist_statistic(spec, "size").power_sums(8)
    assert sums_engine(spec, "size", 8) == "pmf"
    monkeypatch.setattr(exactdist, "PMF_SECONDS_LIMIT", 1e-6)
    assert sums_engine(spec, "size", 8) == "fold"
    assert power_sums(spec, "size", 8) == expected
