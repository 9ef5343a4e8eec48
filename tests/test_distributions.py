from fractions import Fraction
from math import comb

from hypothesis import given, strategies as st
import pytest

from coreperim.distributions import (
    DiscreteDist,
    central_moments_from_sums,
    convolve,
    round_half_away,
)
from coreperim.exactdist import power_sums
from coreperim.families import FamilySpec


atom_dicts = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=0, max_value=50),
    min_size=1,
    max_size=10,
).filter(lambda d: any(w > 0 for w in d.values()))


def test_construction_cleans_and_validates():
    d = DiscreteDist({3: 2, 1: 0, -1: 5})
    assert d.support() == [-1, 3]
    assert d.total == 7
    assert d.atoms == {-1: 5, 3: 2}
    assert d.probability(-1) == Fraction(5, 7)
    with pytest.raises(ValueError):
        DiscreteDist({})
    with pytest.raises(ValueError):
        DiscreteDist({0: 0})
    with pytest.raises(ValueError):
        DiscreteDist({0: -1})


def cleaned_atoms(atoms):
    """The atoms (or the error) of the constructor before its sorted-input path."""
    cleaned = {}
    for value, weight in atoms.items():
        if weight < 0:
            raise ValueError(f"negative weight {weight} at {value}")
        if weight > 0:
            cleaned[int(value)] = weight
    if not cleaned:
        raise ValueError("distribution needs at least one atom")
    return list(sorted(cleaned.items()))


def outcome(build, atoms):
    try:
        return build(atoms)
    except ValueError as exc:
        return str(exc)


@given(
    st.dictionaries(st.integers(-30, 30), st.integers(-2, 50), max_size=10),
    st.sampled_from([None, sorted, lambda items: sorted(items, reverse=True)]),
)
def test_construction_matches_the_cleaning_oracle(atoms, order):
    if order is not None:
        atoms = dict(order(atoms.items()))  # ascending input takes the checked path
    got = outcome(lambda a: list(DiscreteDist(a).items()), atoms)
    assert got == outcome(cleaned_atoms, atoms)
    if isinstance(got, list):
        assert DiscreteDist(atoms).total == sum(w for _, w in got)


def test_construction_keeps_a_private_copy():
    for atoms in ({-1: 5, 3: 2}, {3: 2, -1: 5}, {-1: 5, 1: 0, 3: 2}, {True: 2, 4: 1}):
        d = DiscreteDist(atoms)
        before = (list(d.items()), d.total)
        atoms[3] = 100
        atoms[7] = 1
        atoms.pop(-1, None)
        assert (list(d.items()), d.total) == before
        assert d._atoms is not atoms
    assert list(DiscreteDist({True: 2, 4: 1}).items()) == [(1, 2), (4, 1)]
    assert type(DiscreteDist({True: 2}).support()[0]) is int
    assert outcome(DiscreteDist, {0: 1, 2: -3, 5: -1}) == "negative weight -3 at 2"


def test_hand_moments():
    # fair die
    die = DiscreteDist({v: 1 for v in range(1, 7)})
    assert die.mean() == Fraction(7, 2)
    assert die.variance() == Fraction(35, 12)
    assert die.power_sums(2) == [6, 21, 91]
    assert die.central_moment(3) == 0
    assert die.central_moment(4) == Fraction(707, 48)
    # asymmetric two-pointer
    d = DiscreteDist({0: 3, 4: 1})
    assert d.mean() == 1
    assert d.variance() == 3
    assert d.central_moment(3) == 6


def test_central_moments_prefix_consistency():
    d = DiscreteDist({-2: 1, 0: 4, 5: 2})
    ms = d.central_moments(6)
    assert ms[0] == 1
    assert ms[1] == 0
    assert ms[2] == d.variance()
    for k in range(7):
        assert ms[k] == d.central_moment(k)


@given(atom_dicts)
def test_central_moments_match_definition(atoms):
    d = DiscreteDist(atoms)
    mu = d.mean()
    for k in range(5):
        direct = sum(
            Fraction(w, d.total) * (Fraction(v) - mu) ** k for v, w in d.items()
        )
        assert d.central_moment(k) == direct


@given(atom_dicts, st.integers(-5, 5), st.integers(-7, 7))
def test_affine_transforms_moments(atoms, a, b):
    d = DiscreteDist(atoms)
    moved = {}  # the law of a*X + b; a = 0 merges every atom into one
    for v, w in d.items():
        moved[a * v + b] = moved.get(a * v + b, 0) + w
    t = DiscreteDist(moved)
    assert t.mean() == a * d.mean() + b
    assert t.variance() == a * a * d.variance()
    assert t.central_moment(3) == a**3 * d.central_moment(3)
    assert t.total == d.total


@given(atom_dicts, atom_dicts)
def test_convolve_adds_cumulants(x, y):
    a, b = DiscreteDist(x), DiscreteDist(y)
    c = convolve(a, b)
    assert c.total == a.total * b.total
    assert c.mean() == a.mean() + b.mean()
    assert c.variance() == a.variance() + b.variance()
    assert c.central_moment(3) == a.central_moment(3) + b.central_moment(3)


def test_convolve_brute_force():
    a = DiscreteDist({0: 1, 1: 2})
    b = DiscreteDist({0: 1, 2: 1})
    assert convolve(a, b).atoms == {0: 1, 1: 2, 2: 1, 3: 2}


def test_point_mass_and_uniform():
    p = DiscreteDist({5: 1})
    assert p.mean() == 5 and p.variance() == 0
    u = DiscreteDist({-1: 1, 0: 1, 1: 1})
    assert u.support() == [-1, 0, 1]
    assert u.mean() == 0 and u.variance() == Fraction(2, 3)
    assert convolve(p, u).support() == [4, 5, 6]


def test_equality_ignores_weight_scaling():
    assert DiscreteDist({0: 1, 1: 1}) == DiscreteDist({0: 3, 1: 3})
    assert DiscreteDist({0: 1, 1: 2}) != DiscreteDist({0: 2, 1: 1})
    assert DiscreteDist({0: 1}) != DiscreteDist({1: 1})
    assert DiscreteDist({0: 1}) != "not a dist"


def test_cdf_steps():
    d = DiscreteDist({1: 1, 2: 2, 5: 1})
    steps = d.cdf_steps()
    assert steps == [
        (1, Fraction(0), Fraction(1, 4)),
        (2, Fraction(1, 4), Fraction(3, 4)),
        (5, Fraction(3, 4), Fraction(1)),
    ]
    assert steps[-1][2] == 1


def test_round_half_away_basics():
    assert round_half_away(1, Fraction(4)) == "2.000"
    assert round_half_away(-1, Fraction(1, 4)) == "-0.500"
    assert round_half_away(1, Fraction(0)) == "0.000"
    assert round_half_away(-1, Fraction(0)) == "0.000"  # no negative zero
    assert round_half_away(1, Fraction(2)) == "1.414"
    assert round_half_away(-1, Fraction(2)) == "-1.414"
    assert round_half_away(1, Fraction(2), digits=5) == "1.41421"


def test_round_half_away_ties_go_away_from_zero():
    # sqrt is exactly x.0005 at square = (10005/10^7)^2 scaled appropriately
    assert round_half_away(1, Fraction(5**2, 10**8)) == "0.001"
    assert round_half_away(-1, Fraction(5**2, 10**8)) == "-0.001"
    assert round_half_away(1, Fraction(15**2, 10**8)) == "0.002"
    assert round_half_away(1, Fraction(10005**2, 10**8)) == "1.001"
    # just below the tie stays down
    assert round_half_away(1, Fraction(10005**2 - 1, 10**8)) == "1.000"


@given(st.integers(0, 10**7))
def test_round_half_away_matches_decimal_on_perfect_squares(m):
    # for square = (m/1000)^2 the answer is m/1000 printed exactly
    s = Fraction(m * m, 10**6)
    text = round_half_away(1, s)
    assert text == f"{m // 1000}.{m % 1000:03d}"


def _central_moments_by_binomial_sums(raw):
    """The reduction as it stood before the Pascal triangle, kept as an oracle:
    mu_k * N^k = sum_j C(k, j) * raw[j] * N^(j-1) * (-raw[1])^(k-j)."""
    total = raw[0]
    shift = -raw[1] if len(raw) > 1 else 0
    out = [Fraction(1)]
    for k in range(1, len(raw)):
        num = shift**k + sum(
            comb(k, j) * raw[j] * total ** (j - 1) * shift ** (k - j) for j in range(1, k + 1)
        )
        out.append(Fraction(num, total**k))
    return out


@given(
    st.dictionaries(
        st.one_of(st.integers(-30, 30), st.integers(-(10**40), 10**40)),
        st.one_of(st.integers(1, 50), st.integers(1, 10**60)),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 40),
)
def test_central_moments_from_sums_equal_the_binomial_sums(atoms, k_max):
    raw = DiscreteDist(atoms).power_sums(k_max)
    assert central_moments_from_sums(raw) == _central_moments_by_binomial_sums(raw)


def test_central_moments_from_sums_equal_the_binomial_sums_on_the_table_laws():
    from test_exactdist import TABLE_ENGINES

    for family, stat, cap, ns, _ in TABLE_ENGINES:
        for n in ns:
            raw = power_sums(FamilySpec(family, n, cap), stat, 60)
            assert central_moments_from_sums(raw) == _central_moments_by_binomial_sums(raw), (
                family, stat, cap, n,
            )
