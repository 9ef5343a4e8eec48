import hashlib
import json
from math import comb

import pytest
from scipy.stats import chi2

from coreperim import codec
from coreperim.families import (
    FAMILIES,
    FamilySpec,
    FamilyTooLargeError,
    as_vector,
    count_family,
    enumerate_family,
    member,
    sample,
    statistic_value,
    strict_suffix_counts,
)
from coreperim.rng import SplitMix64


def closed_count(spec):
    n, c = spec.n, spec.cap
    if spec.family == "core":
        return (c + 1) ** (n - 1)
    if spec.family == "strict":
        return sum(comb(n - k, k) * c**k for k in range(n // 2 + 1))
    return (2 * c + 1) ** (n // 2)


def test_counts_match_closed_forms_and_enumeration():
    for family in FAMILIES:
        for n in range(2, 9):
            for cap in range(4):
                spec = FamilySpec(family, n, cap)
                xs = list(enumerate_family(spec))
                assert count_family(spec) == closed_count(spec) == len(xs)
                assert len(set(xs)) == len(xs)
                assert xs == sorted(xs)  # lexicographic order
                assert all(member(spec, x) for x in xs)


def test_strict_counts_are_generalized_fibonacci():
    for d in (1, 2, 3):
        c = [count_family(FamilySpec("strict", n, d)) for n in range(2, 15)]
        # c_n = c_{n-1} + d*c_{n-2}; plain Fibonacci at d=1
        for i in range(2, len(c)):
            assert c[i] == c[i - 1] + d * c[i - 2]
    assert [count_family(FamilySpec("strict", n, 1)) for n in range(2, 8)] == [
        2, 3, 5, 8, 13, 21,
    ]


def test_strict_suffix_counts_head_is_total():
    for n in range(2, 10):
        for d in (1, 2, 3):
            counts = strict_suffix_counts(n, d)
            assert len(counts) == n + 1  # n-1 positions plus two sentinels
            assert counts[0] == count_family(FamilySpec("strict", n, d))
            assert counts[-2] == counts[-1] == 1


def test_member_rejects_invalid():
    spec = FamilySpec("strict", 4, 2)
    assert member(spec, (2, 0, 1))
    assert not member(spec, (1, 1, 0))  # adjacent nonzero
    assert not member(spec, (3, 0, 0))  # above cap
    assert not member(spec, (1, 0))  # wrong length
    sc = FamilySpec("selfconj", 4, 2)
    assert member(sc, (2, 0, 0, 0))
    assert not member(sc, (2, 0, 0, 1))  # coupled pair


def test_as_vector_types():
    assert isinstance(as_vector(FamilySpec("core", 4, 3), (3, 0, 1)), codec.CoreVector)
    assert isinstance(as_vector(FamilySpec("strict", 4, 3), (3, 0, 1)), codec.CoreVector)
    assert isinstance(
        as_vector(FamilySpec("selfconj", 3, 2), (1, 0, 0)), codec.DiagVector
    )


def test_statistic_value_matches_codec():
    spec = FamilySpec("core", 4, 3)
    v = codec.CoreVector(4, 3, (3, 0, 1))
    assert statistic_value(spec, "length", (3, 0, 1)) == codec.stat_length(v)
    assert statistic_value(spec, "size", (3, 0, 1)) == codec.stat_size(v)
    sc = FamilySpec("selfconj", 3, 2)
    # class 1 mod 6 with multiplicity 2 expands to diagonal hooks {1, 7}
    assert statistic_value(sc, "durfee", (2, 0, 0)) == 2
    assert statistic_value(sc, "length", (2, 0, 0)) == 2  # alias for durfee here
    assert statistic_value(sc, "power:1", (2, 0, 0)) == 8
    assert statistic_value(sc, "power:2", (2, 0, 0)) == 1 + 49
    # durfee works on cores too, through the decoded partition
    assert statistic_value(spec, "durfee", (3, 0, 1)) == 2
    with pytest.raises(ValueError):
        statistic_value(spec, "power:2", (3, 0, 1))


def test_enumeration_limit_guard():
    spec = FamilySpec("core", 12, 3)
    with pytest.raises(FamilyTooLargeError):
        list(enumerate_family(spec, limit=10))
    # limit exactly at the count is fine
    small = FamilySpec("core", 3, 1)
    assert len(list(enumerate_family(small, limit=4))) == 4


def test_splitmix_reference_stream():
    # first outputs of the standard stream from seed 0
    s = SplitMix64(0)
    assert s.next64() == 0xE220A8397B1DCDAF
    assert s.next64() == 0x6E789E6AA1B965F4
    assert s.next64() == 0x06C45D188009454F
    # bounded draws: bound 1 consumes no randomness
    a, b = SplitMix64(7), SplitMix64(7)
    assert a.below(1) == 0
    assert a.next64() == b.next64()
    with pytest.raises(ValueError):
        a.below(0)


def test_splitmix_below_is_uniformish_and_in_range():
    s = SplitMix64(123)
    draws = [s.below(6) for _ in range(6000)]
    assert set(draws) <= set(range(6))
    for v in range(6):
        assert abs(draws.count(v) - 1000) < 150


def test_sampler_deterministic_and_valid():
    for family in FAMILIES:
        spec = FamilySpec(family, 6, 2)
        first = sample(spec, seed=11, count=200)
        again = sample(spec, seed=11, count=200)
        other = sample(spec, seed=12, count=200)
        assert first == again
        assert first != other
        assert all(member(spec, x) for x in first)


# v1 stream of sample(FamilySpec(family, 10, 2), seed=7): the first three
# vectors, and the sha256 of json.dumps of the first 1000
V1_STREAMS = {
    "core": (
        [(0, 2, 2, 1, 2, 2, 1, 1, 0), (2, 0, 2, 0, 1, 0, 1, 1, 0), (1, 2, 1, 0, 0, 0, 2, 1, 0)],
        "d65739d79444f5346443fb8983021e9b9cf9776eb1f33c3772ce6203da1d1839",
    ),
    "strict": (
        [(1, 0, 0, 0, 0, 2, 0, 0, 1), (0, 1, 0, 2, 0, 1, 0, 0, 1), (0, 2, 0, 0, 0, 2, 0, 0, 0)],
        "1839286f60e42e9a2efe295e699ce9ffc0f1b5bb37b27b58d7f9e912c35ff0c9",
    ),
    "selfconj": (
        [(0, 2, 0, 2, 1, 0, 0, 1, 0, 2), (1, 1, 0, 0, 0, 0, 2, 1, 0, 0),
         (0, 0, 0, 1, 2, 0, 0, 0, 0, 0)],
        "ad5094a245906cebb3b7d910b52211555dce9a2263ee3063666458c477fdfd16",
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_sampler_v1_streams_are_pinned(family):
    head, digest = V1_STREAMS[family]
    spec = FamilySpec(family, 10, 2)
    assert sample(spec, seed=7, count=3) == head
    stream = json.dumps(sample(spec, seed=7, count=1000)).encode()
    assert hashlib.sha256(stream).hexdigest() == digest


def test_sampler_prefix_stability():
    # a longer run starts with the shorter run's draws
    spec = FamilySpec("strict", 7, 2)
    assert sample(spec, seed=3, count=50) == sample(spec, seed=3, count=80)[:50]


def test_sampler_uniform_chi_square():
    # exhaustive goodness of fit on all 43 members; reject only below 1e-6
    spec = FamilySpec("strict", 6, 2)
    members = list(enumerate_family(spec))
    assert len(members) == 43
    draws = sample(spec, seed=2024, count=100_000)
    counts = {x: 0 for x in members}
    for x in draws:
        counts[x] += 1
    expected = 100_000 / 43
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.isf(1e-6, 42)
