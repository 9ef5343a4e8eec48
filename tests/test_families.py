import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2

from coreperim import codec, families
from coreperim.codec import as_vector, statistic_value
from coreperim.families import (
    FAMILIES,
    FamilySpec,
    FamilyTooLargeError,
    count_family,
    enumerate_family,
    member,
    sample,
    stat_name,
    strict_suffix_counts,
)
from coreperim.rng import BLOCK, Blocks, SplitMix64, plan


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


@pytest.mark.parametrize(
    "stat,name",
    [
        ("length", "length"),
        (("length", None), "length"),
        (("size", None), "size"),
        ("durfee", "durfee"),
        ("power:2", "power:2"),
        (("power", 2), "power:2"),
        (("power", 0), "power:0"),
    ],
)
def test_stat_name(stat, name):
    assert stat_name(stat) == name


def test_stat_name_refuses_what_normalize_stat_refuses():
    for bad in ("width", "power", ("power", None), ("power", -1)):
        with pytest.raises(ValueError):
            stat_name(bad)


def test_every_report_prints_the_stat_name():
    from coreperim.diagnostics import concentration_check
    from coreperim.exactdist import moment_report
    from coreperim.gaussref import rate_table

    assert moment_report(FamilySpec("selfconj", 6, 2), ("power", 2), 4).stat == "power:2"
    assert moment_report(FamilySpec("core", 5, 2), ("length", None), 4).stat == "length"
    assert rate_table("core", ("length", None), 2, [5])[0].stat == "length"
    assert rate_table("selfconj", ("power", 3), 1, [6])[0].stat == "power:3"
    assert concentration_check("core", ("length", None), 5, 2, [1]).stat == "length"
    assert concentration_check("strict", ("size", None), 6, 2, [1]).stat == "size"


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


GAMMA_INV = pow(0x9E3779B97F4A7C15, -1, 2**64)


def words_drawn(gen, seed):
    """Words a generator has drawn since `seed`, read off its state's advance."""
    return ((gen._state - seed) * GAMMA_INV) % 2**64


# v1 bounded draws from seed 7: the first four values of below(bound) and the
# words they consumed, generated with the per-call `below` of the v1 code.
# One word, rejection near 2^63 and 2^64, two words past 2^64, three past 2^128.
BELOW_V1 = {
    1: ([0, 0, 0, 0], 0),
    2: ([1, 0, 0, 1], 4),
    3: ([0, 2, 2, 1], 6),
    5: ([4, 2, 3, 2], 5),
    2**63 + 1: (
        [7191089600892374487, 309689372594955804, 8346079845500723674, 4601199455465548305], 6),
    2**64 - 1: (
        [7191089600892374487, 309689372594955804, 16616101746815609346, 10753165928301472203], 4),
    2**64: (
        [7191089600892374487, 309689372594955804, 16616101746815609346, 10753165928301472203], 4),
    2**64 + 1: (
        [7191089600892374487, 8632209307422871798, 1910343844960271083, 16934472341843718990], 14),
    2**128 + 1: (
        [5712760598606830209107816297069153751, 35239624000768399090731868486161224553,
         296498833624245209956793284860221698894, 326783027902070398281045362337783598640],
        27,
    ),
}


@pytest.mark.parametrize("bound", list(BELOW_V1))
def test_below_v1_draws_are_pinned(bound):
    values, words = BELOW_V1[bound]
    gen = SplitMix64(7)
    assert [gen.below(bound) for _ in range(4)] == values
    assert words_drawn(gen, 7) == words
    # one plan taken four times is the same stream
    again, cell = SplitMix64(7), plan(bound)
    assert [again.take(cell) for _ in range(4)] == values
    assert again._state == gen._state


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


# v1 streams at the edges of the bounded draw, seed 7, generated before
# `draws` existed: strict n=100 d=2 has
# f[0] > 2^64 (two-word draws), core d=4 has bound 5 (rejection of 5..7),
# selfconj e=3 has bound 7.  The first three vectors as digit strings, and
# the sha256 of json.dumps of the first 500.
V1_EDGE_STREAMS = {
    ("strict", 100, 2): (
        [
            "1001010020200102001020100001002000010000001000101000002020010202002000"
            "10202001002001020002020200101",
            "0002020200100202020020010002000100201001001000000101020010102002000102"
            "00100010202020202010200101020",
            "0000020001001010020000000020020202020101010020020101010201000002010010"
            "00100010020010202001010200010",
        ],
        "d68c3d01b9e9a2935ba69524b5e4d221a51ce71fb5bdd53313d7a071897addf1",
    ),
    ("core", 12, 4): (
        ["42321113400", "00120402130", "31104202223"],
        "c432f07f487a315a6800483be778542faba353ec7eada9ab4a6ece527f4217ce",
    ),
    ("selfconj", 12, 3): (
        ["023210300001", "011300310003", "000000202030"],
        "e408fc9575dd713385c4fe77dfcb038a90206da896471e18e814f626604809bf",
    ),
}


@pytest.mark.parametrize("key", list(V1_EDGE_STREAMS), ids=lambda k: "-".join(map(str, k)))
def test_sampler_v1_edge_streams_are_pinned(key):
    head, digest = V1_EDGE_STREAMS[key]
    spec = FamilySpec(*key)
    assert ["".join(map(str, x)) for x in sample(spec, seed=7, count=3)] == head
    stream = json.dumps(sample(spec, seed=7, count=500)).encode()
    assert hashlib.sha256(stream).hexdigest() == digest


# v1 strict streams at the ends of the per-position plans, seed 7, generated
# with the per-call `below` of the v1 code: n=400 d=2 has suffix counts of up
# to 400 bits (seven-word draws), and d=0 a bound of 1 at every position, so
# no word is drawn.  The vector count, the sha256 of json.dumps of the vectors,
# and the words consumed.
V1_PLAN_STREAMS = {
    ("strict", 400, 2): (100, "23d855bb20ada54f7e355ea230f455297b3085ddf69c9a3635ded7ec5b4f75c4", 146250),
    ("strict", 30, 0): (20, "2740310b450d28cbba4064a5a6632335e89f5d5a16aefa52ea29089b48eec7b7", 0),
}


@pytest.mark.parametrize("key", list(V1_PLAN_STREAMS), ids=lambda k: "-".join(map(str, k)))
def test_sampler_v1_plan_streams_are_pinned(monkeypatch, key):
    count, digest, words = V1_PLAN_STREAMS[key]
    made = []

    class Kept(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(families, "SplitMix64", Kept)
    stream = json.dumps(sample(FamilySpec(*key), seed=7, count=count)).encode()
    assert hashlib.sha256(stream).hexdigest() == digest
    (gen,) = made
    assert words_drawn(gen, 7) == words


def reference_sample(spec, seed, count):
    """The per-call v1 sampler, frozen: one `take` over `next64` per decision.

    Returns the vectors and the number of `next64` calls they took.
    """
    gen, calls = SplitMix64(seed), 0
    plain = gen.next64

    def next64():
        nonlocal calls
        calls += 1
        return plain()

    gen.next64 = next64  # `take` reads the word source off the instance
    take = gen.take
    if spec.family == "core":
        cell = plan(spec.cap + 1)
        return [tuple(take(cell) for _ in range(spec.width)) for _ in range(count)], calls
    if spec.family == "strict":
        f = strict_suffix_counts(spec.n, spec.cap)
        vectors = []
        for _ in range(count):
            x, i = [0] * spec.width, 0
            while i < spec.width:
                u = take(plan(f[i]))
                if u < f[i + 1]:
                    i += 1
                else:
                    x[i] = 1 + (u - f[i + 1]) // f[i + 2]
                    i += 2
            vectors.append(tuple(x))
        return vectors, calls
    n, e, vectors = spec.n, spec.cap, []
    for _ in range(count):
        x = [0] * n
        for i in range(n // 2):
            t = take(plan(2 * e + 1))
            if t > e:
                x[n - 1 - i] = t - e
            elif t:
                x[i] = t
        vectors.append(tuple(x))
    return vectors, calls


# specs on both sides of the samplers' fast paths: selfconj with 2e + 1 = 255
# and 257 pair outcomes (byte tables or not), and strict at the last n whose
# suffix counts fit one word (the word loop) and the first n past it (`take`)
PATH_EDGE_SPECS = (("selfconj", 12, 127), ("selfconj", 13, 128),
                   *(("strict", n, d) for d, last in ((1, 92), (2, 64), (3, 53))
                     for n in (last, last + 1)))


@pytest.mark.parametrize("key", [*V1_EDGE_STREAMS, *V1_PLAN_STREAMS, *PATH_EDGE_SPECS],
                         ids=lambda k: "-".join(map(str, k)))
def test_sample_equals_the_per_call_reference(monkeypatch, key):
    # the block draws give the per-call sampler's vectors, and the state's
    # advance counts exactly the words that sampler drew
    count = V1_PLAN_STREAMS[key][0] if key in V1_PLAN_STREAMS else 50
    made = []

    class Kept(SplitMix64):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(families, "SplitMix64", Kept)
    spec = FamilySpec(*key)
    expected, calls = reference_sample(spec, 7, count)
    assert sample(spec, seed=7, count=count) == expected
    (gen,) = made
    assert words_drawn(gen, 7) == calls


EDGE_SEEDS = (0, 2**64 - 1, -12345)
EDGE_COUNTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1)


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(-(2**70), 2**70),
       count=st.sampled_from(EDGE_COUNTS) | st.integers(0, 3 * BLOCK))
def test_words_equal_next64_calls(seed, count):
    gen, ref = SplitMix64(seed), SplitMix64(seed)
    assert gen.words(count) == [ref.next64() for _ in range(count)]
    assert gen._state == ref._state
    assert gen.next64() == ref.next64()


# every edge pair runs, whatever Hypothesis draws
for _seed, _count in product(EDGE_SEEDS, EDGE_COUNTS):
    test_words_equal_next64_calls = example(seed=_seed, count=_count)(
        test_words_equal_next64_calls)


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 2**63, 2**64, 2**64 + 1, 10**30])
def test_block_draws_equal_repeated_takes(bound):
    cell = plan(bound)
    for count in (0, 1, 2 * BLOCK + 3):
        ref = SplitMix64(7)
        expected = [ref.take(cell) for _ in range(count)]
        gen = SplitMix64(7)
        assert list(gen.draws(cell, count)) == expected
        assert gen._state == ref._state
        # a one-word first block, so the draws cross many block ends
        gen = SplitMix64(7)
        words = Blocks(gen, 1)
        assert [words.take(cell) for _ in range(count)] == expected
        words.close()
        assert gen._state == ref._state
    # plans may change from draw to draw
    ref, gen = SplitMix64(3), SplitMix64(3)
    words = Blocks(gen, 5)
    mixed = [plan(b) for b in (bound, 3, 2**64 + 1, 1) * 500]
    assert [words.take(p) for p in mixed] == [ref.take(p) for p in mixed]
    words.close()
    assert gen._state == ref._state


def sample_cli_digest(family, decode,
                      grid=((2, 3, 50), (0, 1, 2, 3, 2**64), (0, 7), (0, 1, 4097))):
    """sha256 of exit codes and stdout of CLI `sample` over a grid of n, caps, seeds and counts."""
    from coreperim.cli import main

    flag = "--e" if family == "selfconj" else "--d"
    digest = hashlib.sha256()
    for n, cap, seed, count in product(*grid):
        if decode and cap == 2**64:
            continue  # --decode refuses a cap wider than RANGE_LIMIT
        argv = ["sample", "--family", family, flag, str(cap), "--n", str(n),
                "--seed", str(seed), "--count", str(count)] + ["--decode"] * decode
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        digest.update(f"{code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


# sample_cli_digest of the per-call sampler (the code before block draws)
SAMPLE_CLI_SHA256 = {
    ("core", False): "96f4095ab805664454833cf762c3d1ab202fc7024f1261bddf9c3dfa5f5e68a6",
    ("core", True): "f561766f1fdfe3e3f18e139b230433ced35dd68261b6d37a4148beb549d18bf1",
    ("strict", False): "5c845be2c70a89b49d949ad30b99f76d5b96ef8dfae1ad6033dda13a4b910e56",
    ("strict", True): "ffe9dfa32ba70ded7e4b40cd68344595752c990ebad8e8325a55d8158049c8de",
    ("selfconj", False): "8d70a1a7a714da1ec41b037e3c5fec112dc0806c68d690972b53b10089d2d828",
    ("selfconj", True): "029f8208a9be946939d0c81c1ff5b5f016fe6de325694703d7b5faeb60c86daa",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_sample_cli_bytes_are_pinned(family):
    assert sample_cli_digest(family, False) == SAMPLE_CLI_SHA256[family, False]
    assert sample_cli_digest(family, True) == SAMPLE_CLI_SHA256[family, True]


# the caps where the CLI's byte forms change: one digit, one byte, one translate table
SAMPLE_CLI_EDGE_GRID = ((3, 11), (9, 10, 127, 128, 255, 256), (0, 7), (300,))


# sample_cli_digest over SAMPLE_CLI_EDGE_GRID, of the code before the level-walk decoders
SAMPLE_CLI_EDGE_SHA256 = {
    ("core", False): "b9f28552d73b02a84bca42c3fc19fff3021f9939d8680776059ff7fb117f3470",
    ("core", True): "02cfd6ef075f9ae89f4addd3087bb33e2cad874042a5ef6a4c5fbfcf337757bc",
    ("strict", False): "0de7a855c636ff71d0ab3a05c9a7f71919a210bc3bcd62aa9f5234934d65d1a6",
    ("strict", True): "1d6c473bceebcb735d33d5b808f034c3284be539e6c281e8324268ca415e4108",
    ("selfconj", False): "6b30b2db26c823737b1fa4ba891f5f400f49467d9d986ad70ee1d365b978cca6",
    ("selfconj", True): "b07b828cec201ebd992369ebf5ac40d4dc43be2174d036c4e25b838f587353fb",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_sample_cli_bytes_are_pinned_at_the_byte_edges(family):
    for decode in (False, True):
        digest = sample_cli_digest(family, decode, SAMPLE_CLI_EDGE_GRID)
        assert digest == SAMPLE_CLI_EDGE_SHA256[family, decode]


def test_import_builds_no_packing_constant():
    script = ("import coreperim.cli\nfrom coreperim import rng\n"
              "print(rng._packing.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout == "0\n", proc.stderr


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
