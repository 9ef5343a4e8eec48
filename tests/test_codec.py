import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coreperim.codec import (
    CodecError,
    CoreVector,
    DiagVector,
    NotCoreError,
    NotSelfConjugateError,
    PerimeterError,
    as_vector,
    decode_core,
    decode_selfconj,
    diagonal_hooks,
    encode_core,
    encode_selfconj,
    stat_length,
    stat_power_sum,
    stat_size,
)
from coreperim.families import FAMILIES, FamilySpec, enumerate_family
from coreperim.partitions import (
    Partition,
    column_heights,
    conjugate,
    from_beta_set,
    from_parts,
    is_s_core,
    is_self_conjugate,
    is_strict,
    main_diagonal_hooks,
)


def all_core_vectors(n, d):
    return [CoreVector(n, d, x) for x in product(range(d + 1), repeat=n - 1)]


def all_diag_vectors(n, e):
    out = []
    for x in product(range(e + 1), repeat=n):
        if all(x[i] * x[n - 1 - i] == 0 for i in range(n)):
            out.append(DiagVector(n, e, x))
    return out


def test_worked_example():
    v = CoreVector(n=4, d=3, x=(3, 0, 1))
    p = decode_core(v)
    assert p == from_parts((6, 3, 2, 1))
    assert stat_length(v) == 4 == p.length
    assert stat_size(v) == 12 == p.size
    assert sorted(h % 4 for h in (9, 5, 3, 1)) == [1, 1, 1, 3]
    assert is_s_core(p, 4) and is_s_core(p, 6) and is_s_core(p, 11)
    assert encode_core(p, 4, 3) == v


def test_vector_validation():
    with pytest.raises(ValueError):
        CoreVector(1, 2, ())
    with pytest.raises(ValueError):
        CoreVector(4, 2, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        CoreVector(4, 2, (3, 0, 0))  # entry above cap
    with pytest.raises(ValueError):
        DiagVector(4, 2, (1, 0, 0, 2))  # coupled pair both nonzero
    with pytest.raises(ValueError):
        DiagVector(3, 2, (0, 0))
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 2\]"):
        CoreVector(4, 2, (0, -1, 0))
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 2\]"):
        DiagVector(4, 2, (0, 3, 0, 0))
    # the first bad pair is named by its left index; odd n forces the middle to 0
    with pytest.raises(ValueError, match="entries 2 and 5 may not"):
        DiagVector(6, 2, (0, 1, 0, 0, 2, 1))
    with pytest.raises(ValueError, match="entries 3 and 3 may not"):
        DiagVector(5, 2, (0, 0, 1, 0, 0))


def test_encode_error_kinds():
    p = from_parts((6, 3, 2, 1))  # perimeter 9
    with pytest.raises(NotCoreError):
        encode_core(p, 5, 3)
    with pytest.raises(PerimeterError):
        encode_core(p, 4, 2)
    with pytest.raises(NotSelfConjugateError):
        encode_selfconj(p, 4, 3)
    with pytest.raises(NotCoreError):  # self-conjugate, with the hook 3
        encode_selfconj(from_parts((2, 1)), 3, 1)
    sc = from_parts((4, 2, 1, 1))  # self-conjugate 3-core, perimeter 7
    with pytest.raises(PerimeterError):
        encode_selfconj(sc, 3, 1)
    # diagonal hooks 7 and 1 share the odd residue class 1 mod 6
    assert encode_selfconj(sc, 3, 2).x == (2, 0, 0)
    # error kinds share a catchable base
    assert issubclass(NotCoreError, CodecError)
    assert issubclass(PerimeterError, CodecError)
    assert issubclass(NotSelfConjugateError, CodecError)
    assert issubclass(CodecError, ValueError)


def test_core_round_trip_exhaustive():
    for n in range(2, 9):
        for d in range(4):
            seen = set()
            for v in all_core_vectors(n, d):
                p = decode_core(v)
                assert is_s_core(p, n)
                assert p.perimeter <= d * n
                assert encode_core(p, n, d) == v
                seen.add(p.parts)
            # distinct vectors hit distinct partitions
            assert len(seen) == (d + 1) ** (n - 1)


def test_selfconj_round_trip_exhaustive():
    for n in range(2, 8):
        for e in range(4):
            vecs = all_diag_vectors(n, e)
            # odd n: the middle entry couples with itself, so it is forced to 0
            assert len(vecs) == (2 * e + 1) ** (n // 2)
            seen = set()
            for v in vecs:
                p = decode_selfconj(v)
                assert is_self_conjugate(p)
                assert is_s_core(p, n)
                assert p.perimeter <= 2 * e * n
                assert encode_selfconj(p, n, e) == v
                seen.add(p.parts)
            assert len(seen) == len(vecs)


def quadratic_selfconj_parts(v):
    """The O(lambda_1 * r) construction decode_selfconj replaced, kept as an oracle."""
    hooks = sorted(diagonal_hooks(v), reverse=True)
    parts = [(h - 1) // 2 + i + 1 for i, h in enumerate(hooks)]
    r = len(parts)
    if parts:
        for j in range(r + 1, parts[0] + 1):
            parts.append(sum(1 for lam in parts[:r] if lam >= j))
    return tuple(parts)


def test_selfconj_decoder_matches_quadratic_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        n, e = rng.randint(2, 60), rng.randint(0, 3)
        x = [0] * n
        for i in range(n // 2):
            t = rng.randint(-e, e)
            if t > 0:
                x[i] = t
            elif t < 0:
                x[n - 1 - i] = -t
        v = DiagVector(n, e, tuple(x))
        p = decode_selfconj(v)
        assert p.parts == quadratic_selfconj_parts(v)
        assert is_self_conjugate(p)
        assert encode_selfconj(p, n, e) == v


def test_core_stats_match_decoded_partition():
    for n in range(2, 8):
        for d in range(4):
            for v in all_core_vectors(n, d):
                p = decode_core(v)
                assert stat_length(v) == p.length
                assert stat_size(v) == p.size


def test_selfconj_stats_match_decoded_partition():
    for n in range(2, 8):
        for e in range(3):
            for v in all_diag_vectors(n, e):
                p = decode_selfconj(v)
                hooks = main_diagonal_hooks(p)
                assert diagonal_hooks(v) == hooks
                assert stat_power_sum(v, 0) == len(hooks)
                assert stat_power_sum(v, 1) == p.size
                for k in (2, 3):
                    assert stat_power_sum(v, k) == sum(h**k for h in hooks)
    with pytest.raises(ValueError):
        stat_power_sum(DiagVector(3, 1, (1, 0, 0)), -1)


def test_strictness_matches_no_adjacent_nonzero():
    for n in range(2, 8):
        for d in range(4):
            for v in all_core_vectors(n, d):
                assert v.is_strict == is_strict(decode_core(v))


def test_decoded_selfconj_really_conjugate_fixed():
    for v in all_diag_vectors(6, 2):
        p = decode_selfconj(v)
        assert conjugate(p) == p


# The decoders before the level walk, frozen as oracles: list the beta set
# class by class, then sort it (`from_beta_set` sorts and checks).
def frozen_decode_core(v):
    n = v.n
    return from_beta_set([i + n * j for i, count in enumerate(v.x, start=1) for j in range(count)])


def frozen_diagonal_hooks(v):
    step = 2 * v.n
    hooks = [2 * i - 1 + step * j for i, count in enumerate(v.x, start=1) for j in range(count)]
    return tuple(sorted(hooks, reverse=True))


def frozen_decode_selfconj(v):
    rows = [(h - 1) // 2 + i for i, h in enumerate(frozen_diagonal_hooks(v), start=1)]
    return Partition(tuple(rows + column_heights(rows)[len(rows):]))


def assert_decoders_agree(v):
    if isinstance(v, DiagVector):
        p, q = decode_selfconj(v), frozen_decode_selfconj(v)
        assert diagonal_hooks(v) == frozen_diagonal_hooks(v)
        assert encode_selfconj(p, v.n, v.e) == v
    else:
        p, q = decode_core(v), frozen_decode_core(v)
        assert encode_core(p, v.n, v.d) == v
    assert p == q and type(p.parts) is tuple
    assert str(p) == str(q)


def test_decoders_equal_the_sorting_oracles_on_every_member():
    for family in FAMILIES:
        for n in range(2, 8):
            for cap in range(4):
                spec = FamilySpec(family, n, cap)
                for x in enumerate_family(spec):
                    assert_decoders_agree(as_vector(spec, x))


# the caps on both sides of every byte form: one digit, one byte, a translate table
EDGE_CAPS = (0, 1, 9, 10, 127, 128, 255, 256, 300)


@st.composite
def edge_vectors(draw):
    family = draw(st.sampled_from(FAMILIES))
    n, cap = draw(st.integers(2, 60)), draw(st.sampled_from(EDGE_CAPS))
    spec = FamilySpec(family, n, cap)
    x = draw(st.lists(st.integers(0, cap), min_size=spec.width, max_size=spec.width))
    if family == "strict":
        x = [0 if i and x[i - 1] else v for i, v in enumerate(x)]
    elif family == "selfconj":
        # the right entry of a pair, and the middle of odd n, yield to the left
        x = [0 if i >= n - 1 - i and x[n - 1 - i] else v for i, v in enumerate(x)]
    # half the draws reach the cap, so max(x) sits on the edge itself
    if draw(st.booleans()):
        i = draw(st.integers(0, spec.width - 1)) if family != "selfconj" else 0
        x[i] = cap
        if family == "strict":
            for j in (i - 1, i + 1):
                if 0 <= j < len(x):
                    x[j] = 0
        elif family == "selfconj":
            x[n - 1] = 0
    return as_vector(spec, tuple(x))


@settings(max_examples=150, deadline=None)
@given(v=edge_vectors())
def test_decoders_equal_the_sorting_oracles_at_the_byte_edges(v):
    assert_decoders_agree(v)
