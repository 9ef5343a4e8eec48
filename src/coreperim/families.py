"""Enumeration, counting and uniform sampling for the three vector families.

Families: "core" is {0..d}^(n-1); "strict" restricts to no two adjacent
nonzero entries; "selfconj" is {0..e}^n with x_i * x_{n+1-i} = 0.
Enumeration is lexicographic and guarded by a cardinality limit.  Sampling
is exactly uniform (big-integer suffix counts, no floating point) and fully
reproducible from (spec, seed, count); see rng.py for the stream contract.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import Iterator

from .rng import Blocks, SplitMix64, plan

FAMILIES = ("core", "strict", "selfconj")

ENUMERATION_LIMIT = 10**8


class FamilyTooLargeError(ValueError):
    """Enumeration refused: the family exceeds the cardinality limit."""


class FamilySpec(namedtuple("FamilySpec", "family n cap")):
    __slots__ = ()

    def __new__(cls, family: str, n: int, cap: int):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
        if n < 2:
            raise ValueError("modulus n must be at least 2")
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        return super().__new__(cls, family, n, cap)

    @property
    def width(self) -> int:
        # number of vector coordinates
        return self.n if self.family == "selfconj" else self.n - 1


def count_family(spec: FamilySpec) -> int:
    """Cardinality of the family: closed forms, and for strict the suffix-count recurrence."""
    n, cap = spec.n, spec.cap
    if spec.family == "core":
        return (cap + 1) ** (n - 1)
    if spec.family == "strict":
        return strict_suffix_counts(n, cap)[0]
    # selfconj: each of the floor(n/2) antipodal pairs independently takes one
    # of 2e+1 assignments; the middle coordinate of odd n is forced to zero
    return (2 * cap + 1) ** (n // 2)


def enumerate_family(spec: FamilySpec, limit: int = ENUMERATION_LIMIT) -> Iterator[tuple[int, ...]]:
    """Yield every vector of the family exactly once, in lexicographic order."""
    total = count_family(spec)
    if total > limit:
        raise FamilyTooLargeError(f"{spec} has {total} elements, limit is {limit}")
    choices, width = _choices(spec), spec.width
    stack = [0] * width

    def rec(i):
        if i == width:
            yield tuple(stack)
            return
        for v in choices(stack, i):
            stack[i] = v
            yield from rec(i + 1)

    yield from rec(0)


def _choices(spec: FamilySpec):
    """choices(prefix, i): the values coordinate i may take after prefix[:i]."""
    n, free = spec.n, range(spec.cap + 1)
    if spec.family == "core":
        return lambda prefix, i: free
    if spec.family == "strict":
        # a nonzero entry forces the next one to zero
        return lambda prefix, i: free if i == 0 or prefix[i - 1] == 0 else (0,)

    def selfconj(prefix, i):
        # x_i * x_{n+1-i} = 0, so the middle coordinate of odd n is zero
        partner = n - 1 - i
        return (0,) if partner == i or (partner < i and prefix[partner]) else free

    return selfconj


def member(spec: FamilySpec, x: tuple[int, ...]) -> bool:
    """Membership predicate for a raw tuple."""
    if len(x) != spec.width:
        return False
    choices = _choices(spec)
    return all(v in choices(x, i) for i, v in enumerate(x))


def strict_suffix_counts(n: int, d: int) -> list[int]:
    """f[i] = completions of positions i.. when position i is unconstrained.

    Recursion f[i] = f[i+1] + d*f[i+2]: either place 0, or one of d nonzero
    values which forces the next position to 0.
    """
    width = n - 1
    f = [0] * (width + 2)
    f[width] = f[width + 1] = 1
    for i in range(width - 1, -1, -1):
        f[i] = f[i + 1] + d * f[i + 2]
    return f


def sample(spec: FamilySpec, seed: int, count: int) -> list[tuple[int, ...]]:
    """Draw `count` vectors, each exactly uniform on the family.

    The output is a pure function of (spec, seed, count): coordinates are
    consumed left to right, one bounded draw per decision, from a single
    SplitMix64 stream seeded with `seed`.  The draw plans depend on the spec
    alone, so they are built once for all `count` vectors.  The words are
    drawn a block at a time (`rng.SplitMix64.draws`, `rng.Blocks`) with the
    values of the scalar `take` over `next64`; on return the state has
    advanced by exactly one increment per word drawn.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    gen, width = SplitMix64(seed), spec.width
    if spec.family == "core":
        draws = gen.draws(plan(spec.cap + 1), width * count)
        return [tuple(islice(draws, width)) for _ in range(count)]
    if spec.family == "strict":
        if spec.cap == 0:
            return [(0,) * width] * count  # a bound of 1 at every position draws no word
        f = strict_suffix_counts(spec.n, spec.cap)
        plans = [plan(bound) for bound in f[:width]]
        # before rejections: at most one draw per coordinate, each of at most plan 0's words
        words = Blocks(gen, count * width * (1 + len(plans[0][2])))
        if plans[0][2]:
            vectors = [_sample_strict(words.take, f, plans) for _ in range(count)]
        else:
            # one-word draws; every bound is at least f[width - 1] = cap + 1 >= 2
            steps = [(bound, mask, f[i + 1], f[i + 2]) for i, (bound, mask, _) in enumerate(plans)]
            vectors = [_sample_strict_words(words.next64, steps) for _ in range(count)]
        words.close()
        return vectors
    n, e = spec.n, spec.cap
    half = n // 2
    draws = gen.draws(plan(2 * e + 1), half * count)
    if 2 * e + 1 > 256:
        return [_sample_selfconj(spec, islice(draws, half)) for _ in range(count)]
    # every pair outcome fits a byte: split the outcomes into the left and the
    # right halves of the vectors by two tables (see _sample_selfconj)
    total, outcomes, rest = half * count, bytes(range(e + 1)), bytes(255 - 2 * e)
    draws = bytes(draws)
    left = draws.translate(outcomes + bytes(e) + rest)
    right = draws.translate(bytes(e + 1) + outcomes[1:] + rest)[::-1]
    middle = bytes(n % 2)
    return [tuple(left[a:a + half] + middle + right[total - a - half:total - a])
            for a in range(0, total, half)]


def _sample_strict(take, f: list[int], plans: list) -> tuple[int, ...]:
    width = len(plans)
    x = [0] * width
    i = 0
    while i < width:
        u = take(plans[i])
        if u < f[i + 1]:
            i += 1  # weight f[i+1] for placing 0
        else:
            x[i] = 1 + (u - f[i + 1]) // f[i + 2]  # d values, f[i+2] completions each
            i += 2  # the next position is forced to 0
    return tuple(x)


def _sample_strict_words(next64, steps: list) -> tuple[int, ...]:
    """`_sample_strict` where every bound is at least 2 and fits one word.

    steps[i] is (f[i], its mask, f[i+1], f[i+2]); the draw is `take`'s: the
    next word masked, redrawn while it is at least the bound.
    """
    width = len(steps)
    x = [0] * width
    i = 0
    while i < width:
        bound, mask, zero, each = steps[i]
        u = next64() & mask
        while u >= bound:
            u = next64() & mask
        if u < zero:
            i += 1
        else:
            x[i] = 1 + (u - zero) // each
            i += 2
    return tuple(x)


def _sample_selfconj(spec: FamilySpec, pairs) -> tuple[int, ...]:
    n, e = spec.n, spec.cap
    x = [0] * n
    # pair (i+1, n-i) in 1-based terms: outcome t=0 is (0,0),
    # 1..e puts t on the left, e+1..2e puts t-e on the right
    for i, t in enumerate(pairs):
        if t > e:
            x[n - 1 - i] = t - e
        elif t:
            x[i] = t
    return tuple(x)


def resolve_stat(family: str, stat) -> tuple[str, int | None]:
    """The statistic id in the form the engines read for `family`.

    On selfconj every statistic is a power sum of the diagonal hooks:
    "length" and "durfee" are ("power", 0), "size" is ("power", 1).  On
    core and strict a power sum is refused.
    """
    kind, k = normalize_stat(stat)
    if family == "selfconj":
        return "power", {"length": 0, "durfee": 0, "size": 1}.get(kind, k)
    if kind == "power":
        raise ValueError(f"statistic {stat!r} is not defined for family {family!r}")
    return kind, k


def normalize_stat(stat) -> tuple[str, int | None]:
    """Accept "length" | "size" | "durfee" | "power:k" | ("power", k)."""
    if isinstance(stat, tuple):
        kind, k = stat
    elif isinstance(stat, str) and stat.startswith("power"):
        kind, _, tail = stat.partition(":")
        k = int(tail) if tail else None
    else:
        kind, k = stat, None
    if kind not in ("length", "size", "durfee", "power"):
        raise ValueError(f"unknown statistic {stat!r}")
    if kind == "power":
        if k is None or k < 0:
            raise ValueError("power statistic needs a non-negative exponent, e.g. power:2")
        return kind, int(k)
    return kind, None


def stat_name(stat) -> str:
    """The printed name of a statistic id: "length", "size", "durfee" or "power:k"."""
    kind, k = normalize_stat(stat)
    return kind if k is None else f"power:{k}"


def oracle_distribution(spec: FamilySpec, stat, limit: int = ENUMERATION_LIMIT):
    """Exact pmf of a statistic by full enumeration; ground truth for the DP engines.

    The codec evaluates each vector; it and the pmf type are imported here,
    so that the commands that never enumerate start without them.
    """
    from .codec import statistic_value
    from .distributions import DiscreteDist

    atoms: dict[int, int] = {}
    for x in enumerate_family(spec, limit):
        value = statistic_value(spec, stat, x)
        atoms[value] = atoms.get(value, 0) + 1
    return DiscreteDist(atoms)
