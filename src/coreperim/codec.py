"""Vector encodings of bounded-perimeter core partitions.

An n-core with perimeter at most d*n is determined by the sizes of the
residue classes of its beta-set mod n: class i (1 <= i <= n-1) is the run
{i, i+n, ..., i+(x_i-1)n}, so the partition maps to x in {0..d}^(n-1).
Strict cores land exactly on the vectors with no two adjacent nonzero
entries.  A self-conjugate n-core with perimeter at most 2*e*n similarly
maps through its main-diagonal hooks, split by odd residues 2i-1 mod 2n,
to x in {0..e}^n with x_i * x_{n+1-i} = 0.
"""
from __future__ import annotations

from collections import namedtuple

from .families import FamilySpec, resolve_stat
from .partitions import (
    Partition,
    beta_set,
    column_heights,
    durfee_length,
    from_beta_set,
    is_s_core,
    is_self_conjugate,
    main_diagonal_hooks,
)


class CodecError(ValueError):
    """Base class for encode/decode failures."""


class NotCoreError(CodecError):
    """Input partition has a hook length divisible by the modulus."""


class PerimeterError(CodecError):
    """Input partition's perimeter exceeds the allowed cap."""


class NotSelfConjugateError(CodecError):
    """Input partition is not equal to its conjugate."""


class CoreVector(namedtuple("CoreVector", "n d x")):
    __slots__ = ()

    def __new__(cls, n: int, d: int, x: tuple[int, ...]):
        if n < 2:
            raise ValueError("modulus n must be at least 2")
        if d < 0:
            raise ValueError("capacity d must be non-negative")
        if len(x) != n - 1:
            raise ValueError(f"vector must have length {n - 1}, got {len(x)}")
        if min(x) < 0 or max(x) > d:
            raise ValueError(f"entries must lie in [0, {d}]")
        return super().__new__(cls, n, d, x)

    @property
    def is_strict(self) -> bool:
        return all(a * b == 0 for a, b in zip(self.x, self.x[1:]))


class DiagVector(namedtuple("DiagVector", "n e x")):
    __slots__ = ()

    def __new__(cls, n: int, e: int, x: tuple[int, ...]):
        if n < 2:
            raise ValueError("modulus n must be at least 2")
        if e < 0:
            raise ValueError("capacity e must be non-negative")
        if len(x) != n:
            raise ValueError(f"vector must have length {n}, got {len(x)}")
        if min(x) < 0 or max(x) > e:
            raise ValueError(f"entries must lie in [0, {e}]")
        # a bad pair shows first at its left index, so half the vector suffices
        for i in range((n + 1) // 2):
            if x[i] * x[n - 1 - i] != 0:
                raise ValueError(f"entries {i + 1} and {n - i} may not both be nonzero")
        return super().__new__(cls, n, e, x)


def encode_core(p: Partition, n: int, d: int) -> CoreVector:
    """Map an n-core with perimeter <= d*n to its class-size vector."""
    if not is_s_core(p, n):
        raise NotCoreError(f"partition {p} is not a {n}-core")
    if p.perimeter > d * n:
        raise PerimeterError(f"perimeter {p.perimeter} exceeds {d}*{n} = {d * n}")
    counts = [0] * n
    for h in beta_set(p):
        counts[h % n] += 1
    assert counts[0] == 0  # hooks divisible by n would violate the core property
    return CoreVector(n, d, tuple(counts[1:]))


def decode_core(v: CoreVector) -> Partition:
    """Rebuild the partition whose beta-set classes have sizes v.x."""
    n = v.n
    return from_beta_set(
        [i + n * j for i, count in enumerate(v.x, start=1) for j in range(count)]
    )


def stat_length(v: CoreVector) -> int:
    return sum(v.x)


def stat_size(v: CoreVector) -> int:
    """Size of decode_core(v), evaluated directly on the vector.

    Uses S = (V - A^2) / 2 with A = sum(x_i) and
    V = sum(n*x_i^2 + (2i - n + 1)*x_i); V - A^2 is always even.
    """
    a = 0
    v_acc = 0
    for i, xi in enumerate(v.x, start=1):
        a += xi
        v_acc += v.n * xi * xi + (2 * i - v.n + 1) * xi
    num = v_acc - a * a
    assert num % 2 == 0
    return num // 2


def encode_selfconj(p: Partition, n: int, e: int) -> DiagVector:
    """Map a self-conjugate n-core with perimeter <= 2*e*n to its diagonal vector."""
    if not is_self_conjugate(p):
        raise NotSelfConjugateError(f"partition {p} is not self-conjugate")
    if not is_s_core(p, n):
        raise NotCoreError(f"partition {p} is not a {n}-core")
    if p.perimeter > 2 * e * n:
        raise PerimeterError(f"perimeter {p.perimeter} exceeds 2*{e}*{n} = {2 * e * n}")
    counts = [0] * n
    for h in main_diagonal_hooks(p):
        r = h % (2 * n)
        assert r % 2 == 1  # diagonal hooks of a self-conjugate partition are odd
        counts[(r - 1) // 2] += 1
    return DiagVector(n, e, tuple(counts))


def decode_selfconj(v: DiagVector) -> Partition:
    """Rebuild the self-conjugate partition with the given diagonal classes.

    The diagonal hooks h_1 > ... > h_r give the rows through the Durfee
    square, lambda_i = (h_i - 1)/2 + i; by conjugacy row j > r is column j
    of those r rows, in O(lambda_1 + r).
    """
    rows = [(h - 1) // 2 + i for i, h in enumerate(diagonal_hooks(v), start=1)]
    return Partition(tuple(rows + column_heights(rows)[len(rows):]))


def diagonal_hooks(v: DiagVector) -> tuple[int, ...]:
    """Expand the class runs {2i-1, 2n+2i-1, ...} into the diagonal hook set."""
    step = 2 * v.n
    hooks = [2 * i - 1 + step * j for i, count in enumerate(v.x, start=1) for j in range(count)]
    return tuple(sorted(hooks, reverse=True))


def stat_power_sum(v: DiagVector, k: int) -> int:
    """Sum of k-th powers of the diagonal hooks; k=0 counts them, k=1 is the size."""
    if k < 0:
        raise ValueError("power k must be non-negative")
    return sum(h**k for h in diagonal_hooks(v))


def as_vector(spec: FamilySpec, x: tuple[int, ...]):
    """A family member's tuple as the codec's vector: DiagVector for selfconj, else CoreVector."""
    if spec.family == "selfconj":
        return DiagVector(spec.n, spec.cap, x)
    return CoreVector(spec.n, spec.cap, x)


def statistic_value(spec: FamilySpec, stat, x: tuple[int, ...]) -> int:
    """Evaluate a statistic id ("length", "size", "durfee", ("power", k)) on a tuple."""
    kind, k = resolve_stat(spec.family, stat)
    v = as_vector(spec, x)
    if kind == "power":
        return stat_power_sum(v, k)
    if kind == "length":
        return stat_length(v)
    if kind == "size":
        return stat_size(v)
    return durfee_length(decode_core(v))  # durfee on core and strict
