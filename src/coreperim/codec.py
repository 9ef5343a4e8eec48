"""Vector encodings of bounded-perimeter core partitions.

An n-core with perimeter at most d*n is determined by the sizes of the
residue classes of its beta-set mod n: class i (1 <= i <= n-1) is the run
{i, i+n, ..., i+(x_i-1)n}, so the partition maps to x in {0..d}^(n-1).
Strict cores land exactly on the vectors with no two adjacent nonzero
entries.  A self-conjugate n-core with perimeter at most 2*e*n similarly
maps through its main-diagonal hooks, split by odd residues 2i-1 mod 2n,
to x in {0..e}^n with x_i * x_{n+1-i} = 0.

Both decoders read one level walk (`_hooks`) that emits the hooks already
in descending order.  Class i's run at level j is i + n*j (core) or
2i-1 + 2n*j (self-conjugate), and the class offsets lie strictly between
0 and the stride, so value order is (j, i) order: walking j down from
max(x) - 1 and, on each level, i down over the classes whose run reaches
that level (x_i > j) gives h_1 > h_2 > ... > h_l without a sort.  The hooks
are distinct and the smallest is at least 1, so lambda_k = h_k - (l - k)
is a partition with no check; `partitions.from_beta_set`, which sorts and
checks, stays for beta sets from elsewhere.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import compress, count, repeat
from operator import add, gt, mul, sub

from .families import FamilySpec, resolve_stat
from .partitions import (
    Partition,
    beta_set,
    column_heights,
    durfee_length,
    is_beta_core,
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
        if any(map(mul, x, reversed(x))):
            # a bad pair shows first at its left index, so half the vector suffices
            for i in range((n + 1) // 2):
                if x[i] * x[n - 1 - i] != 0:
                    raise ValueError(f"entries {i + 1} and {n - i} may not both be nonzero")
        return super().__new__(cls, n, e, x)


def encode_core(p: Partition, n: int, d: int) -> CoreVector:
    """Map an n-core with perimeter <= d*n to its class-size vector."""
    beta = beta_set(p)
    if not is_beta_core(beta, n):
        raise NotCoreError(f"partition {p} is not a {n}-core")
    if p.perimeter > d * n:
        raise PerimeterError(f"perimeter {p.perimeter} exceeds {d}*{n} = {d * n}")
    counts = [0] * n
    for h in beta:
        counts[h % n] += 1
    assert counts[0] == 0  # hooks divisible by n would violate the core property
    return CoreVector(n, d, tuple(counts[1:]))


def decode_core(v: CoreVector) -> Partition:
    """Rebuild the partition whose beta-set classes have sizes v.x: lambda_k = h_k - (l - k)."""
    hooks = _hooks(v.x, 1, v.n)
    return Partition(tuple(map(sub, hooks, range(len(hooks) - 1, -1, -1))))


def _hooks(x: tuple[int, ...], step: int, stride: int) -> list[int]:
    """The set {step*(i-1) + 1 + stride*j : 1 <= i <= len(x), 0 <= j < x_i}, descending.

    Needs step*(len(x)-1) + 1 <= stride, so that level j's values lie in
    (stride*j, stride*(j+1)] (module docstring).  The levels between two
    consecutive distinct entries of x, a band, share one class set, so a
    band is one `compress` over its levels' values, descending, masked by
    x_i > j per class, padded with zeros to the level's stride/step values,
    and repeated once per level.  The class mask is a bytes `translate` of
    the reversed vector while its entries fit a byte.
    """
    width = len(x)
    first, pad = step * width - step + 1, bytes(stride // step - width)
    levels = sorted({0, *x}, reverse=True)
    if levels[0] < 256:
        masks = map((bytes(x[::-1]) + pad).translate, map(_above, levels[1:]))
    else:
        rev = [*x[::-1], *pad]
        masks = (bytes(map(gt, rev, repeat(lo))) for lo in levels[1:])
    hooks, hi = [], levels[0]
    for lo, mask in zip(levels[1:], masks):
        hooks += compress(range(first + stride * (hi - 1), stride * lo, -step), mask * (hi - lo))
        hi = lo
    return hooks


@cache
def _above(lo: int) -> bytes:
    """The `bytes.translate` table of v > lo, built on first use."""
    return bytes(lo + 1) + b"\1" * (255 - lo)


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
    # the walk at step 1 and stride n gives (h_k + 1)/2 = i + n*j in the same order
    rows = list(map(add, _hooks(v.x, 1, v.n), count()))
    return Partition(tuple(rows + column_heights(rows)[len(rows):]))


def diagonal_hooks(v: DiagVector) -> tuple[int, ...]:
    """The class runs {2i-1, 2n+2i-1, ...} as one descending diagonal hook set."""
    return tuple(_hooks(v.x, 2, 2 * v.n))


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
