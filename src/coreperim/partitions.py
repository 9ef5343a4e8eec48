"""Integer partitions: Young diagrams, hook lengths, beta-sets, conjugation.

A partition is a finite non-increasing sequence of positive integers.  The
empty partition is a first-class value: empty beta-set, perimeter 0.
"""
from __future__ import annotations

from collections import namedtuple


class PartitionError(ValueError):
    """Raised when input fails to describe a valid partition."""


class Partition(namedtuple("Partition", "parts")):
    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def perimeter(self) -> int:
        # largest hook length h_11 = lambda_1 + length - 1
        if not self.parts:
            return 0
        return self.parts[0] + len(self.parts) - 1

    def __iter__(self):
        return iter(self.parts)

    def __getnewargs__(self):
        # the base class's is tuple(self), which the iteration above makes the parts
        return (self.parts,)

    def __str__(self) -> str:
        return format_partition(self)


def from_parts(parts) -> Partition:
    """Validate a part list (non-increasing, positive) and build a Partition."""
    parts = tuple(int(p) for p in parts)
    for i, p in enumerate(parts):
        if p < 1:
            raise PartitionError(f"part {p} at position {i} is not positive")
        if i > 0 and parts[i - 1] < p:
            raise PartitionError(
                f"parts must be non-increasing, got {parts[i - 1]} before {p}"
            )
    return Partition(parts)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. "6,3,2,1"; "" is empty."""
    text = text.strip()
    if not text:
        return Partition(())
    try:
        parts = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise PartitionError(f"cannot parse partition text {text!r}") from exc
    return from_parts(parts)


def format_partition(p: Partition) -> str:
    return ",".join(map(str, p.parts))


def column_heights(parts) -> list[int]:
    """Column lengths of the diagram whose rows are `parts` (non-increasing).

    Column j has c boxes exactly when lambda_{c+1} < j <= lambda_c, reading
    lambda_{l+1} as 0, so the heights come as one run per row, in
    O(lambda_1 + l).
    """
    heights: list[int] = []
    prev = 0
    for c in range(len(parts), 0, -1):
        heights += [c] * (parts[c - 1] - prev)
        prev = parts[c - 1]
    return heights


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram (rows become columns)."""
    return Partition(tuple(column_heights(p.parts)))


def hook_lengths(p: Partition) -> list[list[int]]:
    """The hook-length grid; row i has parts[i] entries.

    The hook of box (i, j) counts the box itself plus boxes to its right and
    below: lambda_i - j + (column height at j) - i - 1 in 0-based indices.
    """
    conj = column_heights(p.parts)
    grid = []
    for i, row_len in enumerate(p.parts):
        grid.append([row_len - j + conj[j] - i - 1 for j in range(row_len)])
    return grid


def beta_set(p: Partition) -> tuple[int, ...]:
    """First-column hook lengths {lambda_i + length - i}, sorted descending."""
    ell = len(p.parts)
    return tuple(part + ell - i - 1 for i, part in enumerate(p.parts))


def from_beta_set(b) -> Partition:
    """Rebuild the partition whose first-column hooks are exactly `b`.

    Sorting b descending as h_1 > ... > h_l forces lambda_i = h_i - l + i;
    rejects sets where some lambda_i would be non-positive.  Distinct hooks
    make the parts non-increasing, so only the last one needs the test.
    """
    hooks = sorted(b, reverse=True)
    ell = len(hooks)
    if len(set(hooks)) != ell:
        raise PartitionError("beta-set elements must be distinct")
    if hooks and hooks[-1] < 0:
        raise PartitionError("beta-set elements must be non-negative")
    parts = [h - ell + i for i, h in enumerate(hooks, start=1)]
    if parts and parts[-1] < 1:
        i, lam = next((i, lam) for i, lam in enumerate(parts, start=1) if lam < 1)
        raise PartitionError(
            f"not a valid first-column hook set: row {i} would get part {lam}"
        )
    return Partition(tuple(parts))


def is_s_core(p: Partition, s: int) -> bool:
    """True iff no hook length of p is divisible by s.

    Uses the beta-set criterion: closed under subtracting s.
    """
    return is_beta_core(beta_set(p), s)


def is_beta_core(beta, s: int) -> bool:
    """True iff the beta-set `beta` is closed under subtracting s (is_s_core on a built set)."""
    if s < 2:
        raise ValueError("modulus must be at least 2")
    present = set(beta)
    return all(h < s or h - s in present for h in beta)


def is_strict(p: Partition) -> bool:
    return all(a > b for a, b in zip(p.parts, p.parts[1:]))


def is_self_conjugate(p: Partition) -> bool:
    return conjugate(p) == p


def durfee_length(p: Partition) -> int:
    """Side of the largest square fitting in the diagram, max{k : lambda_k >= k}."""
    k = 0
    for i, part in enumerate(p.parts, start=1):
        if part >= i:
            k = i
        else:
            break
    return k


def main_diagonal_hooks(p: Partition) -> tuple[int, ...]:
    """Hook lengths of the boxes (i, i), sorted descending.

    For a self-conjugate partition these are distinct odd numbers and they
    determine the partition.
    """
    conj = column_heights(p.parts)
    hooks = []
    for i in range(durfee_length(p)):
        hooks.append(p.parts[i] - i + conj[i] - i - 1)
    return tuple(hooks)
