"""Exact integer-valued distributions with big-integer weights.

A DiscreteDist stores {value -> weight} with all weights positive integers;
probabilities are the exact rationals weight/total.  Everything downstream
(moments, table reproduction, distances) starts from this representation,
so floating point enters only at final divisions.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import isqrt


class DiscreteDist:
    def __init__(self, atoms: dict[int, int]):
        # atoms from outside the lane folds: validated, cleaned and sorted
        cleaned = {}
        for value, weight in atoms.items():
            if not isinstance(value, int):
                raise ValueError(f"value {value!r} is not an integer")
            if not isinstance(weight, int):
                raise ValueError(f"weight {weight!r} at {value!r} is not an integer")
            if weight < 0:
                raise ValueError(f"negative weight {weight} at {value}")
            if weight > 0:
                cleaned[int(value)] = int(weight)
        if not cleaned:
            raise ValueError("distribution needs at least one atom")
        self._atoms = dict(sorted(cleaned.items()))
        self.total = sum(self._atoms.values())

    @classmethod
    def from_lanes(cls, weights: list[int]) -> DiscreteDist:
        """Weight weights[v] at each value v >= 0 where it is not 0: a lane fold's
        counts, nonnegative ints in value order, taken with no check or copy."""
        dist = cls.__new__(cls)
        dist._atoms = dict(zip(compress(count(), weights), filter(None, weights)))
        dist.total = sum(weights)
        return dist

    @property
    def atoms(self) -> dict[int, int]:
        return dict(self._atoms)

    def items(self):
        """(value, weight) pairs in increasing value order: a read-only view, not a copy."""
        return self._atoms.items()

    def support(self):
        return list(self._atoms)

    def probability(self, value: int) -> Fraction:
        return Fraction(self._atoms.get(value, 0), self.total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDist):
            return NotImplemented
        # compare exact probabilities, not raw weights
        if self._atoms.keys() != other._atoms.keys():
            return False
        return all(
            w * other.total == other._atoms[v] * self.total
            for v, w in self._atoms.items()
        )

    def __repr__(self) -> str:
        if len(self._atoms) > 6:
            vals = self.support()
            return f"DiscreteDist({len(self._atoms)} atoms on [{vals[0]}, {vals[-1]}], total={self.total})"
        return f"DiscreteDist({self._atoms}, total={self.total})"

    def mean(self) -> Fraction:
        return Fraction(sum(v * w for v, w in self._atoms.items()), self.total)

    def central_moment(self, k: int) -> Fraction:
        return self.central_moments(k)[k]

    def power_sums(self, k_max: int) -> list[int]:
        """[sum w*v^0 .. sum w*v^k_max], pure-integer accumulations."""
        raw = [0] * (k_max + 1)
        for v, w in self._atoms.items():
            raw[0] += w
            for k in range(1, k_max + 1):
                w *= v
                raw[k] += w
        return raw

    def central_moments(self, k_max: int) -> list[Fraction]:
        """[mu_0 .. mu_k_max], exact."""
        return central_moments_from_sums(self.power_sums(k_max))

    def variance(self) -> Fraction:
        return self.central_moment(2)

    def cdf_steps(self):
        """(value, F(value-), F(value)) with exact rational levels."""
        acc = 0
        steps = []
        for v, w in self._atoms.items():
            before = Fraction(acc, self.total)
            acc += w
            steps.append((v, before, Fraction(acc, self.total)))
        return steps


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Distribution of the sum of independent draws; totals multiply."""
    out: dict[int, int] = {}
    for va, wa in a.items():
        for vb, wb in b.items():
            key = va + vb
            out[key] = out.get(key, 0) + wa * wb
    return DiscreteDist(out)


def central_moments_from_sums(raw: list[int]) -> list[Fraction]:
    """Exact central moments [mu_0 .. mu_K] from integer power sums.

    raw[j] = sum w*v^j with raw[0] = N the total weight.  One Pascal triangle
    in integers makes the shift: row 0 is T[0][j] = raw[j] * N^j, and row i
    T[i][j] = T[i-1][j+1] + h * T[i-1][j] = sum w * (N*v)^j * (N*v + h)^i with
    h = -raw[1], so mu_k = T[k][0] / N^(k+1).  Each step multiplies by h
    alone, and one Fraction is built per order.
    """
    total, h = raw[0], -raw[1] if len(raw) > 1 else 0
    row, out = [r * total**j for j, r in enumerate(raw)], []
    for k in range(len(raw)):
        out.append(Fraction(row[0], total ** (k + 1)))
        row = [a + h * b for a, b in zip(row[1:], row)]
    return out


def round_half_away(sign: int, square: Fraction, digits: int = 3) -> str:
    """Round sign*sqrt(square) to `digits` decimals, halves away from zero.

    Exact integer arithmetic: with r = square * 10^(2*digits) = a/b, the
    magnitude is m0 = floor(sqrt(a/b)), bumped when a/b >= (m0 + 1/2)^2.
    """
    scaled = square * Fraction(10 ** (2 * digits))
    a, b = scaled.numerator, scaled.denominator
    m0 = isqrt(a * b) // b
    if 4 * a >= b * (2 * m0 + 1) ** 2:
        m0 += 1
    whole, frac = divmod(m0, 10**digits)
    prefix = "-" if sign < 0 and m0 > 0 else ""
    return f"{prefix}{whole}.{frac:0{digits}d}"
