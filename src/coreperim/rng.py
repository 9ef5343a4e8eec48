"""Deterministic pseudo-random stream for the samplers.

The generator is SplitMix64 (Steele, Lea, Flood 2014; Vigna's reference
constants), fixed here as stream contract v1 so that the same (seed, draw
sequence) reproduces bit-identically on any platform or language:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z := ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output z XOR (z >> 31)

Bounded draws use rejection below the bound's bit length: draw
ceil(k/64) words (first word is least significant), mask to the low k
bits, reject and redraw while the value is >= bound.  A bound of 1
consumes nothing.

The rule is written once.  `plan(bound)` works out (bound, mask, word
shifts) for a bound, and `SplitMix64.take(plan)` runs the rejection loop;
`below(bound)` is `take(plan(bound))`, so a caller that draws under the
same bound many times builds its plan once and changes nothing in the
stream.  Every word comes from one `next64` call: the number of words drawn
is both the number of those calls and the state's advance times the
inverse of the increment mod 2^64.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def take(self, plan: tuple[int, int, tuple[int, ...]]) -> int:
        """Exactly uniform integer in [0, bound) under a plan from `plan(bound)`."""
        bound, mask, shifts = plan
        if bound == 1:
            return 0
        nxt = self.next64
        while True:
            r = nxt()
            for shift in shifts:
                r |= nxt() << shift
            r &= mask
            if r < bound:
                return r

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound); bound may exceed 2^64."""
        return self.take(plan(bound))


def plan(bound: int) -> tuple[int, int, tuple[int, ...]]:
    """(bound, mask, word shifts) for draws below `bound`.

    The mask keeps the low k = bit_length(bound - 1) bits; the shifts place
    the second and later words of a draw wider than 64 bits.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    return bound, (1 << k) - 1, tuple(range(64, k, 64))
