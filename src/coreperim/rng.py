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

`draws(bound, count)` is part of the same contract: it returns exactly
`[below(bound) for _ in range(count)]` and leaves the generator in the same
state, so a caller may batch its draws without changing the stream.  Every
word comes from one `next64` call: the number of words drawn is both the
number of those calls and the state's advance times the inverse of the
increment mod 2^64.
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

    def below(self, bound: int) -> int:
        """Exactly uniform integer in [0, bound); bound may exceed 2^64."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        words = (k + 63) // 64
        mask = (1 << k) - 1
        while True:
            r = 0
            for j in range(words):
                r |= self.next64() << (64 * j)
            r &= mask
            if r < bound:
                return r

    def draws(self, bound: int, count: int) -> list[int]:
        """`count` draws of below(bound): the same values, the same words consumed.

        The mask and word shifts are worked out once for the batch; every
        word still comes from next64.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if count < 0:
            raise ValueError("count must be non-negative")
        if bound == 1:
            return [0] * count
        k = (bound - 1).bit_length()
        mask = (1 << k) - 1
        shifts = range(64, k, 64)  # the second and later words of a wide draw
        nxt = self.next64
        out = []
        append = out.append
        for _ in range(count):
            while True:
                r = nxt()
                for shift in shifts:
                    r |= nxt() << shift
                r &= mask
                if r < bound:
                    append(r)
                    break
        return out
