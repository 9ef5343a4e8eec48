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

The rule lives in this module only.  `plan(bound)` works out (bound, mask,
word shifts) for a bound, and `SplitMix64.take(plan)` runs the rejection
loop; `below(bound)` is `take(plan(bound))`, so a caller that draws under
the same bound many times builds its plan once and changes nothing in the
stream.  `next64`, `take` and `below` are the scalar reference.

The samplers read the same words a block at a time.  `words(count)` returns
what `count` calls of `next64` would, computed at once on one integer of
128-bit lanes.  `Blocks(gen, hint).take` is the `take` loop over such
blocks, for draws whose plan changes from draw to draw, and
`draws(plan, count)` applies the rule to a whole block under one plan.
The state advances by exactly one increment per word drawn: once the draws
are done (`draws` exhausted, `Blocks.close()` called) it stands at the last
word they read, never at the end of a block.  So the words drawn are the
state's advance times the inverse of the increment mod 2^64, and a longer
run still starts with a shorter run's words.
"""
from __future__ import annotations

import sys
from functools import cache
from itertools import chain, compress, count as counter, islice, repeat
from operator import length_hint, or_
from typing import Iterator

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

# words per block: 16 bytes each in the packed integer, so 64 KiB a block
BLOCK = 4096


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

    def words(self, count: int) -> list[int]:
        """The next `count` words: `==` to `count` calls of `next64`, and the same end state.

        A block of c words is one integer of c lanes of 128 bits, 64 value
        bits under 64 zero bits.  The states are state*ONE + GAMMA*RAMP
        masked to 64 bits per lane; each xor-shift is masked back to 64 bits
        per lane before its multiply, so a 64 x 64-bit product fills its own
        lane and carries into no neighbour.
        """
        blocks = [self._block(min(left, BLOCK)) for left in range(count, 0, -BLOCK)]
        return blocks[0] if len(blocks) == 1 else list(chain.from_iterable(blocks))

    def _block(self, c: int, bits: int = 64) -> list[int]:
        """`words(c)` for c <= BLOCK, each word cut to its low `bits` bits."""
        one, ramp, lanes = _packing()
        if c < BLOCK:
            low = (1 << (c << 7)) - 1
            one, ramp, lanes = one & low, ramp & low, lanes & low
        z = (self._state * one + ramp) & lanes
        self._state = (self._state + c * _GAMMA) & _MASK
        z = ((z ^ (z >> 30)) & lanes) * _MUL1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MUL2 & lanes
        z ^= z >> 31
        if bits < 64:
            # the shifted mask also keeps some high bits of each lane, which are never read
            z &= lanes >> (64 - bits)
        view = memoryview(z.to_bytes(c << 4, sys.byteorder)).cast("Q")
        # the low half of each lane; on a big-endian host the top lane comes first
        return (view[::2] if sys.byteorder == "little" else view[::-2]).tolist()

    def draws(self, plan: tuple[int, int, tuple[int, ...]], count: int) -> Iterator[int]:
        """Iterator over `count` draws under one plan: the values of `count` `take(plan)` calls.

        Each block is sized to the draws still wanted and filtered at once.
        The last block steps the state back past the attempts after the last
        draw, so once the iterator is exhausted the end state is `take`'s too.
        """
        bound, mask, shifts = plan
        if bound == 1:
            return repeat(0, count)
        return chain.from_iterable(self._draw_blocks(bound, mask, shifts, count))

    def _draw_blocks(self, bound: int, mask: int, shifts: tuple[int, ...], count: int):
        width = 1 + len(shifts)  # words per attempt
        while count > 0:
            # the attempts expected for the draws left, plus a few; each is kept
            # with probability bound / (mask + 1) > 1/2
            tries = max(1, min(count * (mask + 1) // bound + 8, BLOCK // width))
            if shifts:
                words = self.words(tries * width)
                values = words[::width]
                for j, shift in enumerate(shifts, 1):
                    values = map(or_, values, map(shift.__rlshift__, words[j::width]))
                values = list(map(mask.__and__, values))
            else:
                values = self._block(tries, mask.bit_length())
            kept = values if bound > mask else list(filter(bound.__gt__, values))
            if len(kept) >= count:
                # the 1-based attempt that made the last draw
                hits = compress(counter(1), map(bound.__gt__, values))
                last = next(islice(hits, count - 1, None))
                self._state = (self._state - (tries - last) * width * _GAMMA) & _MASK
                yield kept[:count]
                return
            count -= len(kept)
            yield kept


class Blocks:
    """Bounded draws under any plans, from words drawn a block at a time.

    `take` is `SplitMix64.take`, its `next64` the next word of the current
    block.  The first block holds `hint` words (at least 64, at most BLOCK),
    later ones the rest of the hint.  The generator's state runs ahead of
    the draws by the words left in the current block until `close()`, called
    once after the last draw, steps it back to the last word read.
    """

    take = SplitMix64.take

    def __init__(self, gen: SplitMix64, hint: int):
        self._gen, self._left = gen, hint
        self._block = iter(())
        self.next64 = chain.from_iterable(self._blocks()).__next__

    def _blocks(self):
        while True:
            size = min(BLOCK, max(self._left, 64))
            self._left -= size
            self._block = iter(self._gen.words(size))
            yield self._block

    def close(self) -> None:
        gen = self._gen
        gen._state = (gen._state - length_hint(self._block) * _GAMMA) & _MASK


@cache
def _packing() -> tuple[int, int, int]:
    """(ONE, GAMMA*RAMP, LANES) over BLOCK lanes of 128 bits, built on first use.

    Lane i holds 1 in ONE, (i + 1) * GAMMA in GAMMA*RAMP and 2^64 - 1 in LANES.
    """
    one = int.from_bytes((b"\x01" + bytes(15)) * BLOCK, "little")
    ramp = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, BLOCK + 1)), "little")
    return one, _GAMMA * ramp, one * _MASK


def plan(bound: int) -> tuple[int, int, tuple[int, ...]]:
    """(bound, mask, word shifts) for draws below `bound`.

    The mask keeps the low k = bit_length(bound - 1) bits; the shifts place
    the second and later words of a draw wider than 64 bits.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    return bound, (1 << k) - 1, tuple(range(64, k, 64))
