"""Exact distributions and moments of the family statistics.

Each family is a small coordinate automaton (`_automaton`): iid coordinates
in {0..d} (core), a free/blocked chain where a nonzero entry blocks the next
(strict), or iid antipodal pairs with the middle coordinate of odd n pinned
to zero (selfconj).  A transition holds the values a coordinate may take
as a Counter of moves (da, t), what a value adds to a and to T.  A one-lane
statistic is T with a = 0: x for length, hook power runs for the selfconj
power sums.  Size over core/strict carries a = A and T = (V - A)/2, with
(A, V) the sums of x and n*x^2 + (2i-n+1)*x; T is a sum of integer terms
x*(n*x - n + 2i)/2 >= 0, and the size is read back as S = T - C(A, 2).

A request builds its `_Law` once, and both folds read its moves:
  * `_fold_pmf` (`dist_statistic`, and `conditional_stat` over a one-state
    automaton whose support coordinates take 1..d and the others 0) packs
    each layer by Kronecker substitution.  A layer is one integer per
    (state, a) whose lane u, L bits wide, holds the weight of the prefix
    paths whose zero extension has statistic u.  A coordinate costs a few
    shifts and adds of whole integers, and the pmf is the last layer's
    lanes, read by `decode_lanes` into `DiscreteDist.from_lanes`.  L/8 is
    ceil(bits(N)/8) bytes, padded to 1, 2, 4 or 8 when it is at most 8, so
    the decode is one `memoryview.cast` of the integer's bytes.
    No lane carries, by two facts.  Every step offers at least one value
    from every state, so each prefix path extends to a full path, distinct
    prefixes to distinct paths; a lane counts paths of one layer, so it
    never exceeds the total path count N, and L >= bits(N) gives N < 2^L.
    The zero extension of every prefix is a member of the (unconditioned)
    family, so its statistic is >= 0 and a shift to the right drops only
    empty lanes.  The fold is priced in bytes and seconds before its first
    step and refused above PMF_BYTE_BUDGET or SECONDS_LIMIT.
  * `_fold_power_sums` carries exact power sums per state, with no pmf,
    reading a move as (t,) on one lane and (A, V) = (da, 2t + da) for size.

One price covers a whole request (`_Law.price`): the seconds of each term it
runs, from one table of weights (PRICE_FS), and the bytes it holds.
`power_sums` (and so `moment_report`) takes, per column, the cheaper of the
two engines that fits (`sums_engine`): small columns are read off the pmf,
large ones fold, and so do the selfconj `power:2` and `power:3` columns,
whose pmfs are wide.  Both are exact integer folds, so the choice never
changes a printed digit.  The same price refuses, in one line that names
its seconds or bytes (`_Law.refuse`), a pmf or a power-sum request too
dear to run, in the library as in the CLI.

All weights stay arbitrary-precision integers; floats appear only when a
standardized moment is finally printed.
"""
from __future__ import annotations

import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil, comb, lcm, prod
from operator import getitem
from struct import calcsize
from typing import Iterator

from .distributions import (  # convolve: re-exported for callers of this module
    DiscreteDist,
    central_moments_from_sums,
    convolve,
    round_half_away,
)
from .families import FamilySpec, enumerate_family, normalize_stat, resolve_stat, stat_name

__all__ = [
    "DiscreteDist",
    "MomentReport",
    "convolve",
    "dist_statistic",
    "moments",
    "moment_report",
    "power_sums",
    "fold_power_sums",
    "sums_engine",
    "conditional_stat",
    "ConditionalStat",
    "legal_supports",
]

# A request whose price (`_Law.price`) passes PMF_BYTE_BUDGET bytes or
# SECONDS_LIMIT seconds is refused before its first fold step; `moments`
# reaches wide statistics without a pmf.  A decoded atom takes at most about
# _ATOM_BYTES: its decoded lane, its dict entry and a `dist` output line (250-300
# measured at 3- to 12-byte weights with a second dict entry, so it is loose).
PMF_BYTE_BUDGET = 1280 << 20
_ATOM_BYTES = 320
SECONDS_LIMIT = 30
# --n and --k spans wider than this are refused before their list is built,
# and so are a law's n, the values {0..cap} of its coordinates (`refuse_wide`)
# and the exponent of a power sum
RANGE_LIMIT = 10_000
# a law of more than about n*(cap + 1) moves is refused before it is built:
# 10^6 moves took 0.55 s and 110 MiB to build (core length d=999 n=1000)
MOVE_LIMIT = 100_000

# Femtoseconds a unit of each term of `_Law.price`, fitted by the script in
# BENCH_28.json to in-process doubling curves (CPython 3.11.7, x86-64, a shared
# 2-vCPU VM): least squares in relative error, then scaled so that each term
# bounds every point measured at 0.05 s or more.  With E = moves * (a_top + 1),
# L = t_top + 1 lanes, B = L * width bytes and b = bits(N) + bits(t_top):
#   pmf entry, byte 1|2, cache, lane: `_fold_pmf`, per pair of E; per pair and
#     byte of B, by lane count; per pair and byte of B past _L2_BYTES (one L2
#     cache there); per lane of L (`decode_lanes` and the atoms' dict)
#   pass atom, word: `DiscreteDist.power_sums`, per atom (at most min(L, N)) and
#     order; per atom, order and 64-bit word of the power it adds
#   fold term, word, move: `_fold_power_sums`, per plan term and working
#     transition; per term, transition and squared word of the sums; per move
#     and index entry of its contribution tables
#   report word, gcd, round: `_report`, per k_max^3 * b / 64 (its triangle); per
#     k_max^3 * (b / 64)^2 (a Fraction per order); per k_max^3 * (b' / 64)^2,
#     b' = bits(t_top) + bits(`_Law.den`) (the standardized roundings)
PRICE_FS = {"pmf entry": 228_000_000, "pmf byte 1": 318_000, "pmf byte 2": 51_600,
            "pmf cache": 35_100, "pmf lane": 31_100_000, "pass atom": 27_900_000,
            "pass word": 2_780_000, "fold term": 74_000_000, "fold word": 270_000,
            "fold move": 480_000_000, "report word": 588_000, "report gcd": 1_130_000,
            "report round": 18_000_000}
_L2_BYTES = 1 << 20


def refuse_wide(spec: FamilySpec, what: str) -> None:
    """Refuse `what` before it builds a table per coordinate value of `spec` (an
    automaton of about n*(cap + 1) moves, a decoded beta set of up to n*cap
    entries) if n or cap + 1, ranges like --n's, is over RANGE_LIMIT."""
    if max(spec.n, spec.cap + 1) > RANGE_LIMIT:
        raise ValueError(f"{what} refused: n and cap + 1 may each be at most "
                         f"RANGE_LIMIT = {RANGE_LIMIT}")


def dist_statistic(spec: FamilySpec, stat) -> DiscreteDist:
    """Exact pmf of a statistic over the uniform family: one lane fold."""
    return _Law.of(spec, stat).pmf()


def _automaton(spec: FamilySpec, stat):
    """(states, steps, lanes): the family as a coordinate automaton for `stat`.

    `steps` holds, per coordinate, transitions (src, dst, moves): every
    value the coordinate may take from state src into state dst, as a
    Counter of its (da, t) moves.  State 0 starts and every state accepts.
    `lanes` is 2 for size over core/strict, whose power-sum fold carries
    (A, V), and 1 otherwise.
    """
    kind, k = resolve_stat(spec.family, stat)
    n, cap = spec.n, spec.cap
    if kind == "power":
        pairs = range(1, n // 2 + 1)
        return 1, [[(0, 0, Counter((0, v) for v in _pair_values(n, cap, k, i)))] for i in pairs], 1
    if kind == "durfee":
        raise ValueError(f"statistic {stat!r} has no engine for family {spec.family!r}")

    def step(i):
        if spec.family == "core":
            return [(0, 0, _coordinate(n, kind, i, range(cap + 1)))]
        # strict: state 1 is "blocked", entered by a nonzero entry and left by a zero
        zero, nonzero = (_coordinate(n, kind, i, xs) for xs in ((0,), range(1, cap + 1)))
        return [(0, 0, zero), (1, 0, zero), (0, 1, nonzero)]

    states = 1 if spec.family == "core" else 2
    if kind == "length":  # the same moves at every coordinate: one shared step
        return states, [step(1)] * (n - 1), 1
    return states, [step(i) for i in range(1, n)], 2


def _coordinate(n: int, kind: str, i: int, xs) -> Counter:
    """The (da, t) moves of coordinate i over the values xs: (0, x) for length,
    (x, x*(n*x - n + 2i)/2) for size, an integer since n*x*(x-1) is even."""
    if kind == "length":
        return Counter((0, x) for x in xs)
    return Counter((x, x * (n * x - n + 2 * i) // 2) for x in xs)


def _pair_values(n: int, e: int, k: int, i: int) -> list[int]:
    """Power-sum contribution of antipodal pair i, one entry per assignment.

    k=0 is the Durfee length (and the length statistic of the family),
    k=1 the size.  Pair i < n+1-i carries residues 2i-1 and 2n+1-2i; a run
    of length a in class r contributes r^k + (r+2n)^k + ... + (r+2(a-1)n)^k.
    """
    values = [0]
    for r in (2 * i - 1, 2 * n + 1 - 2 * i):
        run = 0
        for a in range(1, e + 1):
            run += (r + 2 * n * (a - 1)) ** k
            values.append(run)
    return values


def _fold_pmf(law: _Law) -> DiscreteDist:
    """Weights of the statistic T - C(a, 2) over every path (all states accept).

    A layer keeps one integer P per (state, a), lane u for u = T - C(a, 2).
    A move (da, t) of multiplicity m takes a to a + da and u to
    u + t - a*da - C(da, 2), so it adds m*P shifted by that many lanes to
    (dst, a + da).  The lanes of the sum of the last layer are the pmf.
    """
    bits = 8 * law.width
    layer = [{0: 1}] + [{} for _ in range(law.states - 1)]
    for transitions in law.steps:
        nxt = [{} for _ in range(law.states)]
        for src, dst, moves in transitions:
            out = nxt[dst]
            for a, p in layer[src].items():
                for (da, t), m in moves.items():
                    shift = bits * (t - a * da - comb(da, 2))
                    p_m = p * m
                    out[a + da] = out.get(a + da, 0) + (
                        p_m << shift if shift >= 0 else p_m >> -shift
                    )
        layer = nxt
    return DiscreteDist.from_lanes(
        decode_lanes(sum(p for atoms in layer for p in atoms.values()), law.width))


# lane width in bytes -> the memoryview format of a native unsigned int that wide
_CAST = {calcsize(code): code for code in "BHIQ"}


def decode_lanes(packed: int, width: int) -> list[int]:
    """The lanes of `packed`, `width` bytes each, lowest first, up to its top lane.

    Widths of a native unsigned int (1, 2, 4, 8) are read by one
    `memoryview.cast` of the bytes in native order; other widths slice.
    """
    size = -(-packed.bit_length() // (8 * width)) * width
    if width in _CAST:
        lanes = memoryview(packed.to_bytes(size, sys.byteorder)).cast(_CAST[width]).tolist()
        return lanes if sys.byteorder == "little" else lanes[::-1]
    raw = packed.to_bytes(size, "little")
    return [int.from_bytes(raw[j : j + width], "little") for j in range(0, size, width)]


class _Law:
    """One exact law: `_automaton`'s moves, and what either fold will hold.

    `lanes` is None for a law that has only a pmf.  `paths` is N, from a
    fold of plain counts; `width` is L/8, ceil(bits(N)/8) bytes rounded up
    to 1, 2, 4 or 8 when it is at most 8, so that `decode_lanes` casts.
    The same fold carries, per state, the largest a and T over the paths
    into it: a_top and t_top bound them on every path and prefix (whose
    zero extension is a path), so a layer holds at most states*(a_top + 1)
    integers of t_top + 1 lanes, and the pmf min(t_top + 1, N) atoms.
    `den` is what the moments reduce over: N, or for one state, whose
    coordinates are independent, the lcm of the step totals.
    """

    def __init__(self, label: str, states: int, steps: list, lanes: int | None):
        self.label, self.states, self.steps, self.lanes = label, states, steps, lanes
        counts, a_top, t_top = [1] + [0] * (states - 1), [0] * states, [0] * states
        for transitions in steps:
            nxt, a_nxt, t_nxt = [0] * states, [0] * states, [0] * states
            for src, dst, moves in transitions:
                if counts[src] and moves:
                    nxt[dst] += counts[src] * moves.total()
                    a_nxt[dst] = max(a_nxt[dst], a_top[src] + max(da for da, _ in moves))
                    t_nxt[dst] = max(t_nxt[dst], t_top[src] + max(t for _, t in moves))
            counts, a_top, t_top = nxt, a_nxt, t_nxt
        self.paths, self.a_top, self.t_top = sum(counts), max(a_top), max(t_top)
        self.moves = sum(len(moves) for tr in steps for *_, moves in tr)
        width = -(-self.paths.bit_length() // 8)
        self.width = width if width > 8 else 1 << (width - 1).bit_length()  # a cast decode
        self.den = lcm(*{m.total() for tr in steps for *_, m in tr}) if states == 1 else self.paths

    @classmethod
    def of(cls, spec: FamilySpec, stat) -> "_Law":
        """The law of `stat` over `spec`, refused before `_automaton` builds it if its
        n, cap + 1 or power exponent passes RANGE_LIMIT, its moves MOVE_LIMIT, or
        its power sums' moves (about k*bits(2n*cap) bits each) PMF_BYTE_BUDGET."""
        label = f"family {spec.family}, stat {stat}, n {spec.n}, cap {spec.cap}"
        refuse_wide(spec, label)
        moves = spec.n * (spec.cap + 1)
        if moves > MOVE_LIMIT:
            raise ValueError(f"{label} refused: its automaton has about n*(cap + 1) = "
                             f"{moves} moves, over MOVE_LIMIT = {MOVE_LIMIT}")
        kind, k = resolve_stat(spec.family, stat)
        if kind == "power" and k > RANGE_LIMIT:
            raise ValueError(f"{label} refused: the exponent of power:k may be at most "
                             f"RANGE_LIMIT = {RANGE_LIMIT}")
        held = moves * (k * (2 * spec.n * spec.cap).bit_length() // 8) if kind == "power" else 0
        if held > PMF_BYTE_BUDGET:
            raise ValueError(f"{label} refused: its moves may hold {_figure(held)} bytes, "
                             f"over PMF_BYTE_BUDGET = {PMF_BYTE_BUDGET}")
        return cls(label, *_automaton(spec, stat))

    def price(self, k_max: int | None = None) -> tuple[str, Fraction, int]:
        """(engine, seconds, bytes) of the power sums up to k_max and their
        `_report`, or of the pmf alone when k_max is None, from PRICE_FS: "pmf"
        (`_fold_pmf`, then its atoms' sums) or "fold" (`_fold_power_sums`, in
        its reach), the cheaper of those that fit SECONDS_LIMIT and
        PMF_BYTE_BUDGET, or of all.  Femtoseconds stay exact integers, so no
        price overflows however wide the law."""
        w, lanes, top = PRICE_FS, 2 if self.a_top else 1, self.t_top + 1
        entries, layer = self.moves * (self.a_top + 1), top * self.width
        pmf_fs = entries * (w["pmf entry"] + w[f"pmf byte {lanes}"] * layer
                            + w["pmf cache"] * max(0, layer - _L2_BYTES)) + w["pmf lane"] * top
        pmf_bytes = top * (self.states * (self.a_top + 1) * self.width + _ATOM_BYTES)
        offers = [("pmf", pmf_fs, pmf_bytes)]
        if k_max is not None:
            bits_n, bits_t = self.paths.bit_length(), self.t_top.bit_length()
            b, b_den = bits_n + bits_t, self.den.bit_length() + bits_t
            report = k_max**3 * (w["report word"] * 64 * b + w["report gcd"] * b * b
                                 + w["report round"] * b_den * b_den) // 4096
            held = (k_max + 1) ** 2 * b // 8  # the triangle's row and the moments
            atom_fs = w["pass atom"] + w["pass word"] * ((k_max * bits_t // 2 + bits_n) // 64)
            pmf_fs += min(top, self.paths) * (k_max + 1) * atom_fs + report
            offers = [("pmf", pmf_fs, pmf_bytes + held)]
            if k_max <= _fold_reach(self.lanes):
                index = _sum_index(self.lanes, k_max)
                working = [len(moves) for tr in self.steps for *_, moves in tr if moves != _IDLE]
                term_fs = w["fold term"] + w["fold word"] * ((k_max * bits_t + bits_n) // 64) ** 2
                fold_fs = (_plan_terms(index) * len(working) * term_fs
                           + w["fold move"] * sum(working) * len(index))
                offers.insert(0, ("fold", fold_fs + report, held))
        fits = [offer for offer in offers
                if offer[1] <= SECONDS_LIMIT * 10**15 and offer[2] <= PMF_BYTE_BUDGET]
        engine, fs, need = min(fits or offers, key=lambda offer: offer[1])
        return engine, Fraction(fs, 10**15), need

    def refuse(self, k_max: int | None = None) -> str:
        """The engine `price(k_max)` picks, or a one-line refusal of what it puts past
        PMF_BYTE_BUDGET or SECONDS_LIMIT; a pmf's tells how far `moments` reaches."""
        engine, seconds, need = self.price(k_max)
        if need > PMF_BYTE_BUDGET:
            cost = f"need {_figure(need)} bytes, over PMF_BYTE_BUDGET = {PMF_BYTE_BUDGET}"
        elif seconds > SECONDS_LIMIT:
            cost = f"take {_figure(ceil(seconds))} s, over SECONDS_LIMIT = {SECONDS_LIMIT}"
        else:
            return engine
        why = ("it" if k_max is None else f"its moments up to order {k_max}") + " may " + cost
        reach = engine == "pmf" and self.lanes and _fold_reach(self.lanes)
        if reach and (k_max is None or k_max > reach):
            why += f"; `moments` reaches its orders up to {reach} without a pmf"
        raise ValueError(f"{'pmf' if engine == 'pmf' else 'power-sum fold'} of {self.label} "
                         f"refused: {why}")

    def pmf(self) -> DiscreteDist:
        """`_fold_pmf`, unless `refuse` refuses it."""
        self.refuse()
        return _fold_pmf(self)


_IDLE = Counter({(0, 0): 1})  # a transition that leaves the power sums as they are


def _figure(x: int) -> str:
    """x in a refusal line: its digits below 10^15, else 1.23e+45, or 2^bits past a float."""
    return str(x) if x < 10**15 else f"{x:.2e}" if x.bit_length() < 1000 else f"2^{x.bit_length()}"


class MomentReport(namedtuple("MomentReport", "mean variance central standardized "
                              "family stat n cap", defaults=(None,) * 4)):
    """Exact central moments mu_0 .. mu_kmax plus print-ready standardized
    moments, k -> 3-decimal string (none if the variance is 0)."""

    __slots__ = ()

    @property
    def degenerate(self) -> bool:
        return self.variance == 0


def moments(dist: DiscreteDist, k_max: int, **meta) -> MomentReport:
    """Central moments in exact rationals; m_k rounded half-away-from-zero.

    The rounding is exact as well: m_k^2 is rational, so the 3-decimal
    string is decided by integer square-root comparisons, never by a float.
    """
    return _report(dist.power_sums(max(k_max, 2)), k_max, meta)


def moment_report(spec: FamilySpec, stat, k_max: int) -> MomentReport:
    """`moments(dist_statistic(spec, stat), k_max)` without building the pmf."""
    raw = power_sums(spec, stat, max(k_max, 2))
    meta = {"family": spec.family, "stat": stat_name(stat), "n": spec.n, "cap": spec.cap}
    return _report(raw, k_max, meta)


def _report(raw: list[int], k_max: int, meta: dict) -> MomentReport:
    central = central_moments_from_sums(raw)
    variance = central[2]
    standardized: dict[int, str] = {}
    if variance != 0:
        for k in range(1, k_max + 1):
            mk = central[k]  # m_k^2 = mu_k^2 / mu_2^k, signed as mu_k
            standardized[k] = round_half_away((mk > 0) - (mk < 0), mk * mk / variance**k)
    mean, central = Fraction(raw[1], raw[0]), tuple(central[: k_max + 1])
    return MomentReport(mean, variance, central, standardized, **meta)


# ---------------------------------------------------------- moment engine
#
# A coordinate of the automaton adds a contribution vector c to a running
# vector C, so the fold carries, per state, the mixed power sums
# M[e] = sum over paths of prod_t C_t^e_t for e in a downward-closed index
# set.  Appending values with power sums U[g] = sum_c prod_t c_t^g_t updates
# them by the binomial rule
#     M'[e] = sum_{f <= e} prod_t C(e_t, f_t) * M[f] * U[e - f].

# The fold's plan holds sum over the index of prod_t (e_t + 1) terms, and
# each coordinate costs that many products: k_max^4 / 6 for size, k_max^2 / 2
# otherwise.  This is the fold's hard cap: past it (size k_max > 16, other
# statistics k_max > 198) the power sums are read off the pmf, so no order
# allocates a huge plan, and a pmf over PMF_BYTE_BUDGET is refused.
FOLD_PLAN_LIMIT = 20_000


def power_sums(spec: FamilySpec, stat, k_max: int) -> list[int]:
    """[sum of s^j over the family, j = 0..k_max] for the statistic s.

    Two exact integer engines give the same list: the power-sum fold
    (`_fold_sums`) and the pmf's own sums.  The one price of `_Law.refuse`
    picks the cheaper, before either runs, or refuses what `moments` refuses.
    """
    law = _Law.of(spec, stat)
    if law.refuse(k_max) == "pmf":
        return _fold_pmf(law).power_sums(k_max)
    return _fold_sums(law, k_max)


def sums_engine(spec: FamilySpec, stat, k_max: int) -> str:
    """"fold" or "pmf": the engine `power_sums(spec, stat, k_max)` takes."""
    return _Law.of(spec, stat).price(k_max)[0]


def fold_power_sums(spec: FamilySpec, stat, k_max: int) -> list[int]:
    """`power_sums` by the fold alone, whatever its cost: an independent check of the pmf."""
    return _fold_sums(_Law.of(spec, stat), k_max)


def _sum_index(lanes: int, k_max: int) -> list[tuple[int, ...]]:
    """The fold's index: j <= k_max for one lane, A^p V^q with p + 2q <= 2*k_max for size."""
    if lanes == 1:
        return [(j,) for j in range(k_max + 1)]
    return [(p, q) for q in range(k_max + 1) for p in range(2 * (k_max - q) + 1)]


def _plan_terms(index: list[tuple[int, ...]]) -> int:
    return sum(prod(a + 1 for a in e) for e in index)


@lru_cache(maxsize=None)
def _fold_reach(lanes: int) -> int:
    """The largest k_max whose fold plan fits FOLD_PLAN_LIMIT: 198 for one lane, 16 for size."""
    k = 0
    while _plan_terms(_sum_index(lanes, k + 1)) <= FOLD_PLAN_LIMIT:
        k += 1
    return k


def _fold_sums(law: _Law, k_max: int) -> list[int]:
    """Power sums by the fold.  Length and the selfconj power sums carry one lane.

    Size over core/strict carries (A, V) and sums A^p V^q for p + 2q <= 2*k_max;
    then S = (V - A^2)/2 gives sum S^j = 2^-j sum_m C(j,m) (-1)^m sum A^2m V^(j-m).
    """
    index = _sum_index(law.lanes, k_max)
    sums = _fold_power_sums(law, index)
    if law.lanes == 1:
        return sums
    mixed = dict(zip(index, sums))
    out = []
    for j in range(k_max + 1):
        scaled = sum((-1) ** m * comb(j, m) * mixed[(2 * m, j - m)] for m in range(j + 1))
        assert scaled % 2**j == 0
        out.append(scaled // 2**j)
    return out


def _fold_power_sums(law: _Law, index: list[tuple[int, ...]]) -> list[int]:
    """Mixed power sums, in `index` order, over every path (all states accept).

    A move (da, t) is the contribution (t,) on one lane and
    (A, V) = (da, 2t + da) for size, taken with its multiplicity.  A
    transition whose one move is (0, 0), once, leaves the sums as they are
    and is skipped.
    """
    plan = _plan(tuple(index))
    tops = [max(e[j] for e in index) for j in range(law.lanes)]
    unit = [int(not any(e)) for e in index]
    zero = [0] * len(index)
    layer = [unit] + [zero] * (law.states - 1)
    as_lanes = (lambda da, t: (t,)) if law.lanes == 1 else (lambda da, t: (da, 2 * t + da))
    for transitions in law.steps:
        nxt = [zero] * law.states
        for src, dst, moves in transitions:
            sums = layer[src]
            if moves != _IDLE:
                # U[e] = sum over moves of m * prod_j c_j^e_j, from per-lane power tables
                tables = [
                    (m, [[c**g for g in range(top + 1)] for c, top in zip(as_lanes(*mv), tops)])
                    for mv, m in moves.items()
                ]
                factor = [sum(m * prod(map(getitem, table, e)) for m, table in tables)
                          for e in index]
                sums = [sum(c * sums[f] * factor[g] for c, f, g in terms) for terms in plan]
            nxt[dst] = [a + b for a, b in zip(nxt[dst], sums)]
        layer = nxt
    return [sum(col) for col in zip(*layer)]


@lru_cache(maxsize=32)
def _plan(index: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Per e in `index`, the binomial terms (prod_t C(e_t, f_t), slot of f, slot of e - f)."""
    where = {e: t for t, e in enumerate(index)}
    return tuple(
        tuple(
            (
                prod(comb(a, b) for a, b in zip(e, f)),
                where[f],
                where[tuple(a - b for a, b in zip(e, f))],
            )
            for f in product(*(range(a + 1) for a in e))
        )
        for e in index
    )


def legal_supports(n: int) -> Iterator[tuple[int, ...]]:
    """Subsets of {1..n-1} with no two adjacent elements, the strict support patterns."""
    for x in enumerate_family(FamilySpec("strict", n, 1)):
        yield tuple(i for i, v in enumerate(x, start=1) if v)


ConditionalStat = namedtuple("ConditionalStat", "dist mean variance closed_mean closed_variance")


def conditional_stat(spec: FamilySpec, stat, support) -> ConditionalStat:
    """Statistic of a strict vector conditioned on its nonzero set being `support`.

    The conditional law puts the coordinates in `support` independent and
    uniform on {1..d}.  Mean and variance are computed twice, from the
    distribution and from the closed forms of the mixture decomposition
    (evaluated in centered coordinates); they must agree exactly.
    """
    if spec.family != "strict":
        raise ValueError("conditional statistics are defined for the strict family")
    kind, _ = normalize_stat(stat)
    if kind not in ("length", "size"):
        raise ValueError(f"unsupported conditional statistic {stat!r}")
    t = tuple(sorted(support))
    if any(b - a == 1 for a, b in zip(t, t[1:])):
        raise ValueError(f"support {t} has adjacent indices")
    if t and not (1 <= t[0] and t[-1] <= spec.n - 1):
        raise ValueError(f"support {t} not inside [1, {spec.n - 1}]")

    n, d = spec.n, spec.cap
    if t and d == 0:
        raise ValueError(f"support {t} needs cap >= 1, got cap 0")
    steps = [[(0, 0, _coordinate(n, kind, i, range(1, d + 1) if i in t else (0,)))]
             for i in range(1, n)]
    law = _Law(f"strict {stat} on support {t}, n {n}, cap {d}", 1, steps, None)
    dist = law.pmf()
    if kind == "length":
        closed_mean, closed_var = _closed_forms_length(d, t)
    else:
        closed_mean, closed_var = _closed_forms_size(n, d, t)
    mean, var = dist.mean(), dist.variance()
    if (mean, var) != (closed_mean, closed_var):
        raise AssertionError(
            f"conditional closed forms disagree with the distribution: "
            f"({mean}, {var}) vs ({closed_mean}, {closed_var})"
        )
    return ConditionalStat(dist, mean, var, closed_mean, closed_var)


def _closed_forms_length(d: int, t: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    c = Fraction(d + 1, 2)
    var_x = Fraction(d * d - 1, 12)
    return len(t) * c, len(t) * var_x


def size_coefficients(n: int, d: int) -> tuple[Fraction, list[Fraction], int]:
    """(q, [b_1 .. b_(n-1)], a): the size statistic as sum plus pairs.

    Up to an additive constant, size = sum_i g_i(y_i) + a * sum_{i<j} y_i y_j
    with g_i(y) = q y^2 + b_i y on y in 1..d, q = (n-1)/2,
    b_i = i - (n-1)/2 - (n-2)(d+1)/2 and pair coupling a = -1; this is the
    shape the sum-plus-pairs conditions and the mixture closed forms use.
    """
    q = Fraction(n - 1, 2)
    c = Fraction(d + 1, 2)
    return q, [i - q - (n - 2) * c for i in range(1, n)], -1


def size_components(n: int, d: int) -> tuple[Fraction, list[tuple[Fraction, Fraction, Fraction]]]:
    """(Var y, [(E g_i, Var g_i, Cov(g_i, y)) for i in 1..n-1]), y uniform on 1..d, d >= 1.

    g_i(y) = q y^2 + b_i y from `size_coefficients`.  With m_k = E y^k,
    E g_i = q m2 + b_i m1, Var g_i = q^2 (m4 - m2^2) + 2 q b_i (m3 - m1 m2)
    + b_i^2 Var y and Cov(g_i, y) = q (m3 - m1 m2) + b_i Var y.
    """
    q, bs, _ = size_coefficients(n, d)
    m1 = Fraction(d + 1, 2)
    m2 = Fraction((d + 1) * (2 * d + 1), 6)
    m3 = Fraction(d * (d + 1) ** 2, 4)
    m4 = Fraction((d + 1) * (2 * d + 1) * (3 * d * d + 3 * d - 1), 30)
    var_y = m2 - m1 * m1
    cov_sq = m3 - m1 * m2  # Cov(y^2, y)
    return var_y, [
        (
            q * m2 + b * m1,
            q * q * (m4 - m2 * m2) + 2 * q * b * cov_sq + b * b * var_y,
            q * cov_sq + b * var_y,
        )
        for b in bs
    ]


def _closed_forms_size(n: int, d: int, t: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """Mixture-component mean and variance of the size statistic.

    Centered coordinates: X uniform on {-(d-1)/2, ..., (d-1)/2} and
    y = x + (d+1)/2, with g_i and a from `size_coefficients` and the moments
    of g_i from `size_components`.
    """
    if not t:
        return Fraction(0), Fraction(0)  # the zero vector alone, size 0 at any cap
    a = size_coefficients(n, d)[2]
    var_x, parts = size_components(n, d)  # centering does not change the variance
    c = Fraction(d + 1, 2)
    size = len(t)
    sum_mean, sum_var_g, sum_cov = map(sum, zip(*(parts[i - 1] for i in t)))

    mean = sum_mean + a * comb(n - 1 - size, 2) * c * c - a * comb(n - 1, 2) * c * c
    var = (
        sum_var_g
        - a * (n - 1 - size) * (d + 1) * sum_cov
        + a * a * size * (n - 1 - size) ** 2 * c * c * var_x
        + a * a * comb(size, 2) * var_x**2
    )
    return mean, var


def mixture_identity_check(spec: FamilySpec, stat) -> bool:
    """Exact check that conditioning on the support tiles the full law.

    Component weights are implicit: each conditional distribution carries
    total weight d^[support size], and summing raw weights over every legal
    support must rebuild the unconditional distribution atom for atom.
    """
    acc: dict[int, int] = {}
    # at cap 0 the zero vector is the only member, on the empty support
    for t in legal_supports(spec.n) if spec.cap else [()]:
        for v, w in conditional_stat(spec, stat, t).dist.items():
            acc[v] = acc.get(v, 0) + w
    return DiscreteDist(acc) == dist_statistic(spec, stat)
