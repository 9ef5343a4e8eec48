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
    shifts and adds of whole integers, and the pmf is read off the last
    layer's lanes by `decode_lanes`.  L/8 is ceil(bits(N)/8) bytes, padded
    to 1, 2, 4 or 8 when it is at most 8, so the decode is one
    `memoryview.cast` of the integer's bytes.
    No lane carries, by two facts.  Every step offers at least one value
    from every state, so each prefix path extends to a full path, distinct
    prefixes to distinct paths; a lane counts paths of one layer, so it
    never exceeds the total path count N, and L >= bits(N) gives N < 2^L.
    The zero extension of every prefix is a member of the (unconditioned)
    family, so its statistic is >= 0 and a shift to the right drops only
    empty lanes.  The fold's bytes and time are bounded before its first
    step and refused above PMF_BYTE_BUDGET and PMF_SECONDS_LIMIT.
  * `_fold_power_sums` carries exact power sums per state, with no pmf,
    reading a move as (t,) on one lane and (A, V) = (da, 2t + da) for size.

`power_sums` (and so `moment_report`) takes, per column, whichever of the
two gives its power sums with the smaller work estimate, read off the law
before either runs (`sums_engine`; the pmf at the price that refuses it):
small columns are read off the pmf, large ones fold, and so do the selfconj
`power:2` and `power:3` columns, whose pmfs are wide.  Both are exact
integer folds, so the choice never changes a printed digit.

All weights stay arbitrary-precision integers; floats appear only when a
standardized moment is finally printed.
"""
from __future__ import annotations

import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, product
from math import comb, prod
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
    "refuse_moments",
    "MOMENT_WORK_LIMIT",
    "power_sums",
    "fold_power_sums",
    "sums_engine",
    "conditional_stat",
    "ConditionalStat",
    "legal_supports",
]

# A pmf whose fold and decoded atoms could take more bytes than this is
# refused before the fold's first step; `moments` reaches such statistics
# without a pmf.  A decoded atom takes at most about _ATOM_BYTES: its dict
# entries, DiscreteDist's sorted copy and a `dist` output line (250-300
# measured at 3- to 12-byte weights).
PMF_BYTE_BUDGET = 1280 << 20
_ATOM_BYTES = 320
# --n and --k spans wider than this are refused before their list is built,
# and so are a law's n and the values {0..cap} of its coordinates (`refuse_wide`)
RANGE_LIMIT = 10_000
# a law of more than about n*(cap + 1) moves is refused before it is built:
# 10^6 moves took 0.55 s and 110 MiB to build (core length d=999 n=1000)
MOVE_LIMIT = 100_000
# The pmf fold shifts and adds, per move and (state, a) entry, an integer of
# up to the widest layer's bytes, so moves * (a_top + 1) * (t_top + 1) * width
# bounds its work.  With CPython 3.11 on x86-64 a unit took 0.3-1.5 ns on a
# one-lane law (core length d=3 n=1600: 1.2e10 units, 10.5 s) and 0.03-0.16
# ns on size, whose entries the bound over-counts (strict size d=2 n=160:
# 2.1e11 units, 6.8 s).  Priced at PMF_UNIT_NS (one lane, size) a unit, a
# fold estimated past PMF_SECONDS_LIMIT is refused before its first step;
# `_Law.engine` reads the same price.
PMF_UNIT_NS = (0.75, 0.0625)
PMF_SECONDS_LIMIT = 30


def refuse_wide(spec: FamilySpec, what: str) -> None:
    """Refuse `what` before it builds a table per coordinate value of `spec` (an
    automaton of about n*(cap + 1) moves, a decoded beta set of up to n*cap
    entries) if n or cap + 1, ranges like --n's, is over RANGE_LIMIT."""
    if max(spec.n, spec.cap + 1) > RANGE_LIMIT:
        raise ValueError(f"{what} refused: n and cap + 1 may each be at most "
                         f"RANGE_LIMIT = {RANGE_LIMIT}")


def dist_statistic(spec: FamilySpec, stat) -> DiscreteDist:
    """Exact pmf of a statistic over the uniform family: one lane fold."""
    return DiscreteDist(_Law.of(spec, stat).pmf())


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


def _fold_pmf(law: _Law) -> dict[int, int]:
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
    weights = decode_lanes(sum(p for atoms in layer for p in atoms.values()), law.width)
    return dict(zip(compress(count(), weights), filter(None, weights)))


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
    With a_top and t_top the sums over the steps of the largest da and t,
    a layer holds at most states*(a_top + 1) integers of t_top + 1 lanes
    (0 <= u <= T), and the pmf at most min(t_top + 1, N) atoms.
    """

    def __init__(self, label: str, states: int, steps: list, lanes: int | None):
        self.label, self.states, self.steps, self.lanes = label, states, steps, lanes
        counts = [1] + [0] * (states - 1)
        for transitions in steps:
            nxt = [0] * states
            for src, dst, moves in transitions:
                nxt[dst] += counts[src] * moves.total()
            counts = nxt
        self.paths = sum(counts)
        self.moves = sum(len(moves) for tr in steps for *_, moves in tr)
        width = -(-self.paths.bit_length() // 8)
        self.width = width if width > 8 else 1 << (width - 1).bit_length()  # a cast decode
        self.a_top = sum(max(da for *_, moves in tr for da, _ in moves) for tr in steps)
        self.t_top = sum(max(t for *_, moves in tr for _, t in moves) for tr in steps)

    @classmethod
    def of(cls, spec: FamilySpec, stat) -> "_Law":
        label = f"family {spec.family}, stat {stat}, n {spec.n}, cap {spec.cap}"
        refuse_wide(spec, label)
        if spec.n * (spec.cap + 1) > MOVE_LIMIT:
            raise ValueError(f"{label} refused: its automaton has about n*(cap + 1) = "
                             f"{spec.n * (spec.cap + 1)} moves, over MOVE_LIMIT = {MOVE_LIMIT}")
        return cls(label, *_automaton(spec, stat))

    @property
    def need(self) -> int:
        """Bytes of the widest layer's lanes plus the atoms at _ATOM_BYTES each."""
        return (self.t_top + 1) * (self.states * (self.a_top + 1) * self.width + _ATOM_BYTES)

    @property
    def seconds(self) -> float:
        """The pmf fold's time estimate: PMF_UNIT_NS a unit of moves * widest layer bytes."""
        units = self.moves * (self.a_top + 1) * (self.t_top + 1) * self.width
        return units * PMF_UNIT_NS[self.a_top > 0] / 1e9

    @property
    def pmf_refusal(self) -> str:
        """Why `_fold_pmf` may not run: "" once it fits PMF_BYTE_BUDGET and PMF_SECONDS_LIMIT."""
        if self.need > PMF_BYTE_BUDGET:
            return f"it may need {self.need} bytes, over PMF_BYTE_BUDGET = {PMF_BYTE_BUDGET}"
        if self.seconds > PMF_SECONDS_LIMIT:
            return (f"its fold is estimated at {self.seconds:.0f} s, "
                    f"over PMF_SECONDS_LIMIT = {PMF_SECONDS_LIMIT}")
        return ""

    def pmf(self) -> dict[int, int]:
        """`_fold_pmf` unless `pmf_refusal` says why not, in one refusal line.

        A statistic of the family (`lanes` given) is told how far `moments`
        reaches it by the power-sum fold, which needs no pmf.
        """
        why = self.pmf_refusal
        if not why:
            return _fold_pmf(self)
        reach = "" if self.lanes is None else (
            f"; `moments` reaches its orders up to {_fold_reach(self.lanes)} without a pmf"
        )
        raise ValueError(f"pmf of {self.label} refused: {why}{reach}")

    def engine(self, k_max: int) -> str:
        """"fold" or "pmf": the engine that gives the power sums up to k_max
        with the smaller work estimate (see FOLD_TERM_NS)."""
        if k_max > _fold_reach(self.lanes):
            return "pmf"
        if self.pmf_refusal:
            return "fold"
        terms = _plan_terms(_sum_index(self.lanes, k_max))
        fold_ns = FOLD_TERM_NS[self.lanes] * terms * sum(map(len, self.steps))
        pmf_ns = self.seconds * 1e9 + ATOM_ORDER_NS * (self.t_top + 1) * (k_max + 1)
        return "pmf" if pmf_ns < fold_ns else "fold"

    def refuse_moments(self, k_max: int) -> None:
        """Refuse `moment_report` up to k_max, before any fold, if its moment reduction
        or the pmf pass that gives its sums is estimated past MOMENT_WORK_LIMIT."""
        bits_n, bits_t = self.paths.bit_length(), self.t_top.bit_length()  # max s <= t_top
        what, work = "its moment reduction is", k_max**3 * (bits_n + bits_t)
        if work <= MOMENT_WORK_LIMIT and self.engine(k_max) == "pmf" and self.need <= PMF_BYTE_BUDGET:
            what, work = "the power sums of its pmf are", (
                min(self.t_top + 1, self.paths) * (k_max + 1) * (k_max * bits_t + bits_n) // 64)
        if work > MOMENT_WORK_LIMIT:
            raise ValueError(f"--k up to {k_max} at {self.label} refused: {what} estimated at "
                             f"{work} units of work, over MOMENT_WORK_LIMIT = {MOMENT_WORK_LIMIT}")


# `_report`'s triangle makes about k_max^2 / 2 products of integers up to
# k_max * b bits, b = bits(N) + bits(max s), then one Fraction and one exact
# rounding per order, so k_max^3 * b estimates its work.  With CPython 3.11
# on x86-64 a unit took 0.05-0.8 ns, so a request just under the limit runs
# 0.1-1.6 s: core length d=3 at n=5 (k_max 535, b 13) 0.09 s, at n=200 (169,
# 409) 0.4 s; strict length d=2 n=100 (264, 108) 1.6 s, 1.3 of it rounding.
# Where the pmf gives the sums, its pass makes k_max products per atom, at
# most min(t_top + 1, N) atoms, of up to k_max * bits(t_top) + bits(N) bits,
# so atoms * (k_max + 1) * (k_max * bits(t_top) + bits(N)) / 64 estimates it:
# 1.4-6 ns a unit, about 4 on selfconj power:3 e=2 at k_max 200, where n=14
# (9.9e8 units, 3.7 s) answers and n=16 (5.2e9, about 16 s) is refused.
MOMENT_WORK_LIMIT = 2 * 10**9


def refuse_moments(spec: FamilySpec, stat, k_max: int) -> None:
    """`_Law.refuse_moments`: refuse `moment_report(spec, stat, k_max)` before any fold."""
    _Law.of(spec, stat).refuse_moments(k_max)


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
    return MomentReport(
        mean=Fraction(raw[1], raw[0]),
        variance=variance,
        central=tuple(central[: k_max + 1]),
        standardized=standardized,
        **meta,
    )


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

# Below the cap `power_sums` takes whichever exact engine its work estimate
# calls cheaper, in rough nanoseconds:
#   fold  FOLD_TERM_NS[lanes] * plan terms * transitions of the automaton,
#   pmf   the fold's own price `_Law.seconds` (PMF_UNIT_NS, which also refuses)
#         + ATOM_ORDER_NS * (t_top + 1) * (k_max + 1), the pass over the atoms.
# The weights were fitted to the crossover curve in BENCH_14.json (CPython
# 3.11, x86-64); only their ratios decide, and the columns they send the
# slower way lie at a crossover, where the two engines are within about a
# quarter of each other.
FOLD_TERM_NS = {1: 800, 2: 200}
ATOM_ORDER_NS = 100


def power_sums(spec: FamilySpec, stat, k_max: int) -> list[int]:
    """[sum of s^j over the family, j = 0..k_max] for the statistic s.

    Two exact integer engines give the same list: the power-sum fold
    (`_fold_sums`) and the pmf's own sums.  `sums_engine` picks the one
    with the smaller work estimate, before either runs.
    """
    law = _Law.of(spec, stat)
    if law.engine(k_max) == "pmf":
        return DiscreteDist(law.pmf()).power_sums(k_max)
    return _fold_sums(law, k_max)


def sums_engine(spec: FamilySpec, stat, k_max: int) -> str:
    """"fold" or "pmf": the engine `power_sums(spec, stat, k_max)` takes."""
    return _Law.of(spec, stat).engine(k_max)


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
            if list(moves.items()) != [((0, 0), 1)]:
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
    dist = DiscreteDist(law.pmf())
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
