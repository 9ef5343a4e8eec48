"""Per-layer spans and counts, recorded from outside the package.

`Tracer` wraps the public functions of each coreperim module that the
workloads reach and patches every place the function is bound: the defining
module and each module that imported the name (`cli.dist_statistic`,
`exactdist.convolve`, ...).  Leaving the `with` block puts the originals
back.  Spans stay in memory; `report()` returns them for the caller to
write out.

Busy time is inclusive: distributions.convolve runs inside exactdist.dist
spans.  `top_s` sums only the outermost spans, so the command time splits
exactly into top-level layer time plus the CLI's own time.

rng is counted, not timed: the generator state advances by a fixed odd
constant per 64-bit word, so the words drawn follow from the state
difference, at no cost per draw.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import coreperim.cli  # noqa: F401  (binds every name the CLI uses)
from coreperim import codec, distributions, exactdist, families, gaussref, polya, rng
from coreperim.families import normalize_stat

# Layers timed (reported as <layer>.busy_s) and counters kept.
LAYERS = (
    "exactdist.dist.core_length",
    "exactdist.dist.core_size",
    "exactdist.dist.strict_length",
    "exactdist.dist.strict_size",
    "exactdist.dist.selfconj_power",
    "exactdist.moments",
    "distributions.convolve",
    "gaussref.kolmogorov",
    "gaussref.wasserstein",
    "polya.pf_real_roots",
    "families.oracle",
    "families.sample",
    "codec.decode",
)
COUNTS = (
    "exactdist.dist.calls",
    "exactdist.dist.atoms",
    "exactdist.dist.weight_bits_max",
    "exactdist.moments.calls",
    "distributions.convolve.calls",
    "gaussref.atoms",
    "polya.pf_real_roots.calls",
    "polya.degree_sum",
    "families.enumerated",
    "families.sample.vectors",
    "rng.words",
    "codec.decode.calls",
)

_MASK = (1 << 64) - 1
_GAMMA_INV = pow(0x9E3779B97F4A7C15, -1, 1 << 64)


def _dist_layer(spec, stat) -> str:
    if spec.family == "selfconj":
        return "exactdist.dist.selfconj_power"
    return f"exactdist.dist.{spec.family}_{normalize_stat(stat)[0]}"


class Tracer:
    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: list[dict] = []  # one record per coarse call
        self.top_s = 0.0  # time inside outermost spans
        self.hook_s = 0.0  # tracer bookkeeping outside any span
        self._depth = 0
        self._ctx: dict = {"family": None, "stat": None, "n": None, "cap": None}
        self._rngs: list = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def _replace(self, module, name: str, wrapper) -> None:
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "coreperim" and mod.__dict__.get(name) is original:
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapper)

    def __enter__(self):
        t = self
        self._replace(exactdist, "dist_statistic", self._timed(
            exactdist.dist_statistic, lambda a: _dist_layer(a[0], a[1]),
            self._after_dist, before=self._spec_and_stat, record="exactdist.dist_statistic"))
        self._replace(exactdist, "moments", self._timed(
            exactdist.moments, "exactdist.moments", self._after_moments,
            record="exactdist.moments"))
        self._replace(distributions, "convolve", self._timed(
            distributions.convolve, "distributions.convolve", self._count("distributions.convolve.calls")))
        for fn, layer in ((gaussref.kolmogorov_to_normal, "gaussref.kolmogorov"),
                          (gaussref.wasserstein_to_normal, "gaussref.wasserstein")):
            self._replace(gaussref, fn.__name__, self._timed(
                fn, layer, self._after_gauss, record=f"gaussref.{fn.__name__}"))
        self._replace(polya, "u_polynomial", self._context_only(polya.u_polynomial))
        self._replace(polya, "pf_real_roots", self._timed(
            polya.pf_real_roots, "polya.pf_real_roots", self._after_roots, record="polya.pf_real_roots"))
        self._replace(families, "oracle_distribution", self._timed(
            families.oracle_distribution, "families.oracle", None, before=self._spec_and_stat,
            record="families.oracle_distribution"))
        self._replace(families, "enumerate_family", self._counted_iter(families.enumerate_family))
        self._replace(families, "sample", self._timed(
            families.sample, "families.sample", self._after_sample,
            before=self._spec_only, record="families.sample"))
        for fn in (codec.decode_core, codec.decode_selfconj):
            self._replace(codec, fn.__name__, self._timed(
                fn, "codec.decode", self._count("codec.decode.calls")))

        class CountedSplitMix64(rng.SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                self._start = self._state
                t._rngs.append(self)

        self._replace(rng, "SplitMix64", CountedSplitMix64)
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()
        return False

    # ------------------------------------------------------------ wrappers

    def _timed(self, fn, layer, after, before=None, record=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            name = layer(args) if callable(layer) else layer
            self._depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth -= 1
                self.busy[name] += dt
                if not self._depth:
                    self.top_s += dt
            h0 = perf_counter()
            atoms = after(args, result) if after is not None else None
            if record is not None:
                self.calls.append({"fn": record, **self._ctx, "busy_s": dt, "atoms": atoms})
            if not self._depth:
                self.hook_s += perf_counter() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _context_only(self, fn):
        def wrapper(n, d):
            self._ctx = {"family": None, "stat": fn.__name__, "n": n, "cap": d}
            return fn(n, d)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_iter(self, fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["families.enumerated"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _spec_and_stat(self, args) -> None:
        spec, stat = args[0], str(args[1])
        self._ctx = {"family": spec.family, "stat": stat, "n": spec.n, "cap": spec.cap}

    def _spec_only(self, args) -> None:
        spec = args[0]
        self._ctx = {"family": spec.family, "stat": None, "n": spec.n, "cap": spec.cap}

    def _count(self, key):
        def after(args, result):
            self.counts[key] += 1

        return after

    def _after_dist(self, args, result) -> int:
        items = result.items()
        self.counts["exactdist.dist.calls"] += 1
        self.counts["exactdist.dist.atoms"] += len(items)
        bits = max(w.bit_length() for _, w in items)
        self.counts["exactdist.dist.weight_bits_max"] = max(
            self.counts["exactdist.dist.weight_bits_max"], bits)
        return len(items)

    def _after_moments(self, args, result) -> int:
        self.counts["exactdist.moments.calls"] += 1
        return len(args[0].items())

    def _after_gauss(self, args, result) -> int:
        atoms = len(args[0].items())
        self.counts["gaussref.atoms"] += atoms
        return atoms

    def _after_roots(self, args, result) -> int:
        degree = result[1].degree
        self.counts["polya.pf_real_roots.calls"] += 1
        self.counts["polya.degree_sum"] += degree
        return degree

    def _after_sample(self, args, result) -> int:
        self.counts["families.sample.vectors"] += len(result)
        return len(result)

    # -------------------------------------------------------------- report

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["rng.words"] = sum(((g._state - g._start) * _GAMMA_INV) & _MASK for g in self._rngs)
        return {
            "busy": dict(self.busy),
            "counts": counts,
            "top_s": self.top_s,
            "hook_s": self.hook_s,
            "calls": self.calls,
        }
