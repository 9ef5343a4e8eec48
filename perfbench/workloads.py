"""The four benchmark workloads, as lists of operations.

An operation is one child process, run the way a user would run it: a CLI
operation is `python -m coreperim.cli ARGS`, a library operation is a short
script calling the public API (see child.py).  Each operation names the
exit code it should end with and how many units of work it completes, so
`items_per_s` can be computed without parsing the output.

Why these workloads:
  tables    moments only, but every column builds a full pmf; the DP and
            the moment reduction dominate, and the selfconj power:3 columns
            set the peak RSS.
  distance  the same DP engines, with every atom consumed by dK/dW
            (gaussref); a moment engine that skips the pmf must not move it.
  certify   certified real roots (polya), plus the enumeration and codec
            round trips inside `verify`; absent from every other workload.
  sample    the uniform samplers, the SplitMix64 stream and the decoders;
            the only workload where families.sample and codec.decode work.

Not run: selfconj power:3 with n >= 20.  Its pmf has millions of atoms and
the DP has no memory guard, so it can exhaust a shared machine's memory.  It
is a known defect the benchmark cannot run safely, not a passing case.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
K_ROWS = 6  # moment orders 3..8

GOLDEN = (
    # (table, family, stat, cap flag, cap, n range)
    (1, "core", "length", "--d", 3, (5, 14)),
    (2, "core", "size", "--d", 3, (5, 14)),
    (3, "strict", "length", "--d", 2, (8, 17)),
    (4, "strict", "size", "--d", 2, (8, 17)),
    (5, "selfconj", "power:0", "--e", 2, (6, 15)),
    (6, "selfconj", "power:1", "--e", 2, (6, 15)),
    (7, "selfconj", "power:2", "--e", 2, (6, 15)),
    (8, "selfconj", "power:3", "--e", 2, (6, 15)),
)

BEYOND_GOLDEN = (
    ("core", "size", "--d", 3, (15, 20)),
    ("strict", "size", "--d", 2, (18, 32)),
    ("core", "length", "--d", 3, (200, 203)),
    ("selfconj", "power:3", "--e", 2, (16, 17)),
)

# Malformed requests that should end in exit 1 with a one-line message.
# At the commit that added the benchmark each one ends in a traceback.
PROBES = (
    # (name, --d, --k)
    ("probe-k1", "3", "1..1"),  # IndexError in the moment report
    ("probe-k0", "3", "0..2"),  # KeyError 0
    ("probe-d0", "0", "3..8"),  # KeyError 3 at zero variance
)

DISTANCES = (
    ("core", "size", "--d", 3, (20, 23)),
    ("strict", "size", "--d", 2, (40, 44)),
    ("selfconj", "power:2", "--e", 2, (16, 19)),
    ("strict", "length", "--d", 1, (10, 60)),
)

BERNOULLI_N = (10, 20, 30, 40)
BERNOULLI_D = (1, 2, 3)
# `verify` certifies the roots of u_polynomial(n, d), degree n // 2, for
# n in 2..24 and d in 1..3 (cli._verify_checks).
VERIFY_ROOTS = 3 * sum(n // 2 for n in range(2, 25))

SAMPLES = (("core", "--d", 3), ("strict", "--d", 2), ("selfconj", "--e", 2))
SAMPLE_N = 50
SAMPLE_COUNT = 4000

WORKLOADS = ("tables", "distance", "certify", "sample")


@dataclass(frozen=True)
class Op:
    name: str  # stable id, the key of the pinned digest
    argv: tuple[str, ...]  # CLI arguments, or ("lib", name) for a library op
    items: int  # units of work the op completes
    expect_rc: int = 0
    probe: bool = False  # a known-defect probe: reported, not counted as failed
    seeded: bool = False  # stdout depends on the workload seed

    @property
    def is_lib(self) -> bool:
        return self.argv[0] == "lib"


def _span(lo_hi) -> str:
    return f"{lo_hi[0]}..{lo_hi[1]}"


def _width(lo_hi) -> int:
    return lo_hi[1] - lo_hi[0] + 1


def _tables() -> list[Op]:
    ops = []
    for table, fam, stat, flag, cap, ns in GOLDEN:
        argv = ("moments", "--family", fam, "--stat", stat, flag, str(cap),
                "--n", _span(ns), "--k", "3..8", "--diff", f"golden/table{table}.csv")
        ops.append(Op(f"table{table}", argv, K_ROWS * _width(ns)))
    for fam, stat, flag, cap, ns in BEYOND_GOLDEN:
        argv = ("moments", "--family", fam, "--stat", stat, flag, str(cap),
                "--n", _span(ns), "--k", "3..8")
        ops.append(Op(f"moments-{fam}-{stat}-{flag[2:]}{cap}-n{_span(ns)}", argv,
                      K_ROWS * _width(ns)))
    for name, cap, ks in PROBES:
        argv = ("moments", "--family", "core", "--stat", "length", "--d", cap,
                "--n", "5..6", "--k", ks)
        ops.append(Op(name, argv, 0, expect_rc=1, probe=True))
    return ops


def _distance() -> list[Op]:
    ops = []
    for fam, stat, flag, cap, ns in DISTANCES:
        argv = ("distance", "--family", fam, "--stat", stat, flag, str(cap), "--n", _span(ns))
        ops.append(Op(f"distance-{fam}-{stat}-{flag[2:]}{cap}-n{_span(ns)}", argv, _width(ns)))
    argv = ("dist", "--family", "strict", "--stat", "size", "--d", "2", "--n", "50")
    ops.append(Op("dist-strict-size-d2-n50", argv, 1))
    return ops


def _certify() -> list[Op]:
    roots = sum(n // 2 for n in BERNOULLI_N) * len(BERNOULLI_D)
    return [Op("verify", ("verify",), VERIFY_ROOTS), Op("bernoulli", ("lib", "bernoulli"), roots)]


def _sample(seed: int) -> list[Op]:
    ops = []
    for fam, flag, cap in SAMPLES:
        argv = ("sample", "--family", fam, flag, str(cap), "--n", str(SAMPLE_N),
                "--seed", str(seed), "--count", str(SAMPLE_COUNT), "--decode")
        ops.append(Op(f"sample-{fam}-{flag[2:]}{cap}-n{SAMPLE_N}", argv, SAMPLE_COUNT,
                      seeded=True))
    return ops


def ops_for(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the seed reaches only `sample --seed`."""
    if workload == "tables":
        return _tables()
    if workload == "distance":
        return _distance()
    if workload == "certify":
        return _certify()
    if workload == "sample":
        return _sample(seed)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
