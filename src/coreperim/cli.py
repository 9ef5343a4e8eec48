"""Command-line front end.

Subcommands: moments (standardized-moment tables), dist (exact pmf dumps),
distance (distance-to-normal rate tables), sample (uniform vectors or
decoded partitions), verify (invariant suite).

Exit codes: 0 ok, 1 usage or infeasible request, 2 verification or diff
failure.  CSV output is comma separated, LF line endings, '.' decimals,
no locale anywhere.
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import partial

from . import families
from .exactdist import (
    PMF_BYTE_BUDGET,
    RANGE_LIMIT,
    dist_statistic,
    mixture_identity_check,
    moment_report,
    refuse_moments,
    refuse_wide,
)
from .families import ENUMERATION_LIMIT, FamilySpec

DIFF_TOLERANCE = 0.001 + 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract says 1
    def error(self, message):
        raise _UsageError(message)


def parse_range(text: str) -> list[int]:
    """'a..b' inclusive, or a single integer; a span over RANGE_LIMIT values is refused."""
    if ".." in text:
        a, _, b = text.partition("..")
        lo, hi = int(a), int(b)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        if hi - lo + 1 > RANGE_LIMIT:
            raise ValueError(
                f"range {text!r} spans {hi - lo + 1} values, over the limit of {RANGE_LIMIT}"
            )
        return list(range(lo, hi + 1))
    return [int(text)]


def _load_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line {line!r} is not key=value")
            out[key.strip()] = value.strip()
    return out


# built-in values, applied after the config file to flags still unset
_DEFAULTS = {"stat": "length", "k": "3..8", "count": "1", "decode": False, "quick": False}
_SWITCHES = ("decode", "quick")


def _resolve_flags(args):
    """Every flag as the command line, else the config file, else its built-in value."""
    conf = _load_config(args.config) if args.config else {}
    for key, value in conf.items():
        attr = key.replace("-", "_")
        if attr in ("command", "func", "config") or not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if attr in _SWITCHES:
            if value not in ("true", "false"):
                raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
            value = value == "true"
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    for attr, value in _DEFAULTS.items():
        if getattr(args, attr, False) is None:
            setattr(args, attr, value)


def _sweep_from(args) -> tuple[str, int, list[int]]:
    """(family, cap, ns) from --family, --d or --e, and --n."""
    family = args.family
    if family is None:
        raise ValueError("--family is required")
    cap = args.e if family == "selfconj" else args.d
    if cap is None:
        flag = "--e" if family == "selfconj" else "--d"
        raise ValueError(f"{flag} is required for family {family!r}")
    if args.n is None:
        raise ValueError("--n is required")
    return family, int(cap), parse_range(str(args.n))


def _spec_from(args) -> FamilySpec:
    family, cap, ns = _sweep_from(args)
    if len(ns) != 1:
        raise ValueError("this subcommand takes a single --n, not a range")
    return FamilySpec(family, ns[0], cap)


def _run_columns(work, jobs: list, workers) -> dict:
    """dict(map(work, jobs)), on min(--jobs, columns, CPUs) worker processes.

    One worker or fewer runs in this process, and the pool module is
    imported only when a pool is started.
    """
    count = min(int(workers or 1), len(jobs), os.cpu_count() or 1)
    if count <= 1:
        return dict(map(work, jobs))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=count) as pool:
        return dict(pool.map(work, jobs))


def _write_out(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- moments

def _moment_column(job):
    family, cap, n, stat, k_lo, k_hi = job
    report = moment_report(FamilySpec(family, n, cap), stat, k_hi)
    return n, [report.standardized[k] for k in range(k_lo, k_hi + 1)]


def _check_moment_request(family: str, cap: int, ns: list[int], ks: list[int], stat) -> None:
    """Refuse, before any work, a table with no standardized moments to print
    or one whose last, dearest column `refuse_moments` refuses."""
    if ks[0] < 3:
        raise ValueError(
            f"--k must start at 3 or above (m1 = 0 and m2 = 1 always), got {ks[0]}"
        )
    for n in ns:
        FamilySpec(family, n, cap)
    if cap == 0:
        # cap 0 leaves one member; with cap >= 1 every statistic varies
        raise ValueError(
            f"zero variance at family {family}, stat {stat}, n {ns[0]}, cap 0: "
            "standardized moments are undefined"
        )
    refuse_moments(FamilySpec(family, ns[-1], cap), stat, ks[-1])


def cmd_moments(args) -> int:
    family, cap, ns = _sweep_from(args)
    ks = parse_range(args.k)
    _check_moment_request(family, cap, ns, ks, args.stat)
    golden = None
    if args.diff:  # read before any column is computed
        try:
            with open(args.diff, encoding="utf-8") as fh:
                golden = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"golden file {args.diff} is not UTF-8: {exc}") from None
    jobs = [(family, cap, n, args.stat, ks[0], ks[-1]) for n in ns]
    columns = _run_columns(_moment_column, jobs, args.jobs)
    lines = ["k," + ",".join(str(n) for n in ns)]
    for row, k in enumerate(ks):
        lines.append(f"{k}," + ",".join(columns[n][row] for n in ns))
    table = "\n".join(lines) + "\n"
    _write_out(table, args.out)
    if args.diff:
        return _diff_tables(table, golden, args.diff)
    return 0


def _parse_cells(text: str) -> list[list[str]]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([c.strip() for c in line.split(",")])
    return rows


def _diff_tables(produced: str, golden: str, golden_path: str) -> int:
    ours = _parse_cells(produced)
    theirs = _parse_cells(golden)
    problems = []
    if not theirs:
        problems.append(f"golden file {golden_path} has no table rows")
    elif ours[:1] != theirs[:1]:
        problems.append(f"header mismatch: {ours[0]} vs {theirs[0]}")
    elif len(ours) != len(theirs):
        problems.append(f"row count {len(ours)} vs {len(theirs)}")
    else:
        for ra, rb in zip(ours[1:], theirs[1:]):
            if ra[0] != rb[0] or len(ra) != len(rb):
                problems.append(f"row shape mismatch at k={ra[0]} vs k={rb[0]}")
                continue
            for col, (a, b) in enumerate(zip(ra[1:], rb[1:]), start=1):
                # `not <=` so that a nan on either side counts as drift
                if not abs(float(a) - float(b)) <= DIFF_TOLERANCE:
                    problems.append(
                        f"k={ra[0]} {ours[0][col]}: {a} differs from golden {b}"
                    )
    for msg in problems:
        print(f"diff: {msg}", file=sys.stderr)
    return 2 if problems else 0


# ------------------------------------------------------------------- dist

def cmd_dist(args) -> int:
    spec = _spec_from(args)
    dist = dist_statistic(spec, args.stat)
    lines = [f"# total={dist.total}", "value,weight"]
    lines += [f"{v},{w}" for v, w in dist.items()]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


# --------------------------------------------------------------- distance

def _distance_row(rate_table, job):
    family, cap, n, stat = job
    return n, rate_table(family, stat, cap, [n])[0]


def cmd_distance(args) -> int:
    from . import gaussref  # only distance reads it; other commands start without it

    family, cap, ns = _sweep_from(args)
    jobs = [(family, cap, n, args.stat) for n in ns]
    produced = _run_columns(partial(_distance_row, gaussref.rate_table), jobs, args.jobs)
    rows = [produced[n] for n in ns]
    _write_out(gaussref.rate_table_csv(rows), args.out)
    return 0


# ----------------------------------------------------------------- sample

# A decoded partition in flight takes about this many bytes a part (core d=999
# n=1000: 511 455 parts, 3.0 MB of output, a 73 MB child peak)
DECODE_PART_BYTES = 110


def _refuse_held(spec: FamilySpec, count: int, decode: bool) -> None:
    """Refuse, before the first draw, a `sample` whose vectors, lines and one
    decode in flight may take more than PMF_BYTE_BUDGET bytes.

    A line holds the vector's digits and, decoded, at most n*cap parts of at
    most n*cap each; it is held twice, as itself and in the joined output.
    A vector is a tuple of its coordinates, whose ints above 256 are objects
    of their own.
    """
    parts = spec.n * spec.cap if decode else 0
    coordinate = 8 + (32 if spec.cap > 256 else 0)
    text = 64 + spec.width * (len(str(spec.cap)) + 2) + parts * (len(str(parts)) + 1)
    need = count * (2 * text + coordinate * spec.width + 100) + parts * DECODE_PART_BYTES
    if need > PMF_BYTE_BUDGET:
        raise ValueError(
            f"sample of {count} vectors at family {spec.family}, n {spec.n}, cap {spec.cap} "
            f"refused: it may hold {need} bytes, over PMF_BYTE_BUDGET = {PMF_BYTE_BUDGET}"
        )


def cmd_sample(args) -> int:
    from . import codec  # only sample and verify decode

    spec = _spec_from(args)
    if args.seed is None:
        raise ValueError("--seed is required")
    seed, count = int(args.seed), int(args.count)
    decode = None
    if args.decode:
        refuse_wide(spec, f"--decode at family {spec.family}, n {spec.n}, cap {spec.cap}")
        decode = codec.decode_selfconj if spec.family == "selfconj" else codec.decode_core
    _refuse_held(spec, count, bool(decode))
    as_vector = codec.as_vector
    if spec.cap <= 9:
        digits = bytes.maketrans(bytes(range(10)), b"0123456789")

        def entries(x):
            # one digit a coordinate: the vector's bytes as ASCII digits
            return bytes(x).translate(digits).decode()
    else:
        def entries(x):
            return map(str, x)

    # the same bytes as json.dumps: the values are ints, the partition digits and commas
    def line(x) -> str:
        head = '{"x": [' + ", ".join(entries(x)) + "]"
        if decode is None:
            return head + "}\n"
        return head + ', "partition": "' + str(decode(as_vector(spec, x))) + '"}\n'

    # the vectors are freed before the join, so the peak holds the lines and the text
    lines = list(map(line, families.sample(spec, seed=seed, count=count)))
    _write_out("".join(lines), args.out)
    return 0


# ----------------------------------------------------------------- verify

def _verify_checks(quick: bool, limit: int):
    from . import codec, polya  # only verify certifies roots; other commands start without polya

    def roundtrip(spec: FamilySpec, x) -> bool:
        vec = codec.as_vector(spec, x)
        if spec.family == "selfconj":
            return codec.encode_selfconj(codec.decode_selfconj(vec), spec.n, spec.cap) == vec
        return codec.encode_core(codec.decode_core(vec), spec.n, spec.cap) == vec

    n_code, cap_code = (5, 2) if quick else (7, 3)
    yield (
        "bijection round-trips",
        lambda: all(
            roundtrip(spec, x)
            for fam in families.FAMILIES
            for n in range(2, n_code + 1)
            for cap in range(0, cap_code + 1)
            for spec in [FamilySpec(fam, n, cap)]
            for x in families.enumerate_family(spec, limit=limit)
        ),
    )
    n_orc, cap_orc = (5, 2) if quick else (6, 3)
    yield (
        "oracle equivalence",
        lambda: all(
            families.oracle_distribution(spec, stat, limit=limit)
            == dist_statistic(spec, stat)
            for fam in families.FAMILIES
            for n in range(2, n_orc + 1)
            for cap in range(0, cap_orc + 1)
            for spec in [FamilySpec(fam, n, cap)]
            for stat in (
                ("length", "size", "durfee", "power:2")
                if fam == "selfconj"
                else ("length", "size")
            )
        ),
    )
    yield (
        "pinned partition codec example",
        lambda: _pinned_example(),
    )
    yield (
        "mixture identity",
        lambda: all(
            mixture_identity_check(FamilySpec("strict", n, d), stat)
            for n in range(2, 6 if quick else 7)
            for d in (1, 2)
            for stat in ("length", "size")
        ),
    )
    yield (
        "real roots with certificates",
        lambda: all(
            _roots_ok(n, d)
            for n in range(2, (12 if quick else 24) + 1)
            for d in (1, 2, 3)
        ),
    )
    yield (
        "mean and variance bounds for the match count",
        lambda: all(
            polya.u_mean_bounds(n, d).meets_upper
            for n in range(2, 101 if quick else 201)
            for d in (1, 2, 3)
        ),
    )
    yield (
        "sampler determinism",
        lambda: families.sample(FamilySpec("strict", 6, 2), seed=11, count=5)
        == families.sample(FamilySpec("strict", 6, 2), seed=11, count=5),
    )


def _pinned_example() -> bool:
    from . import codec
    from .partitions import beta_set, from_parts, is_s_core

    p = from_parts((6, 3, 2, 1))
    v = codec.encode_core(p, 4, 3)
    return (
        v.x == (3, 0, 1)
        and codec.decode_core(v) == p
        and codec.stat_length(v) == 4
        and codec.stat_size(v) == 12
        and beta_set(p) == (9, 5, 3, 1)
        and all(is_s_core(p, s) for s in (4, 6, 11))
    )


def _roots_ok(n: int, d: int) -> bool:
    from . import polya

    roots, cert = polya.pf_real_roots(polya.u_polynomial(n, d))
    return (
        cert.all_negative
        and cert.all_at_most(Fraction(-1, 4 * d))
        and all(polya.residual(polya.u_weights(n, d), r) <= 1e-9 for r in roots)
    )


def cmd_verify(args) -> int:
    limit = int(args.limit) if args.limit else ENUMERATION_LIMIT
    failures = 0
    for name, check in _verify_checks(bool(args.quick), limit):
        try:
            ok = check()
        except Exception as exc:  # surface, keep running the rest
            ok = False
            print(f"FAIL {name} ({exc})")
        else:
            print(("PASS " if ok else "FAIL ") + name)
        failures += not ok
    print(f"{'ok' if not failures else 'FAILED'}: {failures} failing check(s)")
    return 2 if failures else 0


# ------------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="coreperim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_n=True):
        p.add_argument("--family", choices=families.FAMILIES)
        p.add_argument("--stat", help="length | size | durfee | power:k")
        p.add_argument("--d", help="per-class capacity for core/strict")
        p.add_argument("--e", help="per-class capacity for selfconj")
        if with_n:
            p.add_argument("--n", help="modulus, or inclusive range a..b")
        p.add_argument("--config", help="key=value file supplying unset flags")
        p.add_argument("--out", "-o", help="write to file instead of stdout")

    p = sub.add_parser("moments", help="standardized-moment table (rows k, columns n)")
    add_common(p)
    p.add_argument("--k", help="moment orders, range a..b (default 3..8)")
    p.add_argument("--jobs", help="worker processes, capped at the column count and the CPU count")
    p.add_argument("--diff", help="golden CSV to compare against (exit 2 on drift)")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("dist", help="exact pmf dump as CSV")
    add_common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("distance", help="distance-to-normal rate table")
    add_common(p)
    p.add_argument("--jobs", help="worker processes, capped at the row count and the CPU count")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sample", help="uniform vectors as JSON lines")
    add_common(p)
    p.add_argument("--seed", help="PRNG seed (documented stream v1), required")
    p.add_argument("--count", help="vectors to draw (default 1)")
    p.add_argument("--decode", action=argparse.BooleanOptionalAction, default=None,
                   help="include the partition")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action=argparse.BooleanOptionalAction, default=None,
                   help="smaller exhaustive scales")
    p.add_argument("--limit", help="enumeration size guard")
    p.add_argument("--config", help="key=value file supplying unset flags")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve_flags(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
