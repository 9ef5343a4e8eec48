"""Run workload operations as child processes, check them, and time them.

One client, closed loop: each operation starts after the previous one has
ended, and only one child runs at a time.  An operation fails when its exit
status is not the expected one, when stderr holds a traceback (or, for an
expected error, more than one line), or when its stdout is not the output
pinned in digests.json.  For `sample` with a seed other than the default,
whose output has no pin, every line of the first pass is checked instead:
the vector is a family member and its decoded partition re-encodes to it.
Later passes must then repeat the first pass byte for byte.  Such a run also
runs the seeded operations once at the default seed, before the timed
passes, and checks them against their pins, so every run compares the v1
sample stream to its pinned bytes.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, Op, ops_for

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ".perfbench-out"
SETUP_CODE = "import coreperim.cli as cli; cli.build_parser()"
SETUP_RUNS = 15  # launches per run, about; see SetupClock
DEADLINE_S = 150.0  # stop starting work after this, so a run ends within 180 s


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def op_command(op: Op, trace_path: Path | None = None) -> list[str]:
    if trace_path is None and not op.is_lib:
        return [sys.executable, "-m", "coreperim.cli", *op.argv]
    head = [sys.executable, str(HERE / "child.py")]
    if trace_path is not None:
        head += ["--trace", str(trace_path)]
    return head + (list(op.argv) if op.is_lib else ["cli", *op.argv])


def load_digests() -> dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _member(family: str, cap: int, n: int, x: list) -> bool:
    # the family rules restated here, so the check does not trust the sampler's package
    width = n if family == "selfconj" else n - 1
    if len(x) != width or any(not (isinstance(v, int) and 0 <= v <= cap) for v in x):
        return False
    if family == "strict":
        return all(a * b == 0 for a, b in zip(x, x[1:]))
    if family == "selfconj":
        return all(x[i] * x[n - 1 - i] == 0 for i in range(n))
    return True


def sample_problem(op: Op, out: bytes) -> str | None:
    """Check each JSON line of a `sample --decode` output on its own."""
    from coreperim import encode_core, encode_selfconj, parse_partition

    flags = dict(zip(op.argv[1::2], op.argv[2::2]))
    family, n, count = flags["--family"], int(flags["--n"]), int(flags["--count"])
    cap = int(flags["--e"] if family == "selfconj" else flags["--d"])
    encode = encode_selfconj if family == "selfconj" else encode_core
    lines = out.decode().splitlines()
    if len(lines) != count:
        return f"{len(lines)} lines, expected {count}"
    for i, line in enumerate(lines):
        record = json.loads(line)
        x = record["x"]
        if set(record) != {"x", "partition"} or not _member(family, cap, n, x):
            return f"line {i + 1}: {line[:60]} is not a {family} vector"
        if list(encode(parse_partition(record["partition"]), n, cap).x) != x:
            return f"line {i + 1}: the partition does not re-encode to x"
    return None


class Checker:
    """Decides whether an operation's result is the one pinned for it."""

    def __init__(self, digests: dict[str, str], seed: int):
        self.digests = digests
        self.seed = seed
        self._first: dict[str, str] = {}  # seeded op -> digest of its checked first pass

    def problem(self, op: Op, rc: int, out: bytes, err: bytes) -> str | None:
        if rc != op.expect_rc:
            return f"exit {rc}, expected {op.expect_rc}"
        if b"Traceback" in err:
            return "traceback on stderr"
        if op.expect_rc and len(err.splitlines()) != 1:
            return "error message is not one line"
        digest = hashlib.sha256(out).hexdigest()
        if not (op.seeded and self.seed != DEFAULT_SEED):
            return None if digest == self.digests.get(op.name) else "stdout differs from the pin"
        if op.name not in self._first:
            bad = sample_problem(op, out)
            if bad:
                return bad
            self._first[op.name] = digest
        return None if digest == self._first[op.name] else "stdout differs from the first pass"


@dataclass
class OpResult:
    op: Op
    wall_s: float
    problem: str | None
    trace: dict | None = None


@dataclass
class Pass:
    results: list[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def items(self) -> int:
        return sum(r.op.items for r in self.results if r.problem is None)


def run_op(op: Op, root: Path, env: dict, checker: Checker, timeout: float,
           trace_path: Path | None = None) -> OpResult:
    t0 = perf_counter()
    try:
        proc = subprocess.run(op_command(op, trace_path), cwd=root, env=env,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return OpResult(op, perf_counter() - t0, f"no result within {timeout:.0f} s")
    wall = perf_counter() - t0
    problem = checker.problem(op, proc.returncode, proc.stdout, proc.stderr)
    trace = None
    if trace_path is not None:
        try:
            with open(trace_path) as fh:
                trace = json.load(fh)
            trace_path.unlink()
        except FileNotFoundError:
            problem = problem or "no trace written"
    return OpResult(op, wall, problem, trace)


def run_pass(ops: list[Op], root: Path, env: dict, checker: Checker, deadline: float,
             traced: tuple[bool, ...] = (False,), after_op=None) -> list[Pass]:
    """One pass per entry of `traced`, interleaved op by op.

    An op's untraced and traced runs follow each other, so both see the same
    machine speed and their difference is the tracing overhead.  `after_op`,
    if given, is called after each op, outside its timing.
    """
    done = [Pass() for _ in traced]
    for i, op in enumerate(ops):
        for p, trace in zip(done, traced):
            timeout = max(1.0, deadline - perf_counter())
            path = root / OUT_DIR / f"span-{i}.json" if trace else None
            result = run_op(op, root, env, checker, timeout, path)
            p.results.append(result)
            if result.problem and result.problem.startswith("no result"):
                return done
        if after_op:
            after_op()
    return done


class SetupClock:
    """Fresh interpreters that import the CLI and build its parser.

    The launches are spread evenly over the run, between operations, so the
    median sees the same changes in machine speed as the timed passes.
    """

    def __init__(self, root: Path, env: dict, every_s: float):
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.root, self.env, self.every_s = root, env, every_s
        subprocess.run(self.cmd, cwd=root, env=env, check=True)  # compiles bytecode once
        self.times: list[float] = []
        self.spent_s = 0.0  # time in launches, kept out of the run's budget
        self.next_at = 0.0

    def tick(self) -> None:
        if perf_counter() < self.next_at:
            return
        t0 = perf_counter()
        subprocess.run(self.cmd, cwd=self.root, env=self.env, check=True)
        t1 = perf_counter()
        self.times.append(t1 - t0)
        self.spent_s += t1 - t0
        self.next_at = t1 + self.every_s


def traced_metrics(p: Pass) -> dict[str, float]:
    """Per-layer totals of one traced pass."""
    from tracer import COUNTS, LAYERS

    values = dict.fromkeys([f"{layer}.busy_s" for layer in LAYERS] + list(COUNTS), 0)
    command = top = hooks = 0.0
    for r in p.results:
        if r.trace is None:
            continue
        for name, s in r.trace["busy"].items():
            values[f"{name}.busy_s"] = values.get(f"{name}.busy_s", 0) + s
        for name, c in r.trace["counts"].items():
            old = values.get(name, 0)
            values[name] = max(old, c) if name.endswith("_max") else old + c
        command += r.trace["command_s"]
        top += r.trace["top_s"]
        hooks += r.trace["hook_s"]
    values["cli.command_s"] = command
    values["cli.self_s"] = command - top - hooks
    values["cli.startup_s"] = p.wall_s - command
    values["layers.top_s"] = top
    values["tracing.hook_s"] = hooks
    return values


@dataclass
class Run:
    workload: str
    seed: int
    passes: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    pin_check: Pass = field(default_factory=Pass)  # seeded ops at the default seed, untimed

    def all_results(self):
        for p in [self.pin_check] + self.passes + self.traced:
            yield from p.results

    @property
    def attempted(self) -> int:
        return sum(not r.op.probe for r in self.all_results())

    @property
    def failures(self) -> list[OpResult]:
        return [r for r in self.all_results() if r.problem and not r.op.probe]

    def probes(self) -> list[OpResult]:
        """Known-defect probes of the last pass."""
        return [r for r in self.passes[-1].results if r.op.probe]

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(p.wall_s for p in self.passes),
            "items_per_s": statistics.median(p.items / p.wall_s for p in self.passes),
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        per_pass = [traced_metrics(p) for p in self.traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["tracing.overhead_s"] = (statistics.median(p.wall_s for p in self.traced)
                                        - statistics.median(p.wall_s for p in self.passes))
        return values

    def call_records(self):
        """One record per coarse library call of the last traced pass."""
        for r in self.traced[-1].results:
            for call in (r.trace or {}).get("calls", []):
                yield {"op": r.op.name, **call}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> Run:
    """Whole passes of the workload until the next one would pass `seconds`.

    With trace, each round is an untraced and a traced pass, interleaved.
    Without, set-up launches run between operations and stay out of the
    `seconds` budget.
    """
    start = perf_counter()
    deadline = start + DEADLINE_S
    env = child_env(root)
    (root / OUT_DIR).mkdir(exist_ok=True)
    run = Run(workload, seed)
    clock = SetupClock(root, env, seconds / SETUP_RUNS)
    ops = ops_for(workload, seed)
    digests = load_digests()
    checker = Checker(digests, seed)
    if seed != DEFAULT_SEED:
        pinned = [op for op in ops_for(workload, DEFAULT_SEED) if op.seeded]
        (run.pin_check,) = run_pass(pinned, root, env, Checker(digests, DEFAULT_SEED), deadline)
    if not trace:
        clock.tick()
    t0 = perf_counter()
    longest = 0.0
    while True:
        r0, spent = perf_counter(), clock.spent_s
        if trace:
            plain, traced = run_pass(ops, root, env, checker, deadline, (False, True))
            run.traced.append(traced)
        else:
            (plain,) = run_pass(ops, root, env, checker, deadline, after_op=clock.tick)
        run.passes.append(plain)
        now = perf_counter()
        longest = max(longest, now - r0 - (clock.spent_s - spent))
        if now - t0 - clock.spent_s + longest > seconds or now + longest > deadline:
            run.setup = clock.times
            return run
