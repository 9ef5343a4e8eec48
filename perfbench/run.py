"""coreperim benchmark: end-to-end timings, exact output checks, traced layers.

Run from the root of a checkout (the directory holding src/ and golden/):

    python3 perfbench/run.py --workload tables --seed 1 --trace 0
    python3 perfbench/run.py --workload all                 # every workload, one table
    python3 perfbench/run.py --pin   # record stdout digests of the current code

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 its per_layer metrics and writes one
record per library call to .perfbench-out/calls-<workload>-seed<seed>.jsonl.
Known-defect probes are reported on their own line and are not counted in
`failed`; see workloads.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, ops_for

HERE = Path(__file__).resolve().parent
PROBE_LINE = "  known-defect probes still failing:"
UNITS_NOTE = {
    "wall_s": "median pass",
    "items_per_s": "median pass",
    "setup_s": "median of fresh interpreters",
    "peak_rss_mb": "largest child max-RSS",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _metrics(values: dict[str, float], declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_one(args, root: Path, spec: dict) -> int:
    from harness import OUT_DIR, run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)
    walls = " ".join(f"{p.wall_s:.3f}" for p in run.passes)
    print(f"perfbench: workload={run.workload} seed={run.seed} trace={args.trace} "
          f"passes={len(run.passes)} pass wall_s: {walls}")
    if args.trace:
        values = run.per_layer()
        declared = spec["per_layer"]
        records = root / OUT_DIR / f"calls-{run.workload}-seed{run.seed}.jsonl"
        with open(records, "w") as fh:
            for record in run.call_records():
                fh.write(json.dumps(record) + "\n")
        for name, value in values.items():
            print(f"  {name:40s} {value:.6g}")
        print(f"  command time {values['cli.command_s']:.3f} s = top-level layers "
              f"{values['layers.top_s']:.3f} s + cli.self_s {values['cli.self_s']:.3f} s "
              f"+ tracer hooks {values['tracing.hook_s']:.3f} s; process start and exit "
              f"{values['cli.startup_s']:.3f} s; call records in {records.relative_to(root)}")
    else:
        values = run.end_to_end()
        declared = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        for name, value in values.items():
            print(f"  {name:14s} {value:12.4f} {units.get(name, ''):6s} ({UNITS_NOTE[name]})")
    failures = run.failures
    print(f"  {'ops_total':14s} {run.attempted:7d} count")
    print(f"  {'ops_failed':14s} {len(failures):7d} count")
    for r in failures:
        print(f"    FAILED {r.op.name}: {r.problem}")
    probes = run.probes()
    if probes:
        failing = [r for r in probes if r.problem]
        print(f"{PROBE_LINE} {len(failing)} of {len(probes)} "
              f"(not counted in ops_failed)")
        for r in failing:
            print(f"    {r.op.name} ({' '.join(r.op.argv)}): {r.problem}")
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": len(failures),
        "metrics": _metrics(values, declared),
    }
    print(json.dumps(result))
    return 0


def run_all(args, root: Path) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        rows[workload] = json.loads(proc.stdout.splitlines()[-1])
        rows[workload]["probes"] = sum(int(line.split(":")[1].split()[0])
                                       for line in proc.stdout.splitlines()
                                       if line.startswith(PROBE_LINE))
    print(f"\n{'metric':14s} {'unit':6s}" + "".join(f"{w:>12s}" for w in WORKLOADS))
    first = rows[WORKLOADS[0]]["metrics"]
    for name, m in first.items():
        print(f"{name:14s} {m['unit']:6s}"
              + "".join(f"{rows[w]['metrics'][name]['value']:12.4f}" for w in WORKLOADS))
    for key, label in (("attempted", "ops_total"), ("failed", "ops_failed"),
                       ("probes", "probes_failing")):
        print(f"{label:14s} {'count':6s}" + "".join(f"{rows[w][key]:12d}" for w in WORKLOADS))
    return 0


def pin(root: Path) -> int:
    """Record the sha256 of every operation's stdout at the default seed."""
    from harness import child_env, op_command

    env = child_env(root)
    digests = {}
    for workload in WORKLOADS:
        for op in ops_for(workload, DEFAULT_SEED):
            proc = subprocess.run(op_command(op), cwd=root, env=env, capture_output=True)
            digests[op.name] = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{op.name}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # --seconds is part of the benchmark's calling convention, which always passes it
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "coreperim" / "cli.py").is_file():
        return _fail(f"{root} holds no coreperim source tree (src/coreperim); "
                     "run from the root of a checkout")
    bench = root / "BENCHMARK.json"
    if not bench.is_file():
        return _fail(f"{bench} is missing")
    with open(bench) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(root / "src"))
    if args.pin:
        return pin(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
