"""Repeat the benchmark over seeds and summarise the run-to-run spread.

    python3 perfbench/record.py --runs 10 --first-seed 1 [--save set-a]

Runs `run.py --workload W --seed S --trace 0` for each seed and workload
(workloads interleaved, so drift in machine load reaches all of them), then
prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to a
third of the metric's bound.  --save stores the set, with the machine and
interpreter it ran on, under that name in record.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RECORD = HERE / "record.json"
NOTES = [
    "Each set is one seed range run through every workload on one machine; a later "
    "change compares its own sets against these medians with the bounds of BENCHMARK.json.",
    "The baseline table in ROADMAP.md and the committed test_output.txt came from other "
    "conditions (one run per point, other machines) and are not this baseline.",
    "Not run: selfconj power:3 with n >= 20. Its pmf DP has no memory guard and can "
    "exhaust a shared machine's memory; it is a known defect, not a passing case.",
    "tables runs three malformed requests (moments --k 1..1, --k 0..2, --d 0) that should "
    "exit 1 with a one-line message; they end in a traceback at the measured commit and "
    "are reported as failing known-defect probes, outside `failed`.",
]


def _git_sha(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="name of the set in record.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = WORKLOADS
    load_start = os.getloadavg()
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout.splitlines()[-1])
            results[w].append(out)
            walls = proc.stdout.splitlines()[0].split("pass wall_s:")[1].strip()
            print(f"seed {seed} {w}: failed {out['failed']}/{out['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                  + f" passes [{walls}]", flush=True)
    load_end = os.getloadavg()
    summary = {}
    print(f"\n{'workload':9s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound/3':>7s}")
    for w in workloads:
        summary[w] = {"attempted": [r["attempted"] for r in results[w]],
                      "failed": [r["failed"] for r in results[w]]}
        for m in spec["end_to_end"]:
            s = summarise([r["metrics"][m["name"]]["value"] for r in results[w]])
            summary[w][m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  WIDE"
            print(f"{w:9s} {m['name']:12s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
                  f"{s['spread']:7.3f} {m['bound'] / 3:7.3f}{flag}")
    if args.save:
        record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        record["notes"] = NOTES
        record.setdefault("sets", {})[args.save] = {
            "git_sha": _git_sha(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "seconds": seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "workloads": summary,
        }
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
