"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q      # from the root of the repository
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from harness import OUT_DIR, Checker, Pass, child_env, load_digests, run_pass, sample_problem  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, ops_for  # noqa: E402



def _deadline() -> float:
    return perf_counter() + 120


def _ops(workload, names, seed=DEFAULT_SEED):
    ops = {op.name: op for op in ops_for(workload, seed)}
    return [ops[name] for name in names]


def _failed(p: Pass) -> int:
    return sum(1 for r in p.results if r.problem and not r.op.probe)


def test_tampered_digest_adds_exactly_one_failure():
    ops = _ops("tables", ["table1", "table3", "probe-k1"]) + _ops("certify", ["verify"])
    env = child_env(ROOT)
    digests = load_digests()
    assert _failed(run_pass(ops, ROOT, env, Checker(digests, DEFAULT_SEED), _deadline())[0]) == 0
    tampered = dict(digests, table3="0" * 64)
    assert _failed(run_pass(ops, ROOT, env, Checker(tampered, DEFAULT_SEED), _deadline())[0]) == 1


def test_tracing_keeps_stdout_identical():
    ops = (_ops("tables", ["table1", "table8", "probe-d0"])
           + _ops("distance", ["distance-strict-length-d1-n10..60"])
           + _ops("certify", ["verify"])
           + _ops("sample", ["sample-strict-d2-n50"]))
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    (p,) = run_pass(ops, ROOT, child_env(ROOT), Checker(load_digests(), DEFAULT_SEED), _deadline(),
                    (True,))
    assert [r.problem for r in p.results if not r.op.probe] == [None] * (len(ops) - 1)
    values = harness.traced_metrics(p)
    assert values["families.sample.vectors"] == 4000 + 2 * 5  # verify draws twice 5
    assert values["polya.degree_sum"] == 432
    assert values["distributions.convolve.calls"] > 0
    # the wrapped layers, not the CLI's own code, hold most of the command time
    assert values["layers.top_s"] >= 0.7 * values["cli.command_s"]


def test_a_seeded_run_still_checks_the_pinned_stream(monkeypatch):
    tampered = dict(load_digests(), **{"sample-core-d3-n50": "0" * 64})
    monkeypatch.setattr(harness, "load_digests", lambda: tampered)
    run = harness.run_workload("sample", 1, 0, False, ROOT)
    assert [r.op.name for r in run.failures] == ["sample-core-d3-n50"]
    assert run.failures[0] in run.pin_check.results
    assert "--seed 0" in " ".join(run.failures[0].op.argv)


def test_tracer_restores_every_wrapped_name():
    from tracer import Tracer

    def snapshot():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name.split(".")[0] == "coreperim" for attr, value in vars(mod).items()}

    from coreperim import cli, exactdist

    before = snapshot()
    with Tracer() as tracer:
        assert cli.dist_statistic is not before[("coreperim.cli", "dist_statistic")]
        assert exactdist.convolve is not before[("coreperim.exactdist", "convolve")]
    after = snapshot()
    assert all(after[key] is before[key] for key in before)
    assert not tracer._patched


def test_rng_words_match_the_draws():
    from coreperim import families, rng
    from tracer import Tracer

    spec = families.FamilySpec("strict", 12, 2)
    with Tracer() as tracer:
        families.sample(spec, seed=5, count=50)
    drawn = 0
    original = rng.SplitMix64.next64

    def counting(self):
        nonlocal drawn
        drawn += 1
        return original(self)

    rng.SplitMix64.next64 = counting
    try:
        families.sample(spec, seed=5, count=50)
    finally:
        rng.SplitMix64.next64 = original
    assert tracer.report()["counts"]["rng.words"] == drawn > 0


def test_seed_reaches_only_sample():
    for workload in WORKLOADS:
        a, b = ops_for(workload, 1), ops_for(workload, 2)
        if workload != "sample":
            assert a == b
            continue
        for x, y in zip(a, b):
            diff = [(u, v) for u, v in zip(x.argv, y.argv) if u != v]
            assert diff == [("1", "2")] and x.argv[x.argv.index("1") - 1] == "--seed"
    env = child_env(ROOT)
    outs = []
    for seed in (1, 2):
        (op,) = _ops("sample", ["sample-selfconj-e2-n50"], seed)
        cmd = harness.op_command(op)
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True).stdout
        assert sample_problem(op, out) is None
        outs.append(out)
    assert outs[0] != outs[1]


def test_declared_metrics_are_measured():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_values = harness.traced_metrics(Pass())
    layer_values["tracing.overhead_s"] = 0.0
    assert {m["name"] for m in spec["per_layer"]} <= set(layer_values)
    fake = harness.Run("certify", DEFAULT_SEED, passes=[Pass([harness.OpResult(
        ops_for("certify", 0)[0], 1.0, None)])], setup=[0.2])
    assert {m["name"] for m in spec["end_to_end"]} == set(fake.end_to_end())


def test_refuses_a_directory_without_the_source_tree():
    bare = ROOT / OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables",
                               "--seed", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
