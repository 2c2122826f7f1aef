"""Self-test of the benchmark at tiny sizes.

Run from the root of a repro checkout::

    python3 -m pytest perfbench/test_benchmark.py -q

It checks that every metric ``BENCHMARK.json`` names is emitted with
its unit, that the traced layer shares sum to 1, that exact counts
repeat across two runs, that a corrupted reference value makes the
failure fraction non-zero, and that the benchmark refuses to run
without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that are exact counts of the simulated runs.
EXACT = (
    "sim.events", "sim.handoffs", "transputer.cpu.dispatches",
    "transputer.cpu.preemptions", "transputer.cpu.busy_sim_s",
    "transputer.memory.wait_sim_s", "transputer.memory.buffer_wait_sim_s",
    "transputer.link.queue_sim_s", "comm.messages", "comm.bytes",
    "core.jobs", "core.mean_rt_sim_s", "obs.trace_events", "obs.decisions",
    "obs.windows",
)


def run_benchmark(workload, trace, seed=workloads.DEFAULT_SEED, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload."""
    return {name: [result_of(run_benchmark(name, 1)) for _ in range(2)]
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload, declared):
    result = result_of(run_benchmark(workload, 0))
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_per_layer_metrics_emitted_with_units(traced, declared):
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for runs in traced.values():
        for result in runs:
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want
            assert result["correct"] and result["failed"] == 0


def test_declared_workloads_are_the_benchmarks(declared):
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)


def test_layer_shares_sum_to_one(traced):
    for runs in traced.values():
        metrics = runs[0]["metrics"]
        total = sum(metrics[f"{layer}.share"]["value"]
                    for layer in layers.LAYERS)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_exact_counts_repeat(traced):
    for name, (first, second) in traced.items():
        for metric in EXACT:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)
        assert first["metrics"]["sim.events"]["value"] > 0


def test_corrupted_reference_makes_failures(monkeypatch):
    import run

    monkeypatch.chdir(ROOT)
    run.locate_program()
    reference = workloads.load_reference("fig3_matmul", "tiny",
                                         workloads.DEFAULT_SEED)
    cell = sorted(reference)[0]
    corrupted = json.loads(json.dumps(reference))
    corrupted[cell]["mean_response_time"] *= 1.001
    for ref, should_fail in ((reference, False), (corrupted, True)):
        workload = workloads.Workload("fig3_matmul", "tiny",
                                      reference=ref)
        acc = run.Measurements()
        run.run_pass(workload, 0, acc)
        assert acc.attempted > 0
        assert (acc.failed / acc.attempted > 0) == should_fail


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("fig3_matmul", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
