"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Negative controls feed deliberately corrupted results through the
checkers; the tiny runs play each workload at its smallest size through
the real command line and compare the metrics it prints with
``BENCHMARK.json``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ghzqss  # noqa: E402
import workloads  # noqa: E402
from ghzqss.corpus import verify_equation_corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, tiny=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def test_corrupted_corpus_raises_failed_frac():
    tally = workloads.Tally()
    tally.item(workloads.check_corpus(verify_equation_corpus()))
    assert tally.failed_frac == 0.0
    tally.item(workloads.check_corpus(verify_equation_corpus(corrupt="E5")))
    assert tally.failed_frac == 0.5


def test_corrupted_sweep_csv_and_branch_table_fail():
    wl = workloads.SweepShort(seed=3, tiny=True)
    item = wl.cycle(0)[0]
    variant, strategies, rounds_list, repeats, _ = item
    _, (text,) = wl.run(item, workloads.Tally(), keep=True)
    args = (variant, strategies, rounds_list, wl.FRACTIONS, repeats)
    assert workloads.check_sweep_csv(text, *args) == []
    header, *rows = text.splitlines()
    a2_row = next(r for r in rows if r.startswith("original,a2,"))
    assert workloads.check_sweep_csv(text.replace(a2_row, a2_row.replace("1.000000", "0.500000")), *args)
    assert workloads.check_sweep_csv(text.replace(header, header.replace("seed", "session_seed")), *args)
    assert workloads.check_sweep_csv("\n".join([header] + rows[1:]), *args)

    secrets = (0, 1, 1, 0, 1, 0)
    scenario = ghzqss.Scenario("original", ghzqss.original_plans(secrets), strategy="a2")
    branches = ghzqss.enumerate_branches(scenario)
    assert workloads.check_gate2(branches, secrets) == []
    halved = [dataclasses.replace(branches[0], probability=branches[0].probability / 2)] + branches[1:]
    assert workloads.check_gate2(halved, secrets)
    assert workloads.check_gate2(branches, (1,) + secrets[1:])


def test_tracer_restores_every_binding():
    before = {(m, k): v for m in (ghzqss.qsim, ghzqss.protocol, ghzqss.harness, ghzqss.cli)
              for k, v in vars(m).items() if callable(v)}
    tracer = Tracer()
    tracer.install(ghzqss)
    assert ghzqss.protocol.apply_h is not before[(ghzqss.qsim, "apply_h")]
    assert ghzqss.harness.run_simulation is not before[(ghzqss.harness, "run_simulation")]
    tracer.uninstall()
    after = {(m, k): v for (m, k) in before for v in [vars(m)[k]]}
    assert after == before


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert any(line.startswith("metric failed_frac = 0.0 ratio") for line in lines)
    assert any(line.startswith(f"digest {workload}: sha256=") for line in lines)
    assert json.loads(lines[0].removeprefix("facts "))["threads_pinned"]["OMP_NUM_THREADS"] == "1"
    if trace and workload == "exact":
        assert result["metrics"]["harness.enum.round_calls_per_branch"]["value"] == 6.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "mc-long", 0, tiny=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
