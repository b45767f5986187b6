"""Benchmark for the ghzqss simulator.

    python3 perfbench/run.py --workload mc-long --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
workload inputs are drawn from ``--seed``.

``--trace 0`` plays whole cycles of the workload until ``--seconds`` have
passed and reports the end-to-end metrics.  ``--trace 1`` plays the
workload's fixed traced cycles once untraced and once traced, and reports
the per-layer metrics, the tracing overhead and the self-time coverage
check; spans go to ``perfbench/out/`` when the run ends.  Either way every
work item is checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import hostspeed
from tracer import QSIM_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Sum of per-layer self times over the traced wall: the outermost spans
# cover the timed items, so only wrapper entry and the item loop's own
# clock reads fall outside them.
SELF_SUM_MIN = 0.98

END_TO_END_UNITS = {
    "rounds_per_s": "rounds/s",
    "min_pair_rounds_per_s": "rounds/s",
    "session_p50_ms": "ms",
    "session_p90_ms": "ms",
    "branches_per_s": "branches/s",
    "enum_p50_ms": "ms",
    "enum_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
        "threads_pinned": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(workload: str, seed: int, tiny: bool):
    """Fresh-interpreter set-up: import ``ghzqss.cli`` and run the warm-up items.

    Returns raw walls, host-speed corrected walls and import times.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    walls, corrected, imports = [], [], []
    ref = hostspeed.time_reference()
    for _ in range(1 if tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=150)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
        ref_after = hostspeed.time_reference()
        corrected.append(walls[-1] * hostspeed.REF_NOMINAL_S / ((ref + ref_after) / 2))
        ref = ref_after
    return walls, corrected, imports


def play(wl, tally, cycles=None, seconds=None, tracer=None, digest_lines=None, speed=None):
    """Play whole cycles; stop after ``cycles`` or once ``seconds`` have passed.

    Returns one list of samples per cycle played.
    """
    deadline = time.perf_counter() + seconds if seconds is not None else None
    played: list[list] = []
    while True:
        samples = []
        for item in wl.cycle(len(played)):
            if tracer is not None:
                tracer.item += 1
            sample, out = wl.run(item, tally, keep=digest_lines is not None and not played, tracer=tracer)
            samples.append(sample)
            if speed is not None:
                speed.after(sample)
            if out is not None:
                digest_lines.extend(out)
        wl.end_cycle(tally)
        played.append(samples)
        if (cycles is not None and len(played) >= cycles) or (deadline is not None and time.perf_counter() >= deadline):
            if speed is not None:
                speed.flush()
            return played


def end_to_end(played, setup_walls, corrected: bool) -> dict:
    """Rates are medians over cycles, so a burst of load on the host that
    covers less than half of the cycles does not move them; latencies are
    percentiles over every session or item of the run.  With ``corrected``
    every time is multiplied by its item's host-speed scale."""
    def scale(s):
        return s.scale if corrected else 1.0

    def rate(cycle, work):
        return sum(work(s) for s in cycle) / sum(s.wall * scale(s) for s in cycle)

    pair_rates = []
    for cycle in played:
        pairs: dict = {}
        for s in cycle:
            for pair, (rounds, wall) in s.pairs.items():
                slot = pairs.setdefault(pair, [0, 0.0])
                slot[0] += rounds
                slot[1] += wall * scale(s)
        pair_rates.append({pair: rounds / wall for pair, (rounds, wall) in pairs.items()})
    samples = [s for cycle in played for s in cycle]
    sessions = [x * scale(s) for s in samples for x in s.sessions]
    items = [s.wall * scale(s) for s in samples]
    return {
        "rounds_per_s": statistics.median(rate(c, lambda s: s.rounds) for c in played),
        "min_pair_rounds_per_s": min(
            statistics.median(rates[pair] for rates in pair_rates) for pair in pair_rates[0]
        ),
        "session_p50_ms": statistics.median(sessions) * 1e3,
        "session_p90_ms": statistics.quantiles(sessions, n=10)[8] * 1e3,
        "branches_per_s": statistics.median(rate(c, lambda s: s.branches) for c in played),
        "enum_p50_ms": statistics.median(items) * 1e3,
        "enum_p90_ms": statistics.quantiles(items, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced, import_s, pairs) -> dict:
    traced = [s for cycle in traced for s in cycle]
    untraced = [s for cycle in untraced for s in cycle]
    traced_wall = sum(s.wall for s in traced)
    calls, self_s = tracer.calls, tracer.self_s
    metrics: dict[str, tuple[float, str]] = {}
    for op in QSIM_PASSES:
        metrics[f"qsim.{op}.calls"] = (calls[f"qsim.{op}"], "count")
        metrics[f"qsim.{op}.self_s"] = (self_s[f"qsim.{op}"], "s")
    qsim_self = sum(self_s[f"qsim.{op}"] for op in QSIM_PASSES)
    metrics["qsim.bytes_moved_computed"] = (tracer.qsim_bytes, "B")
    metrics["qsim.max_qubits"] = (tracer.max_qubits, "qubits")
    metrics["qsim.self_share"] = (_ratio(qsim_self, traced_wall), "ratio")
    metrics["protocol.round.calls"] = (calls["protocol.round"], "count")
    metrics["protocol.round.self_s"] = (self_s["protocol.round"], "s")
    for variant, strategy in pairs:
        total, n = tracer.round_time.get((variant, strategy), (0.0, 0))
        metrics[f"protocol.round_us.{variant}.{strategy}"] = (_ratio(total, n) * 1e6, "us")
    for name in ("g_state", "chi_state", "check_phase"):
        metrics[f"protocol.{name}.calls"] = (calls[f"protocol.{name}"], "count")
    metrics["protocol.check_phase.self_s"] = (self_s["protocol.check_phase"], "s")
    metrics["attacks.intercept.calls"] = (calls["attacks.intercept"], "count")
    for name in ("intercept", "sync_hadamard", "bob_decode", "build_attack", "eve_reconstruct"):
        metrics[f"attacks.{name}.self_s"] = (self_s[f"attacks.{name}"], "s")
    metrics["harness.run_simulation.calls"] = (calls["harness.run_simulation"], "count")
    metrics["harness.session_self_s"] = (self_s["harness.run_simulation"], "s")
    metrics["harness.stream.calls"] = (calls["harness.stream"], "count")
    metrics["harness.stream.self_s"] = (self_s["harness.stream"], "s")
    metrics["harness.run_grid.self_s"] = (self_s["harness.run_grid"], "s")
    metrics["harness.enum.self_s"] = (self_s["harness.enumerate_branches"], "s")
    replays = round_calls = branches = prefixes = 0
    for s in traced:
        if s.enum is not None:
            replays += s.enum[0]
            round_calls += s.enum[1]
            branches += s.enum[2]
            prefixes += s.enum[3]
    metrics["harness.enum.replays"] = (replays, "count")
    metrics["harness.enum.round_calls"] = (round_calls, "count")
    metrics["harness.enum.round_calls_per_branch"] = (_ratio(round_calls, branches), "ratio")
    metrics["harness.enum.useful_ratio"] = (_ratio(prefixes, round_calls), "ratio")
    metrics["corpus.verify.self_s"] = (self_s["corpus.verify"], "s")
    metrics["corpus.branches"] = (sum(s.branches for s in traced if s.kind == "corpus"), "count")
    metrics["cli.main.self_s"] = (self_s["cli.main"], "s")
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["trace.overhead"] = (
        _ratio(sum(s.wall * s.scale for s in traced), sum(s.wall * s.scale for s in untraced)), "ratio"
    )
    metrics["trace.self_sum_share"] = (_ratio(tracer.total_self_s(), traced_wall), "ratio")
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    if not (SRC / "ghzqss" / "__init__.py").is_file():
        raise SystemExit(f"error: no ghzqss package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import ghzqss
    if Path(ghzqss.__file__).resolve().parent != SRC / "ghzqss":
        raise SystemExit(f"error: imported ghzqss from {ghzqss.__file__}, not from {SRC}")
    import workloads
    from tracer import Tracer

    print("facts " + json.dumps(machine_facts()), flush=True)
    setup_raw, setup_walls, import_s = measure_setup(workload, seed, tiny)
    wl = workloads.WORKLOADS[workload](seed, tiny=tiny)
    wl.warm_up()
    tally = workloads.Tally()
    lines: list[str] = []
    correct = True
    if not trace:
        played = play(wl, tally, seconds=seconds, digest_lines=lines, speed=hostspeed.HostSpeed())
        values = end_to_end(played, setup_walls, corrected=True)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        raw = end_to_end(played, setup_raw, corrected=False)
        scales = [s.scale for cycle in played for s in cycle]
        print(f"host speed {workload}: median scale {statistics.median(scales):.4f} "
              f"(min {min(scales):.4f}, max {max(scales):.4f}); uncorrected: "
              + ", ".join(f"{name}={raw[name]:.6g}" for name in END_TO_END_UNITS))
        samples = [s for cycle in played for s in cycle]
        n_sessions = sum(len(s.sessions) for s in samples)
        print(f"samples {workload}: {len(played)} cycles, {len(samples)} items, {n_sessions} sessions, "
              f"{len(setup_walls)} set-ups")
    else:
        untraced = play(wl, tally, cycles=wl.trace_cycles, digest_lines=lines, speed=hostspeed.HostSpeed())
        tracer = Tracer()
        tracer.install(ghzqss)
        try:
            traced = play(wl, tally, cycles=wl.trace_cycles, tracer=tracer, speed=hostspeed.HostSpeed())
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced, import_s, workloads.PAIRS)
        share = metrics["trace.self_sum_share"][0]
        ok = SELF_SUM_MIN <= share <= 1.0 + 1e-9
        correct &= ok
        print(f"trace check {workload}: per-layer self times sum to {share:.4f} of the traced wall "
              f"(want {SELF_SUM_MIN} to 1): {'ok' if ok else 'FAIL'}")
        print(f"trace overhead {workload}: traced wall / untraced wall = {metrics['trace.overhead'][0]:.3f}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(path)
        print(f"spans {workload}: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"digest {workload}: sha256={workloads.digest(lines, wl.sorted_digest)} (outputs of the first cycle)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric failed_frac = {tally.failed_frac!r} ratio ({tally.failed} of {tally.attempted} items)")
    for problem in tally.problems:
        print(f"FAILED CHECK: {problem}")
    return {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc-long", "sweep-short", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest items, one set-up (smoke test)")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
