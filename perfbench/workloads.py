"""The three benchmark workloads, their work items and correctness checks.

Each workload is a closed loop with one client: the next work item starts
when the previous one has returned.  Work comes in cycles, a fixed list
of items drawn from the workload seed that keeps the workload's mix
balanced; the timed loop always finishes the cycle it is in.

* ``mc-long``: a cycle is one long Monte Carlo session per
  variant/strategy pair.  Per-round work is nearly all of the time.
* ``sweep-short``: a cycle is three ``ghzqss sweep`` calls through
  ``cli.main`` (one per strategy pair of a variant), each a grid of short
  sessions.  Per-session set-up, check phase, scoring and CSV formatting
  are a large share.
* ``exact``: a cycle is one pass over the 64 Gate-2 enumerations, the
  eight Gate-5 pinning scenarios and one identity-corpus replay, in a
  seed-shuffled order.  No rng and no check phase; the replay enumerator
  dominates.

The program is only ever called through module attributes looked up at
call time (``harness.run_simulation``), so a tracer that rebinds them
sees every call.  Checks call ``_eve_reconstruct``, bound at import, so
they stay outside the trace.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field

from ghzqss import attacks, cli, corpus, harness, protocol

_eve_reconstruct = attacks.eve_reconstruct
clock = time.perf_counter

PAIRS = (
    ("original", "none"),
    ("original", "a2"),
    ("revised", "none"),
    ("revised", "a1"),
    ("revised", "a2-probe"),
    ("revised", "dishonest-bob"),
)

# The sweep CSV header exactly as README.md documents it.
DOCUMENTED_CSV_HEADER = (
    "variant,strategy,rounds,check_fraction,seed,rounds_run,checked_rounds,"
    "honest_error_rate,detected,eve_accuracy,err_product,err_pair,err_single_w1,err_single_w2"
)

# Exact round-2 error probability of the Gate-5 pinning scenarios,
# averaged over the four (payload, target) plans of each probe strategy.
GATE5_ROUND2_ERROR = {"a1": 0.25, "a2-probe": 0.5}
PROBABILITY_ATOL = 1e-12


def derive(*parts) -> int:
    """Stable 32-bit seed from the workload seed and item coordinates."""
    return random.Random(":".join(str(p) for p in parts)).getrandbits(32)


@dataclass
class Sample:
    """What one work item did and how long the program took for it."""

    kind: str
    wall: float
    rounds: int
    branches: int
    sessions: list[float]
    pairs: dict[tuple[str, str], list] = field(default_factory=dict)
    enum: tuple[int, int, int, int] | None = None  # replays, round calls, branches, prefixes
    scale: float = 1.0  # host-speed correction for the times above


class Tally:
    """Work items attempted and failed; keeps the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def item(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _add_pair(pairs: dict, pair: tuple[str, str], rounds: int, wall: float) -> None:
    slot = pairs.setdefault(pair, [0, 0.0])
    slot[0] += rounds
    slot[1] += wall


# --------------------------------------------------------------------------
# Checks (each holds for any valid random draws)


def check_session(report, transcripts, cfg) -> list[str]:
    """Problems with one Monte Carlo session report and its transcripts."""
    tag = f"{cfg.variant}/{cfg.strategy} seed={cfg.seed}"
    problems = []
    errors = sum(slot["errors"] for slot in report.mode_breakdown.values())
    checked = max(1, int(round(cfg.check_fraction * cfg.rounds)))
    if report.rounds_run != cfg.rounds or len(transcripts) != cfg.rounds:
        problems.append(f"{tag}: ran {report.rounds_run} rounds, want {cfg.rounds}")
    if [t.round_index for t in transcripts] != list(range(1, cfg.rounds + 1)):
        problems.append(f"{tag}: transcript rounds out of order")
    if report.checked_rounds != checked:
        problems.append(f"{tag}: checked {report.checked_rounds} rounds, want {checked}")
    if not 0.0 <= report.honest_error_rate <= 1.0:
        problems.append(f"{tag}: error rate {report.honest_error_rate} outside [0, 1]")
    if report.detected != (report.honest_error_rate > 0.0):
        problems.append(f"{tag}: detected={report.detected} at rate {report.honest_error_rate}")
    if cfg.strategy in ("none", "a2") and errors:
        problems.append(f"{tag}: {errors} decode errors, want 0")
    if cfg.strategy == "a2" and report.eve_accuracy != 1.0:
        problems.append(f"{tag}: eve_accuracy {report.eve_accuracy}, want 1.0")
    if cfg.strategy in ("none", "a1", "a2-probe") and report.eve_accuracy is not None:
        problems.append(f"{tag}: eve_accuracy {report.eve_accuracy}, want none")
    if cfg.strategy == "dishonest-bob" and (report.eve_accuracy is None or not 0.0 <= report.eve_accuracy <= 1.0):
        problems.append(f"{tag}: eve_accuracy {report.eve_accuracy} outside [0, 1]")
    return problems


def check_sweep_csv(text: str, variant: str, strategies, rounds_list, fractions, repeats) -> list[str]:
    """Problems with the CSV a ``sweep`` call printed."""
    lines = text.splitlines()
    if not lines or lines[0] != DOCUMENTED_CSV_HEADER:
        return [f"sweep {variant}: header {lines[:1]} differs from the documented one"]
    rows = list(csv.reader(lines[1:]))
    want = len(strategies) * len(rounds_list) * len(fractions) * repeats
    problems = [] if len(rows) == want else [f"sweep {variant}: {len(rows)} rows, want {want}"]
    width = len(DOCUMENTED_CSV_HEADER.split(","))
    for row in rows:
        if len(row) != width:
            problems.append(f"sweep {variant}: row {row} has {len(row)} fields")
            continue
        rec = dict(zip(DOCUMENTED_CSV_HEADER.split(","), row))
        try:
            rounds = int(rec["rounds"])
            frac = float(rec["check_fraction"])
            rounds_run = int(rec["rounds_run"])
            checked = int(rec["checked_rounds"])
            rate = float(rec["honest_error_rate"])
            int(rec["seed"])
            eve = None if rec["eve_accuracy"] == "" else float(rec["eve_accuracy"])
            mode_rates = [float(rec[k]) for k in ("err_product", "err_pair", "err_single_w1", "err_single_w2") if rec[k] != ""]
        except ValueError as exc:
            problems.append(f"sweep {variant}: row {row} does not parse: {exc}")
            continue
        strategy = rec["strategy"]
        if rec["variant"] != variant or strategy not in strategies:
            problems.append(f"sweep {variant}: unexpected row {row}")
        if rounds not in rounds_list or frac not in fractions or rounds_run != rounds:
            problems.append(f"sweep {variant}: row {row} does not match the grid")
        if checked != max(1, int(round(frac * rounds))):
            problems.append(f"sweep {variant}: row {row} checked {checked} rounds")
        if rec["detected"] not in ("true", "false") or (rec["detected"] == "true") != (rate > 0.0):
            problems.append(f"sweep {variant}: row {row} detection does not match its rate")
        if not all(0.0 <= r <= 1.0 for r in [rate] + mode_rates):
            problems.append(f"sweep {variant}: row {row} has a rate outside [0, 1]")
        if strategy in ("none", "a2") and any(r != 0.0 for r in [rate] + mode_rates):
            problems.append(f"sweep {variant}: {strategy} row {row} has errors")
        if strategy == "a2" and eve != 1.0:
            problems.append(f"sweep {variant}: a2 row {row} has eve_accuracy {eve}")
    return problems


def check_gate2(branches, secrets) -> list[str]:
    """Gate 2: probabilities sum to 1, no error branch, full readout."""
    problems = []
    total = sum(b.probability for b in branches)
    if abs(total - 1.0) > PROBABILITY_ATOL:
        problems.append(f"gate2 {secrets}: branch probabilities sum to {total!r}")
    anchors = {1: secrets[0], 2: secrets[1]}
    for b in branches:
        if b.errors:
            problems.append(f"gate2 {secrets}: branch with {b.errors} decode errors")
        guesses, missing = _eve_reconstruct(b.attack.inferred, anchors)
        if missing or any(guesses.get(i + 1) != s for i, s in enumerate(secrets)):
            problems.append(f"gate2 {secrets}: imperfect readout {guesses} missing={missing}")
    return problems


def check_corpus(results) -> list[str]:
    """Every identity of the corpus holds."""
    problems = [f"corpus: {r.identity} fails (max deviation {r.max_deviation:.2e})" for r in results if not r.ok]
    if len(results) != len(corpus.IDENTITY_IDS):
        problems.append(f"corpus: {len(results)} identities, want {len(corpus.IDENTITY_IDS)}")
    return problems


def distinct_prefixes(branches, marks: dict[int, int]) -> int:
    """Distinct round-level outcome histories over the returned branches.

    The history through round k is every measurement outcome of rounds
    1..k: the decode records on the transcripts plus the attacker's own
    records, split by round with the counts the tracer noted when each
    round returned (``marks``, keyed by transcript id).  A transcript the
    tracer never saw counts all attacker records, which can only
    overcount.
    """
    seen = set()
    for b in branches:
        records = b.attack.records if b.attack is not None else []
        path = []
        for t in b.transcripts:
            path.append(tuple((r.qubit, r.outcome) for r in t.records))
            n = marks.get(id(t), len(records)) if records else 0
            seen.add((tuple(path), tuple((r.qubit, r.outcome) for r in records[:n])))
    return len(seen)


def _branch_rows(key: str, branches) -> list[str]:
    rows = []
    for b in branches:
        decode = [[(r.qubit, r.outcome) for r in t.records] for t in b.transcripts]
        eve = [(r.qubit, r.outcome) for r in b.attack.records] if b.attack is not None else []
        rows.append(f"{key}|{b.probability!r}|{b.errors}|{decode}|{eve}")
    return rows


# --------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    sorted_digest = False
    # Cycles a traced run plays: a fixed amount of work, so that its
    # counts repeat exactly for a given seed.
    trace_cycles = 1

    def warm_up(self) -> None:
        """Run the untimed warm-up items, discarding their checks."""
        for item in self.warmup_items():
            self.run(item, Tally(), keep=False)

    def end_cycle(self, tally: Tally) -> None:
        pass


class McLong(Workload):
    name = "mc-long"
    trace_cycles = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.rounds = 40 if tiny else 500

    def cycle(self, k: int) -> list:
        return [(v, s, self.rounds, derive(self.seed, self.name, k, i)) for i, (v, s) in enumerate(PAIRS)]

    def warmup_items(self) -> list:
        return [(v, s, 100, derive(self.seed, self.name, "warmup", i)) for i, (v, s) in enumerate(PAIRS)]

    def run(self, item, tally: Tally, keep: bool, tracer=None):
        variant, strategy, rounds, seed = item
        cfg = harness.SimConfig(variant=variant, strategy=strategy, rounds=rounds, seed=seed, check_fraction=0.25)
        transcripts: list = []
        t0 = clock()
        report = harness.run_simulation(cfg, transcripts)
        wall = clock() - t0
        tally.item(check_session(report, transcripts, cfg))
        out = None
        if keep:
            out = [json.dumps(report.to_dict(), indent=2), protocol.transcripts_to_jsonl(transcripts)]
        sample = Sample("session", wall, rounds, 1, [wall])
        _add_pair(sample.pairs, (variant, strategy), rounds, wall)
        return sample, out


class SweepShort(Workload):
    name = "sweep-short"
    trace_cycles = 4
    # One call per strategy pair of a variant, so the three calls of a
    # cycle hold equal session counts and the median call sits mid-mix.
    CALLS = (
        ("original", ("none", "a2")),
        ("revised", ("none", "a1")),
        ("revised", ("a2-probe", "dishonest-bob")),
    )
    FRACTIONS = (0.25, 1.0)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.rounds_list = (4, 8) if tiny else (4, 8, 16, 24, 32)
        self.repeats = 1 if tiny else 2

    def cycle(self, k: int) -> list:
        return [(v, strategies, self.rounds_list, self.repeats, derive(self.seed, self.name, k, j))
                for j, (v, strategies) in enumerate(self.CALLS)]

    def warmup_items(self) -> list:
        return [(v, strategies, (4,), 1, derive(self.seed, self.name, "warmup", j))
                for j, (v, strategies) in enumerate(self.CALLS)]

    def run(self, item, tally: Tally, keep: bool, tracer=None):
        variant, strategies, rounds_list, repeats, master_seed = item
        argv = [
            "sweep", "--protocol", variant, "--attacks", ",".join(strategies),
            "--rounds", ",".join(map(str, rounds_list)),
            "--check-fractions", ",".join(map(str, self.FRACTIONS)),
            "--repeats", str(repeats), "--seed", str(master_seed), "--format", "csv",
        ]
        # Per-session latency: time each call run_grid makes.
        sessions: list[tuple[str, str, int, float]] = []
        inner = harness.run_simulation

        def timed(cfg, transcripts_out=None):
            s0 = clock()
            report = inner(cfg, transcripts_out)
            sessions.append((cfg.variant, cfg.strategy, cfg.rounds, clock() - s0))
            return report

        harness.run_simulation = timed
        buf = io.StringIO()
        try:
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            wall = clock() - t0
        finally:
            harness.run_simulation = inner
        text = buf.getvalue()
        problems = [] if rc == 0 else [f"sweep {variant}: exit code {rc}"]
        problems += check_sweep_csv(text, variant, strategies, rounds_list, self.FRACTIONS, repeats)
        tally.item(problems)
        sample = Sample("sweep", wall, sum(s[2] for s in sessions), len(sessions), [s[3] for s in sessions])
        for v, s, rounds, session_wall in sessions:
            _add_pair(sample.pairs, (v, s), rounds, session_wall)
        return sample, [text] if keep else None


class Exact(Workload):
    name = "exact"
    sorted_digest = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.attack_seed = derive(seed, self.name, "attack")
        secrets = list(itertools.product((0, 1), repeat=6))
        self.gate2 = secrets[:2] if tiny else secrets
        self.gate5 = [(s, q1, t) for s in GATE5_ROUND2_ERROR for q1 in (0, 1) for t in (protocol.W1, protocol.W2)]
        self._gate5_done: list[tuple[str, float, list[str]]] = []

    def cycle(self, k: int) -> list:
        items = [("gate2", s) for s in self.gate2] + [("gate5",) + g for g in self.gate5] + [("corpus",)]
        random.Random(derive(self.seed, self.name, k)).shuffle(items)
        return items

    def warmup_items(self) -> list:
        return [("gate2", self.gate2[0]), ("gate5",) + self.gate5[0], ("corpus",)]

    def warm_up(self) -> None:
        super().warm_up()
        self._gate5_done.clear()

    def end_cycle(self, tally: Tally) -> None:
        """Gate 5 pins the average over each strategy's four plans."""
        for strategy, want in GATE5_ROUND2_ERROR.items():
            group = [d for d in self._gate5_done if d[0] == strategy]
            got = sum(d[1] for d in group) / len(group)
            for _, _, problems in group:
                if abs(got - want) > PROBABILITY_ATOL:
                    problems.append(f"gate5 {strategy}: round-2 error probability {got!r}, want {want}")
                tally.item(problems)
        self._gate5_done.clear()

    def _enumerate(self, scenario, tracer):
        before = (tracer.first_rounds, tracer.calls["protocol.round"]) if tracer else None
        t0 = clock()
        branches = harness.enumerate_branches(scenario)
        wall = clock() - t0
        enum = None
        if tracer is not None:
            enum = (
                tracer.first_rounds - before[0],
                tracer.calls["protocol.round"] - before[1],
                len(branches),
                distinct_prefixes(branches, tracer.attack_marks),
            )
            tracer.attack_marks.clear()
        return branches, wall, enum

    def run(self, item, tally: Tally, keep: bool, tracer=None):
        kind = item[0]
        if kind == "corpus":
            t0 = clock()
            results = corpus.verify_equation_corpus()
            wall = clock() - t0
            tally.item(check_corpus(results))
            rows = [f"corpus|{r.identity}|{b.branch}|{b.deviation!r}|{b.ok}" for r in results for b in r.branches]
            return Sample("corpus", wall, 0, sum(len(r.branches) for r in results), []), rows if keep else None
        if kind == "gate2":
            secrets = item[1]
            scenario = harness.Scenario("original", harness.original_plans(secrets), strategy="a2",
                                        attack_seed=self.attack_seed)
            branches, wall, enum = self._enumerate(scenario, tracer)
            tally.item(check_gate2(branches, secrets))
            pair = ("original", "a2")
        else:
            _, strategy, q1, target = item
            plans = harness.revised_plans((1, 1), (0, 0), q1_bits=(0, q1), targets=(protocol.W1, target))
            scenario = harness.Scenario("revised", plans, strategy=strategy, attack_seed=self.attack_seed)
            branches, wall, enum = self._enumerate(scenario, tracer)
            total = sum(b.probability for b in branches)
            problems = [] if abs(total - 1.0) <= PROBABILITY_ATOL else [f"gate5 {item}: probabilities sum to {total!r}"]
            round2 = sum(b.probability for b in branches if b.transcripts[1].recovered != b.transcripts[1].secret)
            self._gate5_done.append((strategy, round2, problems))
            pair = ("revised", strategy)
        rounds = len(branches) * len(scenario.plans)
        sample = Sample(kind, wall, rounds, len(branches), [wall / len(branches)],
                        enum=enum if kind == "gate2" else None)
        _add_pair(sample.pairs, pair, rounds, wall)
        return sample, _branch_rows(repr(item), branches) if keep else None


WORKLOADS = {cls.name: cls for cls in (McLong, SweepShort, Exact)}


def digest(lines: list[str], sort: bool) -> str:
    text = "\n".join(sorted(lines) if sort else lines)
    return hashlib.sha256(text.encode()).hexdigest()
