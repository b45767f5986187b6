"""Session driver: Monte Carlo runs, sweeps and exact branch enumeration.

``run_simulation`` plays full sessions with independent named rng
streams per party, so results are reproducible from ``(config)`` alone
and attacks never disturb the honest parties' draw sequences.

``enumerate_branches`` walks the outcome tree of a short scripted
scenario depth first.  Each node is a round boundary: the world, the
carrier parity, a fork of the attack and the transcripts so far.  A
round is played once per distinct outcome history, with a scripted
decider standing in for every quantum rng to take each of its forks in
turn, and the walk descends into the next round once per outcome.  Each
branch reports its exact probability (the product of the Born weights
of the outcomes taken), which turns Monte Carlo claims into closed-form
numbers for small scenarios.

``run_simulation`` and the walk share ``_play_round``, the one per-round
step of a session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attacks import build_attack, eve_reconstruct
from .protocol import (
    CARRIER,
    W1,
    W2,
    CarrierTracker,
    EntangledPair,
    ProductPair,
    Rngs,
    RoundPlan,
    RoundTranscript,
    SinglePair,
    chi_state,
    check_phase,
    hadamard_layer,
    original_round,
    revised_round,
)
from .qsim import PureState

VARIANTS = ("original", "revised")

# Which channel strategies are defined against which session variant.
COMPATIBLE = {
    "original": ("none", "a2"),
    "revised": ("none", "a1", "a2-probe", "dishonest-bob"),
}

# Named sub-streams derived from the session seed.
STREAM_ALICE, STREAM_BOB, STREAM_CHARLIE, STREAM_ATTACK, STREAM_CHECK = range(5)

MAX_ENUM_ROUNDS = 6
MAX_ENUM_BRANCHES = 2 ** 20


def stream(seed: int, k: int) -> np.random.Generator:
    """The k-th independent substream of a session seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def derived_seed(*parts: int) -> int:
    """Stable scalar seed derived from a tuple (used by sweeps)."""
    return int(np.random.SeedSequence(entropy=tuple(int(p) for p in parts)).generate_state(1)[0])


def _validate_combo(variant: str, strategy: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; known: {', '.join(VARIANTS)}")
    if strategy not in COMPATIBLE[variant]:
        raise ValueError(
            f"strategy {strategy!r} is not defined against the {variant} variant; "
            f"allowed: {', '.join(COMPATIBLE[variant])}"
        )


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte Carlo session."""

    variant: str = "revised"
    strategy: str = "none"
    rounds: int = 100
    seed: int = 0
    check_fraction: float = 0.25
    hadamard_bias: float = 0.5
    secret_bits: str | None = None
    detect_threshold: float = 0.0

    def __post_init__(self) -> None:
        _validate_combo(self.variant, self.strategy)
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0.0 < self.check_fraction <= 1.0:
            raise ValueError("check_fraction must lie in (0, 1]")
        if not 0.0 <= self.hadamard_bias <= 1.0:
            raise ValueError("hadamard_bias must lie in [0, 1]")
        if not (math.isfinite(self.detect_threshold) and self.detect_threshold >= 0.0):
            raise ValueError("detect_threshold must be a finite number >= 0")
        if self.secret_bits is not None:
            if set(self.secret_bits) - {"0", "1"}:
                raise ValueError("secret_bits must contain only 0 and 1")
            if len(self.secret_bits) != self.rounds:
                raise ValueError(
                    f"secret_bits has {len(self.secret_bits)} bits for {self.rounds} rounds"
                )


@dataclass(frozen=True)
class SimReport:
    """Aggregated outcome of one session."""

    variant: str
    strategy: str
    rounds: int
    check_fraction: float
    seed: int
    rounds_run: int
    checked_rounds: int
    honest_error_rate: float
    detected: bool
    eve_accuracy: float | None
    mode_breakdown: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "strategy": self.strategy,
            "rounds": self.rounds,
            "check_fraction": self.check_fraction,
            "seed": self.seed,
            "rounds_run": self.rounds_run,
            "checked_rounds": self.checked_rounds,
            "honest_error_rate": self.honest_error_rate,
            "detected": self.detected,
            "eve_accuracy": self.eve_accuracy,
            "mode_breakdown": self.mode_breakdown,
        }


def _mode_key(t: RoundTranscript) -> str:
    if t.mode == "single":
        return f"single_{t.target}"
    return t.mode


def _mode_breakdown(transcripts: Sequence[RoundTranscript]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for t in transcripts:
        slot = out.setdefault(_mode_key(t), {"rounds": 0, "errors": 0})
        slot["rounds"] += 1
        slot["errors"] += int(t.recovered != t.secret)
    for slot in out.values():
        slot["error_rate"] = slot["errors"] / slot["rounds"]
    return out


def _score_eve(attack, transcripts: Sequence[RoundTranscript]) -> float | None:
    """Fraction of round secrets the attacker can name correctly.

    Only strategies that actually produce readouts are scored: the full
    schedule is anchored by announced check secrets plus the session's
    first two secrets (announced during the public comparison), and the
    dishonest receiver scores his direct inferences.  Passive probes
    without a modeled readout return ``None``.
    """
    if attack is None or attack.name in ("a1", "a2-probe"):
        return None
    announced = {}
    if attack.name == "a2":
        for t in transcripts[:2]:
            announced[t.round_index] = t.secret
        for t in transcripts:
            if any(ev.get("event") == "check_announced" for ev in t.events):
                announced[t.round_index] = t.secret
    guesses, _ = eve_reconstruct(attack.inferred, announced)
    correct = sum(1 for t in transcripts if guesses.get(t.round_index) == t.secret)
    return correct / len(transcripts)


def _play_round(
    variant: str, world: PureState, plan: RoundPlan, tracker: CarrierTracker, rngs: Rngs, attack
) -> tuple[PureState, RoundTranscript]:
    """One round of a session of either variant.

    The alternating variant applies the public Hadamard layer before
    every round after the first, and the attack keeps its probes in
    step with it.
    """
    if variant == "original":
        if plan.round_index > 1:
            world = hadamard_layer(world, CARRIER, tracker)
            if attack is not None:
                world = attack.sync_hadamard(world)
        return original_round(world, plan, tracker, rngs, attack)
    return revised_round(world, plan, tracker, rngs, attack)


def run_simulation(
    cfg: SimConfig, transcripts_out: list[RoundTranscript] | None = None
) -> SimReport:
    """Play one full session followed by the check phase."""
    alice = stream(cfg.seed, STREAM_ALICE)
    rngs = Rngs(
        bob=stream(cfg.seed, STREAM_BOB),
        charlie=stream(cfg.seed, STREAM_CHARLIE),
        attack=stream(cfg.seed, STREAM_ATTACK),
    )
    # Classical attacker coins share the attack stream object, so they
    # interleave deterministically with its quantum draws.
    attack = build_attack(cfg.strategy, coins=rngs.attack)

    world = chi_state()
    tracker = CarrierTracker()
    transcripts: list[RoundTranscript] = []
    for i in range(1, cfg.rounds + 1):
        if cfg.secret_bits is not None:
            secret = int(cfg.secret_bits[i - 1])
        else:
            secret = int(alice.integers(0, 2))
        if cfg.variant == "original":
            mode = ProductPair(secret) if i % 2 == 1 else EntangledPair(secret)
            plan = RoundPlan(i, mode)
        else:
            coin = int(alice.random() < cfg.hadamard_bias)
            if coin ^ tracker.hadamard_parity:
                mode = EntangledPair(secret)
            else:
                q1 = int(alice.integers(0, 2))
                target = W1 if alice.random() < 0.5 else W2
                mode = SinglePair(q1, q1 ^ secret, target)
            plan = RoundPlan(i, mode, alice_hadamard=coin)
        world, t = _play_round(cfg.variant, world, plan, tracker, rngs, attack)
        transcripts.append(t)

    error_rate, detected = check_phase(
        transcripts, cfg.check_fraction, stream(cfg.seed, STREAM_CHECK), cfg.detect_threshold
    )
    checked = sum(
        1 for t in transcripts if any(ev.get("event") == "check_announced" for ev in t.events)
    )
    if transcripts_out is not None:
        transcripts_out.extend(transcripts)
    return SimReport(
        variant=cfg.variant,
        strategy=cfg.strategy,
        rounds=cfg.rounds,
        check_fraction=cfg.check_fraction,
        seed=cfg.seed,
        rounds_run=len(transcripts),
        checked_rounds=checked,
        honest_error_rate=error_rate,
        detected=detected,
        eve_accuracy=_score_eve(attack, transcripts),
        mode_breakdown=_mode_breakdown(transcripts),
    )


# --------------------------------------------------------------------------
# Exact branch enumeration


class TapeDecider:
    """Scripted stand-in for every quantum rng during one play of a round.

    Supplies ``random()`` values that force measurement outcomes: a tape
    bit of 1 forces outcome 1 (by returning 0.0), a bit of 0 forces
    outcome 0 (by returning 1.0, which no Born weight reaches).
    Degenerate measurements never consult the rng, so only genuine forks
    consume tape bits; drawing past the scripted prefix extends the tape
    with zeros, which is what lets the enumerator walk all of a round's
    forks in binary-counter order.
    """

    def __init__(self, prefix: Sequence[int]) -> None:
        self.consumed: list[int] = []
        self._prefix = list(prefix)

    def random(self) -> float:
        bit = self._prefix[len(self.consumed)] if len(self.consumed) < len(self._prefix) else 0
        self.consumed.append(bit)
        return 0.0 if bit else 1.0


@dataclass(frozen=True)
class Scenario:
    """A short, fully scripted session for exact enumeration.

    ``plans`` fixes every classical choice Alice makes; ``attack_seed``
    fixes the attacker's classical coins so that the only remaining
    nondeterminism is quantum measurement.
    """

    variant: str
    plans: tuple[RoundPlan, ...]
    strategy: str = "none"
    attack_seed: int = 17

    def __post_init__(self) -> None:
        _validate_combo(self.variant, self.strategy)
        if not self.plans:
            raise ValueError("scenario needs at least one round plan")
        if len(self.plans) > MAX_ENUM_ROUNDS:
            raise ValueError(f"enumeration is capped at {MAX_ENUM_ROUNDS} rounds")
        for pos, plan in enumerate(self.plans, start=1):
            if plan.round_index != pos:
                raise ValueError(f"plan at position {pos} has round_index {plan.round_index}")
        parity = 0
        for plan in self.plans:
            if self.variant == "original":
                want_odd = plan.round_index % 2 == 1
                if want_odd != isinstance(plan.mode, ProductPair):
                    raise ValueError("alternating variant plans must alternate product/pair")
            else:
                coin = plan.alice_hadamard
                if coin is None:
                    raise ValueError("coin-flip variant plans need alice_hadamard")
                is_pair = isinstance(plan.mode, EntangledPair)
                if is_pair != bool(coin ^ parity):
                    raise ValueError(
                        f"round {plan.round_index} pairs mode and coin against the carrier form"
                    )
                parity ^= coin


@dataclass(frozen=True)
class Branch:
    """One measurement branch of a scenario and its exact probability.

    Sibling branches share the ``RoundTranscript`` objects of the rounds
    they have in common, because each round is played once per outcome
    history.  Nothing in the package mutates a transcript after its
    round; copy one before changing it (``check_phase`` appends events).
    ``attack`` is the branch's own attack object.
    """

    probability: float
    transcripts: tuple[RoundTranscript, ...]
    world: PureState
    attack: object | None

    @property
    def errors(self) -> int:
        return sum(1 for t in self.transcripts if t.recovered != t.secret)


def _walk(
    scenario: Scenario, world: PureState, parity: int, attack,
    transcripts: tuple[RoundTranscript, ...], branches: list[Branch], max_branches: int,
) -> None:
    """Append every branch below one round boundary to ``branches``.

    A ``TapeDecider`` counts through the next round's own forks in
    binary; each play starts from this node with a fresh fork of its
    attack, and the walk descends once per play.
    """
    k = len(transcripts)
    if k == len(scenario.plans):
        prob = 1.0
        for t in transcripts:
            for rec in t.records:
                prob *= rec.probability
        if attack is not None:
            for rec in attack.records:
                prob *= rec.probability
        branches.append(Branch(prob, transcripts, world, attack))
        if len(branches) > max_branches:
            raise RuntimeError(f"scenario exceeded {max_branches} branches")
        return
    plan = scenario.plans[k]
    tape: list[int] = []
    while True:
        decider = TapeDecider(tape)
        tracker = CarrierTracker(parity)
        twin = attack.fork() if attack is not None else None
        rngs = Rngs(bob=decider, charlie=decider, attack=decider)
        after, t = _play_round(scenario.variant, world, plan, tracker, rngs, twin)
        _walk(scenario, after, tracker.hadamard_parity, twin, transcripts + (t,), branches, max_branches)
        consumed = decider.consumed
        i = len(consumed) - 1
        while i >= 0 and consumed[i] == 1:
            i -= 1
        if i < 0:
            return
        tape = consumed[:i] + [1]


def enumerate_branches(scenario: Scenario, max_branches: int = MAX_ENUM_BRANCHES) -> list[Branch]:
    """Every measurement branch of the scenario, by a depth-first walk.

    Each round is played once per distinct outcome history, not once per
    branch.  Branches come out in the lexicographic order of their
    outcomes, and their probabilities sum to 1 (within float rounding).
    Raises if the scenario forks more than ``max_branches`` times, which
    short scripted scenarios never should.
    """
    attack = build_attack(scenario.strategy, coins=np.random.default_rng(scenario.attack_seed))
    branches: list[Branch] = []
    _walk(scenario, chi_state(), 0, attack, (), branches, max_branches)
    return branches


def original_plans(secrets: Sequence[int]) -> tuple[RoundPlan, ...]:
    """Alternating-variant plans for the given per-round secrets."""
    plans = []
    for i, q in enumerate(secrets, start=1):
        mode = ProductPair(int(q)) if i % 2 == 1 else EntangledPair(int(q))
        plans.append(RoundPlan(i, mode))
    return tuple(plans)


def revised_plans(
    coins: Sequence[int],
    secrets: Sequence[int],
    q1_bits: Sequence[int] | None = None,
    targets: Sequence[str] | None = None,
) -> tuple[RoundPlan, ...]:
    """Coin-flip-variant plans with the encoding picked per the form rule.

    ``q1_bits`` and ``targets`` steer the single-encoding rounds and
    default to 0 and ``w1``; entries for pair rounds are ignored.
    """
    if len(coins) != len(secrets):
        raise ValueError("coins and secrets must have equal length")
    parity = 0
    plans = []
    for i, (coin, q) in enumerate(zip(coins, secrets), start=1):
        coin, q = int(coin), int(q)
        if coin ^ parity:
            mode: EntangledPair | SinglePair = EntangledPair(q)
        else:
            q1 = int(q1_bits[i - 1]) if q1_bits is not None else 0
            target = targets[i - 1] if targets is not None else W1
            mode = SinglePair(q1, q1 ^ q, target)
        plans.append(RoundPlan(i, mode, alice_hadamard=coin))
        parity ^= coin
    return tuple(plans)


def run_grid(
    variant: str,
    strategies: Sequence[str],
    rounds_list: Sequence[int],
    check_fractions: Sequence[float],
    repeats: int,
    master_seed: int,
) -> list[SimReport]:
    """Cartesian sweep; each grid point gets ``repeats`` derived seeds."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not (strategies and rounds_list and check_fractions):
        raise ValueError("sweep grid is empty")
    reports = []
    gi = 0
    for strategy in strategies:
        for rounds in rounds_list:
            for frac in check_fractions:
                for rep in range(repeats):
                    cfg = SimConfig(
                        variant=variant,
                        strategy=strategy,
                        rounds=rounds,
                        seed=derived_seed(master_seed, gi, rep),
                        check_fraction=frac,
                    )
                    reports.append(run_simulation(cfg))
                gi += 1
    return reports
