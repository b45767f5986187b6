"""Session driver: Monte Carlo runs, sweeps and exact branch enumeration.

``run_simulation`` plays full sessions with independent named rng
streams per party, so results are reproducible from ``(config)`` alone
and attacks never disturb the honest parties' draw sequences.  A
session sets up each of its Alice, Bob, Charlie and attack streams at
its first draw, and no check stream when every round is checked.

``enumerate_branches`` plays every measurement branch of a short
scripted scenario as a session of its own, whose Bob, Charlie and attack
streams are one tape of outcomes, and counts through the tapes in
binary.  Each branch reports its exact probability (the product of the
Born weights of the outcomes taken), which turns Monte Carlo claims into
closed-form numbers for small scenarios.

Sessions and branches share ``_play_rounds``, the one session loop, and
``_play_round``, the one per-round step.  The loop plays each round
through ``ROUND_TABLE``, a bounded process-wide memo of recorded
statevector rounds (``ghzqss.replay``): a round whose world, plan class,
carrier parity and attacker state were seen before is replayed from the
recording against the session's own streams, drawing exactly what the
statevector play would draw, and any other round is played through the
session's ``replay.Script`` and recorded.  A session keeps its world,
parity and attack as plain values and turns each round's leaf into a
compact row, or a transcript if asked for one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .attacks import ATTACKS, build_attack, eve_reconstruct
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
    check_phase,
    check_plan,
    check_size,
    check_settings,
    chi_state,
    hadamard_layer,
    original_round,
    require_number,
    revised_round,
)
from .qsim import PureState
from .replay import PCG64Stream, RoundTable, Script, compact_row, transcript

VARIANTS = ("original", "revised")

# Which channel strategies are defined against which session variant: no
# attack against both, every other strategy against its class's ``variant``.
COMPATIBLE = {
    variant: tuple(name for name, cls in ATTACKS.items() if cls is None or cls.variant == variant)
    for variant in VARIANTS
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
    return int(np.random.SeedSequence(entropy=tuple(operator.index(p) for p in parts)).generate_state(1)[0])


def _require_int(name: str, value, least: int) -> None:
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


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
        _require_int("rounds", self.rounds, 1)
        _require_int("seed", self.seed, 0)
        check_settings(self.check_fraction, self.detect_threshold, "detect_threshold")
        require_number("hadamard_bias", self.hadamard_bias)
        if not 0.0 <= self.hadamard_bias <= 1.0:
            raise ValueError("hadamard_bias must lie in [0, 1]")
        if self.secret_bits is not None:
            if not isinstance(self.secret_bits, str) or set(self.secret_bits) - {"0", "1"}:
                raise ValueError("secret_bits must be a string of only 0 and 1")
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
        return dataclasses.asdict(self)


def _outcome(row) -> tuple[int, int, int, str, str | None]:
    """The compact row ``(round_index, secret, recovered, mode, target)`` of a transcript or row."""
    if type(row) is tuple:
        return row
    return row.round_index, row.secret, row.recovered, row.mode, row.target


def _mode_breakdown(rows: Sequence) -> dict[str, dict[str, float]]:
    counts: dict[str, list[int]] = {}
    for _, secret, recovered, mode, target in map(_outcome, rows):
        key = f"single_{target}" if mode == "single" else mode
        slot = counts.get(key)
        if slot is None:
            slot = counts[key] = [0, 0]
        slot[0] += 1
        slot[1] += recovered != secret
    return {key: {"rounds": n, "errors": e, "error_rate": e / n} for key, (n, e) in counts.items()}


def _score_eve(attack, rows: Sequence, checked: Sequence[int]) -> float | None:
    """Fraction of round secrets the attacker can name correctly.

    Only strategies that produce readouts are scored (``attack.readout``).
    A relative readout is anchored by the secrets of the ``checked``
    rounds, which the check phase announced, plus the session's first
    two secrets.  Those two are assumed announced, although no
    transcript event announces them, so a2's score is 1.0 at any check
    fraction.  An absolute readout scores the inferences alone.  Without
    a modeled readout the score is ``None``.
    """
    if attack is None or attack.readout is None:
        return None
    outcomes = list(map(_outcome, rows))
    announced = {}
    if attack.readout == "relative":
        announced = {r: q for r, q, *_ in outcomes[:2]}
        # A session's rows hold rounds 1, 2, ... in order.
        announced.update((r, outcomes[r - 1][1]) for r in checked)
    guesses, _ = eve_reconstruct(attack.inferred, announced)
    correct = sum(1 for r, q, *_ in outcomes if guesses.get(r) == q)
    return correct / len(outcomes)


class PlanClass:
    """A round plan without its round index, interned by ``_plan_class``:
    the round table keys a replayed round on the object and builds a
    ``RoundPlan`` only for a round it plays on the statevector path.
    With the carrier parity before the round, the class tells round 1
    and odd and even rounds of the alternating variant apart: (0,
    product), (1, product) and (0, pair)."""

    __slots__ = ("mode", "coin", "mode_name", "target", "secret")

    def __init__(self, kind: type, fields: tuple, coin: int | None) -> None:
        plan = RoundPlan(0, kind(*fields), coin)
        self.mode, self.coin = plan.mode, coin
        self.mode_name, self.target, self.secret = plan.mode_name, plan.target, plan.secret


_plan_class = functools.lru_cache(maxsize=64)(PlanClass)


def _round_plans(
    variant: str,
    secret: Callable[[int], int],
    coin: Callable[[int], int] | None = None,
    q1: Callable[[int], int] | None = None,
    target: Callable[[int], str] | None = None,
) -> Iterator[tuple[int, PlanClass]]:
    """``(round index, plan class)`` pairs from round 1 on, the one source
    of round plans.  Each callable takes the round index.  A round calls
    ``secret``, then in the coin-flip variant ``coin``, and for a single
    encoding ``q1`` and ``target``, in the order a session draws them from
    Alice's stream.  The coin-flip variant picks the encoding per the form
    rule; the carrier form is the XOR of the coins so far."""
    parity = 0
    for i in itertools.count(1):
        q = secret(i)
        if variant == "original":
            yield i, _plan_class(ProductPair if i % 2 else EntangledPair, (q,), None)
            continue
        c = coin(i)
        if c ^ parity:
            yield i, _plan_class(EntangledPair, (q,), c)
        else:
            b = q1(i)
            yield i, _plan_class(SinglePair, (b, b ^ q, target(i)), c)
        parity ^= c


def _check_plans(variant: str, plans: Iterable[RoundPlan]) -> tuple[RoundPlan, ...]:
    """``plans`` as a tuple if a session script of ``variant`` from round 1
    that ``check_plan`` accepts round by round, else ``ValueError``."""
    plans = tuple(plans)
    parity = 0
    for pos, plan in enumerate(plans, start=1):
        if not isinstance(plan, RoundPlan):
            raise ValueError(f"plan at position {pos} is not a RoundPlan: {plan!r}")
        if variant == "original" and pos > 1:
            parity ^= 1  # the Hadamard layer before every later round
        check_plan(plan, parity, variant == "revised")
        if plan.round_index != pos:
            raise ValueError(f"plan at position {pos} has round_index {plan.round_index}")
        parity ^= plan.alice_hadamard or 0
    return plans


def _play_round(
    world: PureState, plan: RoundPlan, parity: int, rngs: Rngs, attack
) -> tuple[PureState, int, RoundTranscript]:
    """One round of a session from carrier parity ``parity``: the next
    world, the next parity and the transcript.

    A plan without a coin plays the alternating variant, which applies
    the public Hadamard layer before every round after the first; the
    attack keeps its probes in step with it.
    """
    tracker = CarrierTracker(parity)
    play = revised_round
    if plan.alice_hadamard is None:
        play = original_round
        if plan.round_index > 1:
            world = hadamard_layer(world, CARRIER, tracker)
            if attack is not None:
                world = attack.sync_hadamard(world)
    world, t = play(world, plan, tracker, rngs, attack)
    return world, tracker.hadamard_parity, t


# The process-wide memo in front of ``_play_round``, for sessions and enumeration.
ROUND_TABLE = RoundTable()


def _play_rounds(table: RoundTable, script: Script, plans: Iterable, attack, row) -> tuple[PureState, list]:
    """The one session loop: each ``(round index, plan class)`` of ``plans``
    played through ``table`` from the start of a session, with the draws
    of ``script`` and ``attack``.  Returns the final world and per round
    ``row(round index, plan class, payload)``."""
    world, parity = chi_state(), 0
    rows: list = []
    for i, plan_class in plans:
        world, parity, payload = table.play(_play_round, script, world, parity, (i, plan_class), attack)
        rows.append(row(i, plan_class, payload))
    return world, rows


def _play_session(cfg: SimConfig, transcribe: bool) -> tuple[PureState, object, list]:
    """All rounds of one session: the final world, the attack and per round
    its transcript if ``transcribe``, else its compact row."""
    # Set up at their first word: Alice's, Charlie's and the attack
    # stream go undrawn in many sessions.
    alice = PCG64Stream(functools.partial(stream, cfg.seed, STREAM_ALICE))
    script = Script(tuple(
        PCG64Stream(functools.partial(stream, cfg.seed, k)) for k in (STREAM_BOB, STREAM_CHARLIE, STREAM_ATTACK)
    ))
    # Classical attacker coins share the attack stream object, so they
    # interleave deterministically with its quantum draws.
    attack = build_attack(cfg.strategy, coins=script.rngs.attack)
    bits, bias = cfg.secret_bits, cfg.hadamard_bias
    plans = _round_plans(
        cfg.variant,
        secret=(lambda i: int(alice.integers(0, 2))) if bits is None else (lambda i: int(bits[i - 1])),
        coin=lambda i: int(alice.random() < bias),
        q1=lambda i: int(alice.integers(0, 2)),
        target=lambda i: W1 if alice.random() < 0.5 else W2,
    )
    row = transcript if transcribe else compact_row
    world, rows = _play_rounds(ROUND_TABLE, script, itertools.islice(plans, cfg.rounds), attack, row)
    return world, attack, rows


def run_simulation(
    cfg: SimConfig, transcripts_out: list[RoundTranscript] | None = None
) -> SimReport:
    """Play one full session followed by the check phase; transcripts
    are built only if ``transcripts_out`` asks for them."""
    _, attack, rows = _play_session(cfg, transcripts_out is not None)
    # A check of every round draws nothing, so it gets no stream.
    every = check_size(cfg.check_fraction, len(rows)) == len(rows)
    error_rate, detected, checked = check_phase(
        rows, cfg.check_fraction, None if every else stream(cfg.seed, STREAM_CHECK), cfg.detect_threshold
    )
    if transcripts_out is not None:
        transcripts_out.extend(rows)
    return SimReport(
        variant=cfg.variant,
        strategy=cfg.strategy,
        rounds=cfg.rounds,
        check_fraction=cfg.check_fraction,
        seed=cfg.seed,
        rounds_run=len(rows),
        checked_rounds=len(checked),
        honest_error_rate=error_rate,
        detected=detected,
        eve_accuracy=_score_eve(attack, rows, checked),
        mode_breakdown=_mode_breakdown(rows),
    )


# --------------------------------------------------------------------------
# Exact branch enumeration


@dataclass(frozen=True)
class Scenario:
    """A short, fully scripted session for exact enumeration.

    ``plans``, any iterable kept as a tuple, fixes every classical
    choice Alice makes; ``attack_seed`` fixes the attacker's classical
    coins so that the only remaining nondeterminism is quantum
    measurement.
    """

    variant: str
    plans: tuple[RoundPlan, ...]
    strategy: str = "none"
    attack_seed: int = 17

    def __post_init__(self) -> None:
        _validate_combo(self.variant, self.strategy)
        plans = _check_plans(self.variant, self.plans)
        if not plans:
            raise ValueError("scenario needs at least one round plan")
        if len(plans) > MAX_ENUM_ROUNDS:
            raise ValueError(f"enumeration is capped at {MAX_ENUM_ROUNDS} rounds")
        object.__setattr__(self, "plans", plans)
        _require_int("attack_seed", self.attack_seed, 0)


@dataclass(frozen=True)
class Branch:
    """One measurement branch of a scenario and its exact probability; it
    owns its attack object and its transcripts."""

    probability: float
    transcripts: tuple[RoundTranscript, ...]
    world: PureState
    attack: object | None

    @property
    def errors(self) -> int:
        return sum(1 for t in self.transcripts if t.recovered != t.secret)


class _Tape:
    """Bob's, Charlie's and the attack stream of one enumerated branch.

    The k-th ``random()`` returns 0.0 (outcome 1) if bit k of ``bits`` is
    set and 1.0 (outcome 0, which no Born weight reaches) otherwise, also
    past the tape.  ``integers(0, 2)`` draws the attacker's coins from
    ``np.random.default_rng(seed)``, set up at the first coin, so every
    branch sees the same coins.
    """

    __slots__ = ("bits", "drawn", "_coins")

    def __init__(self, bits: list[int], seed: int) -> None:
        self.bits = bits
        self.drawn = 0  # random() calls so far
        # ``np.random`` is looked up at the first coin too: numpy imports it
        # lazily, and an enumeration without coins never loads it.
        self._coins = PCG64Stream(lambda: np.random.default_rng(seed))

    def random(self) -> float:
        k = self.drawn
        self.drawn = k + 1
        return 0.0 if k < len(self.bits) and self.bits[k] else 1.0

    def integers(self, low: int, high: int) -> int:
        return self._coins.integers(low, high)

    def next_bits(self) -> list[int] | None:
        """The next branch's tape: the bits drawn without their trailing 1s
        and with the last 0 turned to 1; ``None`` after the last branch."""
        bits = self.bits[: self.drawn] + [0] * (self.drawn - len(self.bits))
        while bits and bits[-1]:
            bits.pop()
        if bits:
            bits[-1] = 1
        return bits or None


def enumerate_branches(scenario: Scenario, max_branches: int = MAX_ENUM_BRANCHES) -> list[Branch]:
    """Every measurement branch of the scenario, each played as a session.

    A branch's rounds go through ``_play_rounds`` and ``ROUND_TABLE`` like
    a session's, with one ``_Tape`` for its quantum streams and its
    attacker's coins, so a branch replayed from round 1 is almost all
    table hits.  Branches come out in the lexicographic order of their
    outcomes, and their probabilities sum to 1 (within float rounding).
    Raises if the scenario forks more than ``max_branches`` times, which
    short scripted scenarios never should.
    """
    _require_int("max_branches", max_branches, 1)
    plans = [
        (p.round_index, _plan_class(type(p.mode), tuple(vars(p.mode).values()), p.alice_hadamard))
        for p in scenario.plans
    ]
    branches: list[Branch] = []
    bits: list[int] | None = []
    while bits is not None:
        tape = _Tape(bits, scenario.attack_seed)
        script = Script((tape, tape, tape))
        attack = build_attack(scenario.strategy, coins=script.rngs.attack)
        world, transcripts = _play_rounds(ROUND_TABLE, script, plans, attack, transcript)
        records = [rec for t in transcripts for rec in t.records] + (attack.records if attack is not None else [])
        prob = math.prod(rec.probability for rec in records)
        branches.append(Branch(prob, tuple(transcripts), world, attack))
        if len(branches) > max_branches:
            raise RuntimeError(f"scenario exceeded {max_branches} branches")
        bits = tape.next_bits()
    return branches


def _script_ints(name: str, entries: Iterable[int]) -> tuple[int, ...]:
    """Script entries as ints; a float is an error, never truncated."""
    entries = tuple(entries)
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {entries!r}") from None


def original_plans(secrets: Iterable[int]) -> tuple[RoundPlan, ...]:
    """Alternating-variant plans for the given per-round secrets."""
    secrets = _script_ints("secrets", secrets)
    plans = itertools.islice(_round_plans("original", lambda i: secrets[i - 1]), len(secrets))
    return _check_plans("original", [RoundPlan(i, c.mode, c.coin) for i, c in plans])


def revised_plans(
    coins: Iterable[int],
    secrets: Iterable[int],
    q1_bits: Iterable[int] | None = None,
    targets: Iterable[str] | None = None,
) -> tuple[RoundPlan, ...]:
    """Coin-flip-variant plans with the encoding picked per the form rule.

    ``q1_bits`` and ``targets`` steer the single-encoding rounds and
    default to 0 and ``w1``; entries for pair rounds are ignored.  Every
    coin, secret and ``q1_bits`` entry must be an integer.
    """
    coins, secrets = _script_ints("coins", coins), _script_ints("secrets", secrets)
    if q1_bits is not None:
        q1_bits = _script_ints("q1_bits", q1_bits)
    if targets is not None:
        targets = tuple(targets)
    if len(coins) != len(secrets):
        raise ValueError("coins and secrets must have equal length")
    for name, steer in (("q1_bits", q1_bits), ("targets", targets)):
        if steer is not None and len(steer) < len(coins):
            raise ValueError(f"{name} has {len(steer)} entries for {len(coins)} rounds")
    plans = itertools.islice(_round_plans(
        "revised",
        secret=lambda i: secrets[i - 1],
        coin=lambda i: coins[i - 1],
        q1=(lambda i: 0) if q1_bits is None else lambda i: q1_bits[i - 1],
        target=(lambda i: W1) if targets is None else lambda i: targets[i - 1],
    ), len(coins))
    return _check_plans("revised", [RoundPlan(i, c.mode, c.coin) for i, c in plans])


def run_grid(
    variant: str,
    strategies: Sequence[str],
    rounds_list: Sequence[int],
    check_fractions: Sequence[float],
    repeats: int,
    master_seed: int,
) -> list[SimReport]:
    """Cartesian sweep; each grid point gets ``repeats`` derived seeds."""
    _require_int("repeats", repeats, 1)
    _require_int("seed", master_seed, 0)
    for name, axis in (("strategies", strategies), ("rounds_list", rounds_list), ("check_fractions", check_fractions)):
        if isinstance(axis, str):
            raise ValueError(f"{name} must be a sequence of values, not the string {axis!r}")
    if not (strategies and rounds_list and check_fractions):
        raise ValueError("sweep grid is empty")
    reports = []
    for gi, (strategy, rounds, frac) in enumerate(itertools.product(strategies, rounds_list, check_fractions)):
        for rep in range(repeats):
            seed = derived_seed(master_seed, gi, rep)
            cfg = SimConfig(variant=variant, strategy=strategy, rounds=rounds, seed=seed, check_fraction=frac)
            reports.append(run_simulation(cfg))
    return reports
