"""Session driver: Monte Carlo runs, sweeps and exact branch enumeration.

``run_simulation`` plays full sessions with independent named rng
streams per party, so results are reproducible from ``(config)`` alone
and attacks never disturb the honest parties' draw sequences.  A
session sets up each of its Alice, Bob, Charlie and attack streams at
its first draw, and no check stream when every round is checked.

``enumerate_branches`` plays every measurement branch of a short
scripted scenario as a session of its own.  One tape of outcomes serves
the whole enumeration as every branch's Bob, Charlie and attack streams,
and counts through the outcomes in binary.  A branch agrees with the one
before it up to the round that draws its last tape bit, so the tape
serves the rounds before from that branch's recorded leaves and the rest
play through the round table.  Each branch reports
its exact probability (the product of its rounds' leaf weights, the Born
weights of the outcomes taken), which turns Monte Carlo claims into
closed-form numbers for small scenarios.

Sessions and branches share ``_play_rounds``, the one session loop, and
``_play_round``, the one per-round step.  The loop plays each round
through ``ROUND_TABLE = RoundTable(_play_round)``, a bounded
process-wide memo of recorded statevector rounds (``ghzqss.replay``)
stored as a graph of (world, carrier parity, attack class, attacker
state) nodes: a round whose node and plan class were seen before is
replayed from the recording against the session's own streams, drawing
exactly what the statevector play would draw, and any other round is
played by ``_play_round`` through the session's ``replay.Script`` and
recorded.  A session follows each round's leaf to the next node and
turns the leaf into a compact row, or a transcript if asked for one.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from collections import Counter
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
from .replay import Node, PCG64Stream, RoundTable, Script, compact_row, leaf_weight, replay_leaf, transcript

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


def _require_int(name: str, value, least: int) -> int:
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


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
        # Kept as Python ints, so a numpy integer never reaches the JSON report.
        object.__setattr__(self, "rounds", _require_int("rounds", self.rounds, 1))
        object.__setattr__(self, "seed", _require_int("seed", self.seed, 0))
        check_settings(self.check_fraction, self.detect_threshold, "detect_threshold")
        require_number("hadamard_bias", self.hadamard_bias)
        if not 0.0 <= self.hadamard_bias <= 1.0:
            raise ValueError("hadamard_bias must lie in [0, 1]")
        # Kept as Python floats: a numpy float never reaches the JSON report,
        # and the session compares its draws with the bias float to float.
        for name in ("check_fraction", "detect_threshold", "hadamard_bias"):
            object.__setattr__(self, name, float(getattr(self, name)))
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


# The (mode, target, secret, recovered) of a compact row and of a transcript.
_ROW_TALLY = operator.itemgetter(3, 4, 1, 2)
_TRANSCRIPT_TALLY = operator.attrgetter("mode", "target", "secret", "recovered")


def _mode_breakdown(rows: Sequence) -> dict[str, dict[str, float]]:
    """Rounds and errors per mode, a single encoding per target, keyed in
    the order the modes first appear.  The rows of one session are all
    compact rows or all transcripts, and one ``Counter`` pass counts them."""
    tally = _ROW_TALLY if rows and type(rows[0]) is tuple else _TRANSCRIPT_TALLY
    counts: dict[str, list[int]] = {}
    for (mode, target, secret, recovered), n in Counter(map(tally, rows)).items():
        slot = counts.setdefault(f"single_{target}" if mode == "single" else mode, [0, 0])
        slot[0] += n
        if recovered != secret:
            slot[1] += n
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
    # A session's rows hold rounds 1, 2, ... in order.
    secrets = [row[1] for row in rows] if rows and type(rows[0]) is tuple else [t.secret for t in rows]
    announced = {}
    if attack.readout == "relative":
        announced = dict(enumerate(secrets[:2], start=1))
        announced.update({r: secrets[r - 1] for r in checked})
    guesses, _ = eve_reconstruct(attack.inferred, announced)
    correct = sum(map(operator.eq, map(guesses.get, range(1, len(secrets) + 1)), secrets))
    return correct / len(secrets)


_CLASS_BY_PLAN: dict[tuple, PlanClass] = {}


class PlanClass:
    """A round plan without its round index, one object per plan in
    ``PLAN_CLASSES``: the round table keys a replayed round on the object
    and builds a ``RoundPlan`` only for a round it plays on the
    statevector path.  With the carrier parity before the round, the
    class tells round 1 and odd and even rounds of the alternating
    variant apart: (0, product), (1, product) and (0, pair).  Each class
    registers itself in ``_CLASS_BY_PLAN`` under its (mode, coin)."""

    __slots__ = ("mode", "coin", "mode_name", "target", "secret")

    def __init__(self, kind: type, fields: tuple, coin: int | None) -> None:
        plan = RoundPlan(0, kind(*fields), coin)
        self.mode, self.coin = plan.mode, coin
        self.mode_name, self.target, self.secret = plan.mode_name, plan.target, plan.secret
        _CLASS_BY_PLAN[plan.mode, coin] = self


# Every plan class, built once and indexed by the draws that pick it:
# the alternating variant's by [round index % 2][secret], the coin-flip
# variant's pairs by [coin][secret] and its singles by
# [coin][secret][q1][target is w1].
PLAN_CLASSES = (
    tuple(tuple(PlanClass(ProductPair if odd else EntangledPair, (q,), None) for q in (0, 1)) for odd in (0, 1)),
    tuple(tuple(PlanClass(EntangledPair, (q,), c) for q in (0, 1)) for c in (0, 1)),
    tuple(
        tuple(tuple(tuple(PlanClass(SinglePair, (b, b ^ q, W1 if w1 else W2), c) for w1 in (0, 1)) for b in (0, 1))
              for q in (0, 1))
        for c in (0, 1)
    ),
)


def _class_of(plan: RoundPlan) -> PlanClass:
    """The entry of ``PLAN_CLASSES`` for a ``plan`` that ``check_plan`` accepts."""
    return _CLASS_BY_PLAN[plan.mode, plan.alice_hadamard]


def _round_plans(
    variant: str,
    secret: Callable[[], int],
    coin: Callable[[], int] | None = None,
    q1: Callable[[], int] | None = None,
    w1: Callable[[], bool] | None = None,
) -> Iterator[tuple[int, PlanClass]]:
    """``(round index, plan class)`` pairs from round 1 on, the one source
    of round plans.  Each draw is a function without arguments that
    returns 0 or 1, or a bool (``w1`` is true if a single encoding
    targets ``w1``), and picks the class from ``PLAN_CLASSES`` by its
    value.  A round calls ``secret``, then in the
    coin-flip variant ``coin``, and for a single encoding ``q1`` and
    ``w1``, in the order a session draws them from Alice's stream.  The
    coin-flip variant picks the encoding per the form rule; the carrier
    form is the XOR of the coins so far.

    A session passes Alice's ``PCG64Stream.bit`` and lambdas over her
    ``random``: Python calls with exact arguments, which CPython 3.11
    inlines.  A C-level wrapper such as a ``functools.partial`` or a
    ``map`` would enter a fresh interpreter frame on every draw."""
    alternating, pairs, singles = PLAN_CLASSES
    if variant == "original":
        for i in itertools.count(1):
            yield i, alternating[i & 1][secret()]
    parity = 0
    for i in itertools.count(1):
        q = secret()
        c = coin()
        if c ^ parity:
            yield i, pairs[c][q]
        else:
            yield i, singles[c][q][q1()][w1()]
        parity ^= c


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


# The process-wide memo of ``_play_round``, for sessions and enumeration.
ROUND_TABLE = RoundTable(_play_round)


def _play_rounds(table: RoundTable, script: Script, plans: Iterable, attack, row) -> tuple[PureState, list]:
    """The one session loop: each ``(round index, plan class)`` of ``plans``
    played through ``table`` from the node the leaf before names, the first
    from ``chi_state()`` at parity 0, with the draws of ``script`` and
    ``attack``.  A session passes ``ROUND_TABLE``; an enumerated branch
    passes its enumeration's ``_Tape``, which serves the rounds the branch
    keeps from the branch before it and plays the rest through the table
    it fronts.  Returns the final world and per round
    ``row(round index, plan class, payload)``."""
    node, rows = table.node(chi_state(), 0, attack), []
    for i, plan_class in plans:
        node, payload = table.play(script, node, (i, plan_class), attack)
        rows.append(row(i, plan_class, payload))
    return node.world, rows


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
    attack = build_attack(cfg.strategy, coins=script.tap(2))
    # Draws that CPython inlines (see ``_round_plans``); a given secret is
    # read from the string in C, which calls no Python function.
    uniform, bias = alice.random, cfg.hadamard_bias
    plans = _round_plans(
        cfg.variant,
        secret=alice.bit if cfg.secret_bits is None else map(int, cfg.secret_bits).__next__,
        coin=lambda: uniform() < bias,
        q1=alice.bit,
        w1=lambda: uniform() < 0.5,
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
    measurement.  This is the one check of a plan script: round by round
    from round 1, each plan must be a ``RoundPlan`` that ``check_plan``
    accepts.
    """

    variant: str
    plans: tuple[RoundPlan, ...]
    strategy: str = "none"
    attack_seed: int = 17

    def __post_init__(self) -> None:
        _validate_combo(self.variant, self.strategy)
        plans, parity = tuple(self.plans), 0
        for pos, plan in enumerate(plans, start=1):
            if not isinstance(plan, RoundPlan):
                raise ValueError(f"plan at position {pos} is not a RoundPlan: {plan!r}")
            if self.variant == "original" and pos > 1:
                parity ^= 1  # the Hadamard layer before every later round
            check_plan(plan, parity, self.variant == "revised")
            if plan.round_index != pos:
                raise ValueError(f"plan at position {pos} has round_index {plan.round_index}")
            parity ^= plan.alice_hadamard or 0
        if not plans:
            raise ValueError("scenario needs at least one round plan")
        if len(plans) > MAX_ENUM_ROUNDS:
            raise ValueError(f"enumeration is capped at {MAX_ENUM_ROUNDS} rounds")
        object.__setattr__(self, "plans", plans)
        # Kept as a Python int, as ``SimConfig`` keeps its seed.
        object.__setattr__(self, "attack_seed", _require_int("attack_seed", self.attack_seed, 0))


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
    """Bob's, Charlie's and the attack stream of every branch of one
    enumeration, and the record of the current branch's rounds.

    A branch's k-th ``random()`` returns 0.0 (outcome 1) if bit k of
    ``bits`` is set and 1.0 (outcome 0, which no Born weight reaches)
    otherwise, also past the tape.  Every branch sees the same coins: its
    k-th ``integers(0, 2)`` is the k-th coin of
    ``np.random.default_rng(seed)``, drawn once, by the first branch that
    needs it, and kept.  The generator is set up at the first coin.

    The tape fronts ``table`` in ``_play_rounds`` and looks up the start
    node of every branch in it once.  A round the branch keeps from the
    branch before (``round_index - 1 < len(rounds)``) comes back as that
    branch's recorded leaf: the tape restores the counts and weight
    product after it and applies the leaf to the attack, as a table hit
    does.  Every later round plays through ``table`` and appends to
    ``rounds`` its leaf, the ``random()`` and coin counts after it and the
    product of the branch's leaf weights so far.  ``next_branch`` moves
    the tape to the next branch.
    """

    __slots__ = ("table", "bits", "drawn", "coins", "weight", "rounds", "_kept", "_gen", "_start")

    def __init__(self, table: RoundTable, seed: int) -> None:
        self.table = table
        self.bits: list[int] = []
        self.drawn = 0  # random() calls so far
        self.coins = 0  # integers() calls so far
        self.weight = 1.0  # product of the leaf weights so far
        self.rounds: list[tuple] = []  # (leaf, drawn, coins, weight) per round
        self._kept: list[int] = []  # the coins drawn so far
        # ``np.random`` is looked up at the first coin too: numpy imports it
        # lazily, and an enumeration without coins never loads it.
        self._gen = PCG64Stream(lambda: np.random.default_rng(seed))
        self._start: Node | None = None

    def node(self, world: PureState, parity: int, attack) -> Node:
        """Every branch's start node, looked up in ``table`` at the first branch."""
        start = self._start
        if start is None:
            start = self._start = self.table.node(world, parity, attack)
        return start

    def random(self) -> float:
        k = self.drawn
        self.drawn = k + 1
        return 0.0 if k < len(self.bits) and self.bits[k] else 1.0

    def integers(self, low: int, high: int) -> int:
        k, kept = self.coins, self._kept
        self.coins = k + 1
        if k == len(kept):
            kept.append(self._gen.integers(low, high))
        return kept[k]

    def play(self, script: Script, node: Node, plan: tuple, attack) -> tuple:
        """A kept round's recorded leaf, else the table's play with the round recorded."""
        round_index, rounds = plan[0], self.rounds
        if round_index - 1 < len(rounds):
            leaf, self.drawn, self.coins, self.weight = rounds[round_index - 1]
            replay_leaf(round_index, leaf, attack)
            return leaf
        leaf = self.table.play(script, node, plan, attack)
        self.weight = weight = self.weight * leaf_weight(leaf)
        rounds.append((leaf, self.drawn, self.coins, weight))
        return leaf

    def next_branch(self) -> bool:
        """Move to the next branch, ``False`` after the last one.  Its bits
        are those drawn without their trailing 1s and with the last 0 turned
        to 1, and it keeps the rounds before the first that draws that bit."""
        bits = self.bits[: self.drawn] + [0] * (self.drawn - len(self.bits))
        while bits and bits[-1]:
            bits.pop()
        if not bits:
            return False
        bits[-1] = 1
        # Rounds end at rising random() counts, and the last drew them all.
        rounds = self.rounds
        start = len(rounds) - 1
        while start and rounds[start - 1][1] >= len(bits):
            start -= 1
        del rounds[start:]
        self.bits, self.drawn, self.coins, self.weight = bits, 0, 0, 1.0
        return True


def enumerate_branches(scenario: Scenario) -> list[Branch]:
    """Every measurement branch of the scenario, each played as a session.

    A branch's rounds go through ``_play_rounds`` like a session's, with
    one ``_Tape`` for the whole enumeration as its table, its quantum
    streams and its attacker's coins, and one ``Script`` on that tape.
    Branches come out in the lexicographic order of their outcomes, so a
    branch draws what the branch before drew on every round before the
    first that draws its last tape bit: the tape serves those rounds from
    the branch before's leaves, and plays the rest through ``ROUND_TABLE``.
    Each branch builds its own attack and transcripts.  Its probability
    is the product of its rounds' leaf weights, and its transcripts hold
    the table's frozen events and records until read.  The probabilities
    sum to 1 (within float rounding).  Raises ``RuntimeError`` once there
    are more than ``MAX_ENUM_BRANCHES`` branches, which short scripted
    scenarios never reach.
    """
    plans = [(p.round_index, _class_of(p)) for p in scenario.plans]
    tape = _Tape(ROUND_TABLE, scenario.attack_seed)
    script = Script((tape, tape, tape))
    branches = []
    while True:
        attack = build_attack(scenario.strategy, coins=script.tap(2))
        world, transcripts = _play_rounds(tape, script, plans, attack, transcript)
        branches.append(Branch(tape.weight, tuple(transcripts), world, attack))
        if len(branches) > MAX_ENUM_BRANCHES:
            raise RuntimeError(f"scenario exceeded {MAX_ENUM_BRANCHES} branches")
        if not tape.next_branch():
            return branches


def _script_ints(name: str, entries: Iterable[int]) -> tuple[int, ...]:
    """Script entries as ints; a float is an error, never truncated."""
    entries = tuple(entries)
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {entries!r}") from None


_BIT_ERROR = "payload bits of round {round} must be the ints 0 or 1, got {entry!r}"


def _scripted(variant: str, rounds: int, **columns: tuple) -> tuple[RoundPlan, ...]:
    """The first ``rounds`` plans of ``_round_plans`` with each draw given as a
    column ``(entries, values, error)``: in round r the draw returns the index
    in ``values`` of ``entries[r - 1]``, and an entry not among ``values``
    raises ``ValueError(error)`` before any class is looked up.  A draw the
    round does not make leaves its entry unread.  Plans built from the
    classes are left for ``Scenario`` to check."""
    at = 0

    def column(entries: tuple, values: tuple, error: str) -> Callable[[], int]:
        def draw() -> int:
            entry = entries[at]
            if entry not in values:
                raise ValueError(error.format(round=at + 1, entry=entry))
            return values.index(entry)

        return draw

    plans = _round_plans(variant, **{name: column(*spec) for name, spec in columns.items()})
    scripted = []
    for at in range(rounds):
        i, c = next(plans)
        scripted.append(RoundPlan(i, c.mode, c.coin))
    return tuple(scripted)


def original_plans(secrets: Iterable[int]) -> tuple[RoundPlan, ...]:
    """Alternating-variant plans for the given per-round secrets."""
    secrets = _script_ints("secrets", secrets)
    return _scripted("original", len(secrets), secret=(secrets, (0, 1), _BIT_ERROR))


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
    rounds = len(coins)
    q1_bits = (0,) * rounds if q1_bits is None else _script_ints("q1_bits", q1_bits)
    targets = (W1,) * rounds if targets is None else tuple(targets)
    if len(secrets) != rounds:
        raise ValueError("coins and secrets must have equal length")
    for name, steer in (("q1_bits", q1_bits), ("targets", targets)):
        if len(steer) < rounds:
            raise ValueError(f"{name} has {len(steer)} entries for {rounds} rounds")
    return _scripted(
        "revised", rounds,
        secret=(secrets, (0, 1), _BIT_ERROR),
        coin=(coins, (0, 1), "coin-flip variant plans need alice_hadamard 0 or 1, got {entry!r}"),
        q1=(q1_bits, (0, 1), _BIT_ERROR),
        w1=(targets, (W2, W1), f"target must be {W1!r} or {W2!r}, got {{entry!r}}"),
    )


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
