"""Session driver: Monte Carlo runs, sweeps and exact branch enumeration.

``run_simulation`` plays full sessions with independent named rng
streams per party, so results are reproducible from ``(config)`` alone
and attacks never disturb the honest parties' draw sequences.  Stream
k of seed s is numpy's ``default_rng(SeedSequence(s, spawn_key=(k,)))``,
and ``pcg64`` is the one place that seeds it.  A session's Bob, Charlie
and attack streams are ``PCG64Stream(s, k)``s, which decode numpy's
draws from raw PCG64 words (O'Neill 2014) and set up their bit generator
at their first draw.  So is Alice's when her secrets are given; when she
draws them, ``_lanes`` decodes the same draws a block at a time.  The
check stream, ``stream(s, k)``, is a numpy ``Generator``, and a session
sets up none when every round is checked.

``enumerate_branches`` plays every measurement branch of a short
scripted scenario as a session of its own.  One tape of outcomes serves
the whole enumeration as every branch's Bob, Charlie and attack streams,
and counts through the outcomes in binary.  Every branch plays each of
its rounds through the round table, as a session does, and reports its
exact probability (1/2 to the power of its ``random()`` draws, as every
measurement forks at a Born weight of 1/2), which turns Monte Carlo
claims into closed-form numbers for small scenarios.

A session plays the plan list ``_round_plans`` builds, and a branch its
scenario's plans as plan classes, both through the one session loop,
``ROUND_TABLE.play_rounds``, and ``_play_round``, the one per-round
step.  ``ROUND_TABLE = RoundTable(_play_round)`` is a bounded
process-wide memo of recorded statevector rounds (``ghzqss.replay``)
stored as a graph of (world, carrier parity, attack class, attacker
state) nodes: a round whose node and plan class were seen before is
replayed from the recording against the session's own streams, drawing
exactly what the statevector play would draw, and any other round is
played by ``_play_round`` through the session's ``replay.Script`` and
recorded.  A session follows each round's leaf to the next node and
keeps the leaf's ``args`` as the round's row, from which the report is
read and transcripts are built only if asked for.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import sys
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .attacks import ATTACKS, build_attack, eve_reconstruct
from .protocol import (
    W1,
    W2,
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
    revised_round,
    session_transcripts,
    transcript_fields,
)
from .qsim import PureState, require_number
from .replay import _SCALAR_ONLY, RoundTable, Script

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


# numpy's ``SeedSequence`` output hash: word i is w ^ w >> 16, w = (pool[i % 4] ^ x) * m mod 2**32.
_OUTPUT_HASH = tuple(itertools.pairwise(0x8B51F9DD * 0x58F38DED ** i & 0xFFFFFFFF for i in range(9)))


def _words(n: int, pad: int = 1) -> bytes:
    """numpy's little-endian uint32 seed words of an int, one for 0, zero-padded to ``pad``."""
    n = operator.index(n)
    if n < 0:  # as numpy: a negative int has no words
        raise ValueError("expected non-negative integer")
    return n.to_bytes(4 * max(pad, -(-n.bit_length() // 32)), "little")


def _seed_words(entropy: bytes, n: int) -> list[int]:
    """The first ``n`` words of ``generate_state`` of a ``SeedSequence`` of the uint32 words
    of ``entropy``: numpy mixes the pool in C, the output hash runs here without its wrappers."""
    pool = np.random.SeedSequence(np.frombuffer(entropy, "<u4")).pool.tolist()
    return [(w := (pool[i & 3] ^ x) * m & 0xFFFFFFFF) ^ w >> 16 for i, (x, m) in enumerate(_OUTPUT_HASH[:n])]


@functools.cache
def _seed_state() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` the seed words it is given,
    made at the first generator, as numpy imports ``numpy.random`` lazily."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=None):
            return self.state

    return SeedState


def pcg64(seed: int, *spawn_key: int) -> np.random.PCG64:
    """numpy's ``PCG64(SeedSequence(entropy=seed, spawn_key=spawn_key))``, the one
    place that says which numpy stream a seed and a spawn key name.  numpy pads
    the seed's words to the pool size only before a key, but its pool mixing
    hashes a zero for each missing word, so padding always gives the same pool."""
    w = _seed_words(_words(seed, 4) + b"".join(map(_words, spawn_key)), 8)
    # PCG64 takes the eight seed words as four uint64 words, low half first.
    state = np.array([w[0] | w[1] << 32, w[2] | w[3] << 32, w[4] | w[5] << 32, w[6] | w[7] << 32], np.uint64)
    return np.random.PCG64(_seed_state()(state))


def stream(seed: int, k: int) -> np.random.Generator:
    """The k-th independent substream of a session seed as a numpy ``Generator``,
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(k,)))``: the check stream."""
    return np.random.Generator(pcg64(seed, k))


def derived_seed(*parts: int) -> int:
    """Stable scalar seed derived from a tuple (used by sweeps): numpy's ``SeedSequence(parts)``'s first word."""
    return _seed_words(b"".join(map(_words, parts)), 1)[0]


# Raw words a PCG64Stream fetches at a time.
BLOCK_WORDS = 64


class PCG64Stream:
    """The scalar ``random()`` and ``integers(0, 2)`` draws of numpy's
    ``default_rng(SeedSequence(entropy=seed, spawn_key=spawn_key))``,
    decoded in Python from the raw 64-bit words of its PCG64.

    The values are numpy's own.  A double is ``(w >> 11) * 2**-53`` of the
    next word.  ``integers(0, 2)`` is Lemire's bounded draw (Lemire 2019)
    for a range of two, which is the top bit of the next 32-bit half-word;
    half-words come low half first, then high half, and a pending high
    half waits across ``random()`` calls, as PCG64's ``next_uint32`` does.
    Words are fetched ``BLOCK_WORDS`` at a time with ``random_raw``; a
    draw reads the next buffered word itself and calls ``_word`` only to
    fetch the next block.  The stream sets up its bit generator,
    ``pcg64(seed, *spawn_key)``, at its first word, so a stream that is
    never drawn from never sets one up, and it builds no numpy ``Generator``.

    ``bit()`` is ``integers(0, 2)`` without arguments, the draw a session
    given its secrets passes for Alice's bits; a session that draws them
    decodes her words through ``_lanes``.  Each draw is a Python method
    called with its exact positional arguments, which CPython 3.11 inlines
    into its caller.
    Any other call (other bounds, ``size=``, keywords) raises ``TypeError``
    before anything is drawn, and the stream has no other method or
    attribute.
    """

    __slots__ = ("_seed", "_bits", "_block", "_pos", "_half")

    def __init__(self, seed: int, *spawn_key: int) -> None:
        self._seed = (seed, *spawn_key)
        self._bits = self._half = None
        self._block: list[int] = []
        self._pos = 0  # next word of the block

    def _word(self) -> int:
        """The first word of a new block, fetched once the buffered block is used up."""
        if self._bits is None:
            self._bits = pcg64(*self._seed)
        self._block = self._bits.random_raw(BLOCK_WORDS).tolist()
        self._pos = 1
        return self._block[0]

    def random(self):
        pos, block = self._pos, self._block
        if pos < len(block):
            self._pos = pos + 1
            return (block[pos] >> 11) * 2.0 ** -53
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, low, high, /):
        if low != 0 or high != 2:
            raise TypeError(_SCALAR_ONLY)
        return self.bit()

    def bit(self):
        """``integers(0, 2)`` as a draw without arguments, for Alice's bits."""
        half = self._half
        if half is None:
            pos, block = self._pos, self._block
            if pos < len(block):
                self._pos = pos + 1
                word = block[pos]
            else:
                word = self._word()
            self._half = word >> 32
            return (word >> 31) & 1
        self._half = None
        return half >> 31


# Lane entries (bits, and randoms in the coin-flip variant) decoded at a time.
LANE_BLOCK = 1024

# A word's bits for ``bit()``: the top bit of its low half-word, then of its high half.
_HALF_TOPS = np.array([31, 63], np.uint64)


def _lanes(revised: bool, rounds: int, seed: int, *spawn_key: int) -> tuple[Callable[[], int], Callable[[], float]]:
    """The ``bit()`` and ``random()`` draws of ``PCG64Stream(seed, *spawn_key)``
    for ``rounds`` rounds of Alice's drawn plans, as the C-level ``__next__``
    of two lanes that numpy decodes from the raw words a block at a time.

    Without given secrets Alice's draws come in a fixed order whatever the
    outcomes: the alternating variant draws only bits, so word k holds bits
    2k and 2k + 1; the coin-flip variant draws bit, random, bit, random, ...
    (secret then coin, and ``q1`` then target for a single encoding), so
    word 3k holds bits 2k and 2k + 1 and words 3k + 1 and 3k + 2 randoms 2k
    and 2k + 1.  Each bit is the top bit of a word's low half-word, then of
    its high half, and each random ``(w >> 11) * 2**-53``, as ``bit()`` and
    ``random()`` hand them out.  A lane is a chain of per-block lists: a
    draw runs no Python frame, and only a new block resumes the generator
    that decodes it.  The first block holds the session's most draws per
    lane (one bit a round, or two bits and two randoms) up to
    ``LANE_BLOCK``, later blocks ``LANE_BLOCK``, so memory stays bounded.
    A block's randoms are decoded with its bits, which each round draws
    first.  The bit generator is set up at the first draw.
    """
    randoms: deque[list[float]] = deque()  # decoded blocks of the random lane not yet drawn

    def bits():
        gen, n = pcg64(seed, *spawn_key), min(2 * rounds if revised else rounds, LANE_BLOCK)
        while True:
            if revised:
                words = gen.random_raw(n // 2 * 3).reshape(-1, 3)
                randoms.append(((words[:, 1:] >> 11) * 2.0 ** -53).ravel().tolist())
                words = words[:, :1]
            else:
                words = gen.random_raw(-(-n // 2))[:, None]
            yield (words >> _HALF_TOPS & 1).ravel().tolist()
            n = LANE_BLOCK

    chain = itertools.chain.from_iterable
    return chain(bits()).__next__, chain(iter(randoms.popleft, None)).__next__


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
        # A session's plan list holds one entry per round, as its rows do,
        # and a list holds at most ``sys.maxsize`` entries.
        if self.rounds > sys.maxsize:
            raise ValueError(f"rounds must be at most {sys.maxsize}, got {self.rounds}")
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


def _mode_breakdown(rows: Sequence[tuple]) -> dict[str, dict[str, float]]:
    """Rounds and errors per mode, a single encoding per target, keyed in
    the order the modes first appear, from a session's rows in one
    ``Counter`` pass."""
    tallies = transcript_fields(rows, "mode", "target", "secret", "recovered")
    counts: dict[str, list[int]] = {}
    for (mode, target, secret, recovered), n in Counter(tallies).items():
        slot = counts.setdefault(f"single_{target}" if mode == "single" else mode, [0, 0])
        slot[0] += n
        if recovered != secret:
            slot[1] += n
    return {key: {"rounds": n, "errors": e, "error_rate": e / n} for key, (n, e) in counts.items()}


def _score_eve(attack, rows: Sequence[tuple], checked: Sequence[int]) -> float | None:
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
    secrets = list(transcript_fields(rows, "secret"))
    announced = {}
    if attack.readout == "relative":
        announced = dict(enumerate(secrets[:2], start=1))
        announced.update({r: secrets[r - 1] for r in checked})
    guesses, _ = eve_reconstruct(attack.inferred, announced)
    correct = sum(map(operator.eq, map(guesses.get, range(1, len(secrets) + 1)), secrets))
    return correct / len(secrets)


_CLASS_BY_PLAN: dict[tuple, PlanClass] = {}


class PlanClass:
    """A round plan without its round index, its mode and coin, one object
    per plan in ``PLAN_CLASSES``: the round table keys a replayed round on
    the object and builds a ``RoundPlan`` only for a round it plays on the
    statevector path.  With the carrier parity before the round, the
    class tells round 1 and odd and even rounds of the alternating
    variant apart: (0, product), (1, product) and (0, pair).  Each class
    registers itself in ``_CLASS_BY_PLAN`` under its (mode, coin)."""

    __slots__ = ("mode", "coin")

    def __init__(self, kind: type, fields: tuple, coin: int | None) -> None:
        self.mode, self.coin = kind(*fields), coin
        _CLASS_BY_PLAN[self.mode, coin] = self


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
    rounds: int,
    secret: Callable[[], int],
    q1: Callable[[], int] | None = None,
    coin: Callable[[], float] | None = None,
    w1: Callable[[], float] | None = None,
    bias: float = 0.5,
) -> list[PlanClass]:
    """The plan classes of rounds 1 to ``rounds`` in order, the one source
    of round plans.  ``secret`` and ``q1`` return 0 or 1, and
    ``coin`` and ``w1`` a uniform draw: the coin is 1 if it is below
    ``bias``, and a single encoding targets ``w1`` if that draw is below
    1/2.  Each draw's value picks the class from ``PLAN_CLASSES``.  A
    round calls ``secret``, then in the coin-flip variant ``coin``, and for
    a single encoding ``q1`` and ``w1``, in the order a session draws them
    from Alice's stream.  The coin-flip variant picks the encoding per the
    form rule; the carrier form is the XOR of the coins so far.

    The comparisons are made here, so a session passes draws that run no
    Python frame of their own: the C-level ``__next__`` of Alice's two
    lanes (``_lanes``) when she draws her secrets, and else ``map.__next__``
    over the given secrets with her ``PCG64Stream``'s ``bit`` and
    ``random`` themselves, which CPython 3.11 inlines, as a Python method
    called with its exact arguments.  A lambda around a draw would add a
    frame per draw, and a ``functools.partial`` a fresh interpreter frame."""
    alternating, pairs, singles = PLAN_CLASSES
    if variant == "original":
        return [alternating[i & 1][secret()] for i in range(1, rounds + 1)]
    plans, parity = [], 0
    for _ in range(rounds):
        q = secret()
        c = coin() < bias
        if c ^ parity:
            plans.append(pairs[c][q])
        else:
            plans.append(singles[c][q][q1()][w1() < 0.5])
        parity ^= c
    return plans


def _play_round(
    world: PureState, plan: RoundPlan, parity: int, rngs: Rngs, attack
) -> tuple[PureState, int, RoundTranscript]:
    """One round of a session from carrier parity ``parity``: the next
    world, the next parity and the transcript.

    A plan without a coin plays the alternating variant, which applies
    the public Hadamard layer before every round after the first and so
    flips the parity; the attack keeps its probes in step with it.  A
    coin of 1 flips the parity too.
    """
    play = revised_round
    if plan.alice_hadamard is None:
        play = original_round
        if plan.round_index > 1:
            world, parity = hadamard_layer(world), parity ^ 1
            if attack is not None:
                world = attack.sync_hadamard(world)
    world, t = play(world, plan, parity, rngs, attack)
    return world, parity ^ (plan.alice_hadamard or 0), t


# The process-wide memo of ``_play_round``, for sessions and enumeration.
ROUND_TABLE = RoundTable(_play_round)


def _play_session(cfg: SimConfig) -> tuple[PureState, object, list[tuple]]:
    """All rounds of one session: the final world, the attack and each round's row."""
    # Set up at their first word: Charlie's and the attack stream go
    # undrawn in many sessions, and so does Alice's given her secrets.
    script = Script(tuple(PCG64Stream(cfg.seed, k) for k in (STREAM_BOB, STREAM_CHARLIE, STREAM_ATTACK)))
    # Classical attacker coins share the attack stream object, so they
    # interleave deterministically with its quantum draws.
    attack = build_attack(cfg.strategy, coins=script.tap(2))
    # Draws that run no Python frame of their own (see ``_round_plans``).
    if cfg.secret_bits is None:
        # Alice's draws come in a fixed order, decoded a block at a time.
        bit, random = _lanes(cfg.variant == "revised", cfg.rounds, cfg.seed, STREAM_ALICE)
        secret = bit
    else:
        # Given secrets are read from the string in C; her coin-flip draws
        # then interleave by outcome, so they come from her stream.
        alice = PCG64Stream(cfg.seed, STREAM_ALICE)
        secret, bit, random = map(int, cfg.secret_bits).__next__, alice.bit, alice.random
    plans = _round_plans(cfg.variant, cfg.rounds, secret, q1=bit, coin=random, w1=random, bias=cfg.hadamard_bias)
    start = ROUND_TABLE.node(chi_state(), 0, attack)
    end, rows = ROUND_TABLE.play_rounds(script, start, plans, attack)
    return end.world, attack, rows


def run_simulation(
    cfg: SimConfig, transcripts_out: list[RoundTranscript] | None = None
) -> SimReport:
    """Play one full session followed by the check phase; transcripts are
    built from the rows only if ``transcripts_out`` asks for them, and checked."""
    _, attack, rows = _play_session(cfg)
    checking = rows if transcripts_out is None else session_transcripts(rows)
    # A check of every round draws nothing, so it gets no stream.
    every = check_size(cfg.check_fraction, len(rows)) == len(rows)
    error_rate, detected, checked = check_phase(
        checking, cfg.check_fraction, None if every else stream(cfg.seed, STREAM_CHECK), cfg.detect_threshold
    )
    if transcripts_out is not None:
        transcripts_out.extend(checking)
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


@dataclass(frozen=True, slots=True)
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
    """Bob's, Charlie's and the attack stream of every branch of one enumeration.

    A branch's k-th ``random()`` returns 0.0 (outcome 1) if bit k of
    ``bits`` is set and 1.0 (outcome 0, which no Born weight reaches)
    otherwise, also past the tape.  Every branch sees the same coins: its
    k-th ``bit()`` or ``integers(0, 2)`` is the k-th coin of
    ``np.random.default_rng(seed)``, drawn once, by the first branch that
    needs it, and kept; other bounds raise ``TypeError`` before a draw, as
    on a ``PCG64Stream``, which the coins come from.  Its bit generator is
    set up at the first coin.
    ``next_branch`` moves the tape to the next branch.
    """

    __slots__ = ("bits", "drawn", "coins", "_kept", "_gen")

    def __init__(self, seed: int) -> None:
        self.bits: list[int] = []
        self.drawn = 0  # random() calls so far
        self.coins = 0  # integers() calls so far
        self._kept: list[int] = []  # the coins drawn so far
        # ``np.random`` is looked up at the first coin too: numpy imports it
        # lazily, and an enumeration without coins never loads it.
        self._gen = PCG64Stream(seed)

    def random(self) -> float:
        k = self.drawn
        self.drawn = k + 1
        return 0.0 if k < len(self.bits) and self.bits[k] else 1.0

    integers = PCG64Stream.integers  # (0, 2) only, then ``bit()``

    def bit(self) -> int:
        k, kept = self.coins, self._kept
        self.coins = k + 1
        if k == len(kept):
            kept.append(self._gen.bit())
        return kept[k]

    def next_branch(self) -> bool:
        """Move to the next branch, ``False`` after the last one.  Its bits
        are those drawn without their trailing 1s and with the last 0 turned to 1."""
        bits, drawn = self.bits, self.drawn
        del bits[drawn:]
        bits += [0] * (drawn - len(bits))
        while bits and bits[-1]:
            bits.pop()
        if not bits:
            return False
        bits[-1] = 1
        self.drawn = self.coins = 0
        return True


def enumerate_branches(scenario: Scenario) -> list[Branch]:
    """Every measurement branch of the scenario, each played as a session.

    A branch's rounds go through ``RoundTable.play_rounds`` like a
    session's, with one ``_Tape`` for the whole enumeration as its quantum
    streams and its attacker's coins, and one ``Script`` on that tape.  The start node is
    looked up once, with the first branch's attack: every branch's fresh
    attack has the same class and ``state``.  Branches come out in the
    lexicographic order of their outcomes, and every branch plays each of
    its rounds through ``ROUND_TABLE``.  Each branch builds its own
    attack and transcripts.  Its probability is 1/2 to the power of its
    ``random()`` draws, and its transcripts hold the table's frozen
    events and records until read.  The probabilities are dyadic and sum
    to exactly 1.0.  Raises ``RuntimeError`` once there are more than
    ``MAX_ENUM_BRANCHES`` branches, which short scripted scenarios never
    reach.
    """
    plans = list(map(_class_of, scenario.plans))
    tape = _Tape(scenario.attack_seed)
    script = Script((tape, tape, tape))
    start, branches = None, []
    while True:
        attack = build_attack(scenario.strategy, coins=script.tap(2))
        if start is None:
            start = ROUND_TABLE.node(chi_state(), 0, attack)
        end, rows = ROUND_TABLE.play_rounds(script, start, plans, attack)
        branches.append(Branch(0.5 ** tape.drawn, tuple(session_transcripts(rows)), end.world, attack))
        if len(branches) > MAX_ENUM_BRANCHES:
            raise RuntimeError(f"scenario exceeded {MAX_ENUM_BRANCHES} branches")
        if not tape.next_branch():
            return branches


def _script_ints(name: str, entries: Iterable[int]) -> tuple[int, ...]:
    """Script entries as ints; a float or a bool is an error, never read as a bit."""
    entries = tuple(entries)
    try:
        if any(type(entry) is bool for entry in entries):
            raise TypeError
        return tuple(map(operator.index, entries))
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {entries!r}") from None


_BIT_ERROR = "payload bits of round {round} must be the ints 0 or 1, got {entry!r}"


def _scripted(variant: str, rounds: int, **columns: tuple) -> tuple[RoundPlan, ...]:
    """The plans of ``_round_plans`` for ``rounds`` rounds with each draw given
    as a column ``(entries, values, error)``: in round r the draw returns the
    index in ``values`` of ``entries[r - 1]``, so ``coin`` and ``w1``, which
    ``_round_plans`` compares with 1/2, list first the value that a draw
    below it picks.  An entry not among ``values`` raises
    ``ValueError(error)`` before any class is looked up.  A draw the round
    does not make leaves its entry unread.  Plans built from the classes are
    left for ``Scenario`` to check."""
    at = -1

    def column(entries: tuple, values: tuple, error: str) -> Callable[[], int]:
        def draw() -> int:
            entry = entries[at]
            if entry not in values:
                raise ValueError(error.format(round=at + 1, entry=entry))
            return values.index(entry)

        return draw

    draws = {name: column(*spec) for name, spec in columns.items()}
    secret = draws.pop("secret")

    def first() -> int:  # each round draws its secret first
        nonlocal at
        at += 1
        return secret()

    return tuple(RoundPlan(i, c.mode, c.coin) for i, c in enumerate(_round_plans(variant, rounds, first, **draws), 1))


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
        coin=(coins, (1, 0), "coin-flip variant plans need alice_hadamard 0 or 1, got {entry!r}"),
        q1=(q1_bits, (0, 1), _BIT_ERROR),
        w1=(targets, (W1, W2), f"target must be {W1!r} or {W2!r}, got {{entry!r}}"),
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
