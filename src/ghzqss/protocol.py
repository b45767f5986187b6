"""Round engine for three-party XOR secret sharing over a reusable carrier.

Alice, Bob and Charlie share the three-qubit carrier
``(|000> + |111>)/sqrt(2)``, written ``chi`` below.  Alice encodes one
secret bit per round into fresh transit qubits, sends one to Bob and one
to Charlie, and the two receivers decode so that the XOR of their
results reproduces the secret while the carrier returns to its expected
form for the next round.  Two session variants are implemented:

* the alternating variant (``original_round``): odd rounds carry the
  secret as a product pair ``|q,q>``, even rounds as the correlated pair
  ``(|0,q> + |1,1-q>)/sqrt(2)``, and all three parties apply a Hadamard
  layer to the carrier between rounds;

* the coin-flip variant (``revised_round``): each round Alice draws a
  private coin that decides whether she applies a Hadamard to her
  carrier qubit before encoding, and announces the coin only after both
  receivers confirm receipt.

The carrier alternates between ``chi`` and its three-fold Hadamard
transform ``g = H x H x H |chi>``.  A round decodes correctly only when
the encoding matches the carrier form at decode time: the correlated
pair works exactly when the form is ``g`` at the end of the round, and
the single-qubit encodings work exactly when it is ``chi``.  For the
coin-flip variant that end-of-round form is ``coin XOR parity`` where
``parity`` tracks the Hadamard layers applied so far, so round plans
must satisfy

    entangled pair  iff  coin XOR parity == 1
    basis singles   iff  coin XOR parity == 0

and ``revised_round`` rejects plans that violate this.  The same rule
with ``coin == 0`` reproduces the alternation of the original variant.

Channel attacks plug in through a small hook interface (see
``ghzqss.attacks``); honest rounds pass ``attack=None``.  All quantum
randomness flows through the ``Rngs`` streams so that transcripts are
reproducible and so the branch enumerator can take over the draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

import numpy as np

from .qsim import (
    MeasurementRecord,
    PureState,
    apply_cnot,
    apply_h,
    basis_state,
    discard,
    equal_up_to_sign,
    ghz_carrier,
    measure,
    prepare_pair_qbar,
    tensor,
)

CARRIER = ("a", "b", "c")
W1 = "w1"
W2 = "w2"
TRANSIT_LABELS = (W1, W2, "w1p", "w2p")


@cache
def chi_state() -> PureState:
    """Carrier in its preparation form (|000> + |111>)/sqrt(2); built once."""
    return ghz_carrier(CARRIER)


@cache
def g_state() -> PureState:
    """Carrier after one full Hadamard layer: the even-weight superposition; built once."""
    state = chi_state()
    for lab in CARRIER:
        state = apply_h(state, lab)
    return state


# --------------------------------------------------------------------------
# Round plans


@dataclass(frozen=True)
class EntangledPair:
    """Send the correlated pair; the secret is the XOR of the two qubits."""

    q: int

    @property
    def secret(self) -> int:
        return self.q


@dataclass(frozen=True)
class SinglePair:
    """Send two basis qubits ``|q1>|q2>``; the secret is ``q1 XOR q2``.

    ``target`` names the transit qubit Alice entangles with her carrier
    qubit before sending (announced publicly after receipt).
    """

    q1: int
    q2: int
    target: str

    def __post_init__(self) -> None:
        if self.target not in (W1, W2):
            raise ValueError(f"target must be {W1!r} or {W2!r}, got {self.target!r}")

    @property
    def secret(self) -> int:
        return self.q1 ^ self.q2


@dataclass(frozen=True)
class ProductPair:
    """Send ``|q>|q>`` (alternating variant, odd rounds); the secret is ``q``."""

    q: int

    @property
    def secret(self) -> int:
        return self.q


Mode = EntangledPair | SinglePair | ProductPair

MODE_NAMES = {EntangledPair: "pair", SinglePair: "single", ProductPair: "product"}


@dataclass(frozen=True)
class RoundPlan:
    """Alice's private plan for one round.

    ``alice_hadamard`` is the coin of the coin-flip variant and must be
    ``None`` for the alternating variant, which has no coin.
    """

    round_index: int
    mode: Mode
    alice_hadamard: int | None = None

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValueError("round_index starts at 1")
        if self.alice_hadamard not in (None, 0, 1):
            raise ValueError("alice_hadamard must be None, 0 or 1")

    @property
    def secret(self) -> int:
        return self.mode.secret

    @property
    def mode_name(self) -> str:
        return MODE_NAMES[type(self.mode)]

    @property
    def target(self) -> str | None:
        return self.mode.target if isinstance(self.mode, SinglePair) else None


class CarrierTracker:
    """Classical record of which form the carrier should currently hold."""

    def __init__(self, hadamard_parity: int = 0) -> None:
        if hadamard_parity not in (0, 1):
            raise ValueError("hadamard_parity must be 0 or 1")
        self.hadamard_parity = hadamard_parity

    @property
    def expected_form(self) -> str:
        return "g" if self.hadamard_parity else "chi"

    def expected_state(self) -> PureState:
        return g_state() if self.hadamard_parity else chi_state()

    def toggle(self) -> None:
        self.hadamard_parity ^= 1

    def record_layer(self, labels: Sequence[str]) -> None:
        """Note a Hadamard layer; only the full carrier set flips the form."""
        if set(labels) == set(CARRIER):
            self.toggle()


# --------------------------------------------------------------------------
# Public events and transcripts


def ev_receipt() -> dict:
    return {"event": "receipt_confirmed"}


def ev_hadamard(bit: int) -> dict:
    return {"event": "hadamard_announced", "bit": int(bit)}


def ev_target(target: str) -> dict:
    return {"event": "cnot_target_announced", "target": target}


def ev_measurement(party: str, bit: int) -> dict:
    return {"event": "measurement_announced", "party": party, "bit": int(bit)}


def ev_check(round_index: int, secret: int) -> dict:
    return {"event": "check_announced", "round": int(round_index), "secret": int(secret)}


@dataclass
class RoundTranscript:
    """Everything one round produced.

    ``bob`` is the bit Bob announces (his honest outcome unless a
    dishonest receiver forged it), ``charlie`` is Charlie's private
    outcome, and ``recovered`` is the bit the receivers reconstruct.
    ``eve_notes`` holds attacker-side bookkeeping and is deliberately
    excluded from serialization: it is knowledge of the eavesdropper,
    not part of the public record.
    """

    round_index: int
    mode: str
    hadamard: int | None
    target: str | None
    secret: int
    bob: int
    charlie: int
    recovered: int
    events: list[dict] = field(default_factory=list)
    records: list[MeasurementRecord] = field(default_factory=list)
    eve_notes: dict | None = None

    def to_record(self) -> dict:
        return {
            "round": self.round_index,
            "mode": self.mode,
            "hadamard": self.hadamard,
            "target": self.target,
            "secret": self.secret,
            "bob": self.bob,
            "charlie": self.charlie,
            "recovered": self.recovered,
            "events": self.events,
        }


def transcripts_to_jsonl(transcripts: Sequence[RoundTranscript]) -> str:
    """One JSON object per line, stable key order, trailing newline."""
    lines = [json.dumps(t.to_record(), separators=(",", ":")) for t in transcripts]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Rngs:
    """Random streams for the quantum draws of one session.

    ``bob`` and ``charlie`` feed the honest receivers' measurements and
    ``attack`` feeds any measurement an attacker performs.  Keeping them
    separate guarantees that inserting an attack never perturbs the
    honest parties' draw sequence.  Each stream only needs a
    ``random()`` method, which is how the branch enumerator substitutes
    scripted outcomes for all three at once.
    """

    bob: object
    charlie: object
    attack: object


# --------------------------------------------------------------------------
# Internal helpers


def _require_clean_world(world: PureState) -> None:
    missing = [lab for lab in CARRIER if lab not in world.labels]
    if missing:
        raise ValueError(f"world is missing carrier qubits {missing}")
    stale = [lab for lab in TRANSIT_LABELS if lab in world.labels]
    if stale:
        raise ValueError(f"transit labels {stale} already present; previous round not cleaned up")


def _cleanup_transit(world: PureState) -> PureState:
    for lab in TRANSIT_LABELS:
        if lab in world.labels:
            world = discard(world, lab)
    return world


def _assert_carrier(world: PureState, tracker: CarrierTracker) -> None:
    if world.labels != CARRIER:
        raise AssertionError(f"unexpected residual qubits {world.labels} after honest round")
    if not equal_up_to_sign(world, tracker.expected_state()):
        raise AssertionError(f"carrier failed to return to its {tracker.expected_form} form")


def _finish_round(
    world: PureState,
    plan: RoundPlan,
    tracker: CarrierTracker,
    attack,
    bob_bit: int,
    charlie_bit: int,
    recovered: int,
    events: list[dict],
    records: list[MeasurementRecord],
) -> tuple[PureState, RoundTranscript]:
    world = _cleanup_transit(world)
    if attack is None:
        _assert_carrier(world, tracker)
    notes = attack.take_round_notes() if attack is not None else None
    transcript = RoundTranscript(
        round_index=plan.round_index,
        mode=plan.mode_name,
        hadamard=plan.alice_hadamard,
        target=plan.target,
        secret=plan.secret,
        bob=bob_bit,
        charlie=charlie_bit,
        recovered=recovered,
        events=events,
        records=records,
        eve_notes=notes,
    )
    return world, transcript


# --------------------------------------------------------------------------
# Hadamard layer (alternating variant)


def hadamard_layer(
    world: PureState, labels: Sequence[str] = CARRIER, tracker: CarrierTracker | None = None
) -> PureState:
    """Apply H to each listed carrier qubit and record the layer."""
    for lab in labels:
        world = apply_h(world, lab)
    if tracker is not None:
        tracker.record_layer(labels)
    return world


# --------------------------------------------------------------------------
# Alternating variant rounds


def original_odd_round(
    world: PureState,
    plan: RoundPlan,
    tracker: CarrierTracker,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """Odd round: product encoding ``|q,q>`` against the ``chi`` form.

    Both receivers CNOT from their carrier qubit onto their received
    qubit and measure; each obtains the secret directly, so nothing is
    announced beyond receipt.  ``recovered`` is defined as Bob's
    outcome.
    """
    if plan.round_index % 2 != 1:
        raise ValueError(f"round {plan.round_index} is not odd")
    if not isinstance(plan.mode, ProductPair):
        raise ValueError("odd rounds of the alternating variant use ProductPair")
    if plan.alice_hadamard is not None:
        raise ValueError("the alternating variant has no per-round coin")
    if tracker.hadamard_parity != 0:
        raise ValueError("odd rounds require the chi carrier form")
    _require_clean_world(world)

    q = plan.mode.q
    world = tensor(world, basis_state([(W1, q), (W2, q)]))
    world = apply_cnot(world, "a", W1)
    world = apply_cnot(world, "a", W2)

    to_bob, to_charlie = W1, W2
    if attack is not None:
        world, to_bob, to_charlie = attack.intercept(world, plan.round_index, rngs)
    events = [ev_receipt()]

    world = apply_cnot(world, "b", to_bob)
    world = apply_cnot(world, "c", to_charlie)
    rec_b, world = measure(world, to_bob, rngs.bob)
    rec_c, world = measure(world, to_charlie, rngs.charlie)

    return _finish_round(
        world, plan, tracker, attack,
        bob_bit=rec_b.outcome, charlie_bit=rec_c.outcome, recovered=rec_b.outcome,
        events=events, records=[rec_b, rec_c],
    )


def original_even_round(
    world: PureState,
    plan: RoundPlan,
    tracker: CarrierTracker,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """Even round: correlated-pair encoding against the ``g`` form.

    Alice entangles the pair with her carrier qubit, each receiver CNOTs
    from their carrier qubit onto their received qubit and measures, Bob
    announces his outcome and the secret is the XOR of the two outcomes.
    """
    if plan.round_index % 2 != 0:
        raise ValueError(f"round {plan.round_index} is not even")
    if not isinstance(plan.mode, EntangledPair):
        raise ValueError("even rounds of the alternating variant use EntangledPair")
    if plan.alice_hadamard is not None:
        raise ValueError("the alternating variant has no per-round coin")
    if tracker.hadamard_parity != 1:
        raise ValueError("even rounds require the g carrier form")
    _require_clean_world(world)

    world = tensor(world, prepare_pair_qbar(plan.mode.q))
    world = apply_cnot(world, "a", W1)

    to_bob, to_charlie = W1, W2
    if attack is not None:
        world, to_bob, to_charlie = attack.intercept(world, plan.round_index, rngs)
    events = [ev_receipt()]

    world = apply_cnot(world, "b", to_bob)
    world = apply_cnot(world, "c", to_charlie)
    rec_b, world = measure(world, to_bob, rngs.bob)
    rec_c, world = measure(world, to_charlie, rngs.charlie)
    events.append(ev_measurement("bob", rec_b.outcome))
    recovered = rec_b.outcome ^ rec_c.outcome

    return _finish_round(
        world, plan, tracker, attack,
        bob_bit=rec_b.outcome, charlie_bit=rec_c.outcome, recovered=recovered,
        events=events, records=[rec_b, rec_c],
    )


def original_round(
    world: PureState,
    plan: RoundPlan,
    tracker: CarrierTracker,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """Dispatch to the odd or even round of the alternating variant."""
    if plan.round_index % 2 == 1:
        return original_odd_round(world, plan, tracker, rngs, attack)
    return original_even_round(world, plan, tracker, rngs, attack)


# --------------------------------------------------------------------------
# Coin-flip variant round


def revised_round(
    world: PureState,
    plan: RoundPlan,
    tracker: CarrierTracker,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """One round of the coin-flip variant.

    Order of operations, identical in every round:

    1. Alice applies H to her carrier qubit iff her coin is 1.
    2. She prepares the transit qubits (correlated pair, or two basis
       qubits for the single encoding) and CNOTs from her carrier qubit
       onto the pair's first qubit, or onto the announced target.
    3. The transit qubits travel (attacks act here).
    4. Receipt is confirmed, then Alice announces the coin, and for the
       single encoding also the CNOT target.
    5. Bob and Charlie apply H to their carrier qubits iff the coin is 1,
       run their decode CNOTs, and measure.  Bob announces his outcome;
       the recovered bit is the XOR of the two outcomes.

    The plan must pair the encoding with the carrier form per the rule
    in the module docstring, otherwise the decode would not be exact.
    """
    coin = plan.alice_hadamard
    if coin not in (0, 1):
        raise ValueError("the coin-flip variant requires alice_hadamard 0 or 1")
    if isinstance(plan.mode, ProductPair):
        raise ValueError("the coin-flip variant does not use the product encoding")
    is_pair = isinstance(plan.mode, EntangledPair)
    if is_pair != (coin ^ tracker.hadamard_parity == 1):
        raise ValueError(
            f"plan for round {plan.round_index} pairs "
            f"{'the entangled' if is_pair else 'the single'} encoding with coin={coin} "
            f"while the carrier form is {tracker.expected_form}; decode would not be exact"
        )
    _require_clean_world(world)

    if coin:
        world = apply_h(world, "a")
    if is_pair:
        world = tensor(world, prepare_pair_qbar(plan.mode.q))
        world = apply_cnot(world, "a", W1)
    else:
        world = tensor(world, basis_state([(W1, plan.mode.q1), (W2, plan.mode.q2)]))
        world = apply_cnot(world, "a", plan.mode.target)

    to_bob, to_charlie = W1, W2
    if attack is not None:
        world, to_bob, to_charlie = attack.intercept(world, plan.round_index, rngs)

    events = [ev_receipt(), ev_hadamard(coin)]
    if not is_pair:
        events.append(ev_target(plan.mode.target))

    records: list[MeasurementRecord] = []

    # Bob's side.  A dishonest receiver replaces this whole block.
    if attack is not None and getattr(attack, "controls_bob", False):
        world, bob_bit, bob_records = attack.bob_decode(world, coin, plan.target, rngs)
        records.extend(bob_records)
    else:
        if coin:
            world = apply_h(world, "b")
        if is_pair or plan.target == W1:
            world = apply_cnot(world, "b", to_bob)
        rec_b, world = measure(world, to_bob, rngs.bob)
        records.append(rec_b)
        bob_bit = rec_b.outcome

    # Charlie's side.
    if coin:
        world = apply_h(world, "c")
    if is_pair or plan.target == W2:
        world = apply_cnot(world, "c", to_charlie)
    rec_c, world = measure(world, to_charlie, rngs.charlie)
    records.append(rec_c)

    events.append(ev_measurement("bob", bob_bit))
    recovered = bob_bit ^ rec_c.outcome

    if coin:
        tracker.toggle()

    return _finish_round(
        world, plan, tracker, attack,
        bob_bit=bob_bit, charlie_bit=rec_c.outcome, recovered=recovered,
        events=events, records=records,
    )


# --------------------------------------------------------------------------
# Check phase


def check_phase(
    transcripts: Sequence[RoundTranscript],
    check_fraction: float,
    rng: np.random.Generator,
    threshold: float = 0.0,
) -> tuple[float, bool]:
    """Sacrifice a random subset of rounds to estimate the error rate.

    Alice draws ``round(check_fraction * n)`` distinct rounds (at least
    one), announces their secrets, and the receivers compare against
    their recovered bits.  Returns ``(error_rate, detected)`` where
    ``detected`` is true when the error rate among checked rounds
    exceeds ``threshold``.  A ``check_announced`` event is appended to
    each sacrificed round's transcript.
    """
    if not 0.0 < check_fraction <= 1.0:
        raise ValueError("check_fraction must lie in (0, 1]")
    if not transcripts:
        raise ValueError("no rounds to check")
    n = len(transcripts)
    k = max(1, int(round(check_fraction * n)))
    chosen = np.sort(rng.choice(n, size=k, replace=False))
    errors = 0
    for i in chosen:
        t = transcripts[int(i)]
        t.events.append(ev_check(t.round_index, t.secret))
        if t.recovered != t.secret:
            errors += 1
    error_rate = errors / k
    return error_rate, error_rate > threshold
