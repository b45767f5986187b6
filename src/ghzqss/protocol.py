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
transform ``g = H x H x H |chi>``.  Which of the two it holds is one
int, the carrier ``parity`` (0 for ``chi``, 1 for ``g``), that every
round function takes as its third argument.  Alice's coin flips it, and
so does the public Hadamard layer (``hadamard_layer``) before every
alternating round after the first.  A round decodes correctly only when
the encoding matches the carrier form at decode time: the correlated
pair works exactly when the form is ``g`` at the end of the round, and
the single-qubit encodings work exactly when it is ``chi``.  That
end-of-round form is ``coin XOR parity``, so round plans must satisfy

    entangled pair  iff  coin XOR parity == 1
    basis singles   iff  coin XOR parity == 0

The same rule with ``coin == 0`` reproduces the alternation of the
original variant.  ``check_plan`` holds it for both variants, and both
play one round body: encode, intercept, announce, Bob's block, Charlie's
block, finish.

Channel attacks plug in through a small hook interface (see
``ghzqss.attacks``); honest rounds pass ``attack=None``.  All quantum
randomness flows through the ``Rngs`` streams so that transcripts are
reproducible and so one ``replay.Script`` can script the draws of every
session and enumerated branch.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

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
    require_number,
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
    """Carrier after one Hadamard layer: the even-weight superposition; built once."""
    return hadamard_layer(chi_state())


def hadamard_layer(world: PureState) -> PureState:
    """The alternating variant's public layer: H on each carrier qubit, ``chi`` <-> ``g``."""
    for lab in CARRIER:
        world = apply_h(world, lab)
    return world


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
    ``None`` for the alternating variant, which has no coin.  A plan is
    not checked when it is built but where it is played (``check_plan``).
    """

    round_index: int
    mode: Mode
    alice_hadamard: int | None = None

    @property
    def secret(self) -> int:
        return self.mode.secret

    @property
    def mode_name(self) -> str:
        return MODE_NAMES[type(self.mode)]

    @property
    def target(self) -> str | None:
        return self.mode.target if isinstance(self.mode, SinglePair) else None


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


def _field(i: int, build=None) -> property:
    """Field ``i`` of a transcript's ``_args``.  With ``build``, a round
    table's frozen tuple there is built into the transcript's own value on
    first read and stored back."""

    def read(self):
        value = self._args[i]
        if type(value) is tuple:
            value = build(value)
            self._put(i, value)
        return value

    return property(read if build else lambda self: self._args[i], lambda self, value: self._put(i, value))


class RoundTranscript:
    """Everything one round produced.

    ``bob`` is the bit Bob announces (his honest outcome unless a
    dishonest receiver forged it), ``charlie`` is Charlie's private
    outcome, and ``recovered`` is the bit the receivers reconstruct.
    ``eve_notes`` holds attacker-side bookkeeping and is deliberately
    excluded from serialization: it is knowledge of the eavesdropper,
    not part of the public record.

    A transcript is two slots, ``round_index`` and ``_args``: every other
    field in constructor order.  A round table leaf's ``args`` are the
    played transcript's ``frozen_args`` and a session's row of the round,
    and a transcript indexes as its row: ``t[k]`` is ``t._args[k]``.
    Each field is a property over ``_args``, and a write gives the
    transcript a new ``_args``, so ``session_transcripts`` adopts a leaf's
    interned ``args``, shared with the leaf's other transcripts until one writes.
    ``events`` (a list of dicts), ``records`` (a list) and ``eve_notes``
    (a dict or ``None``) are the transcript's own.  A replayed round holds
    the table's frozen tuples of event items, records and note items
    instead, each built into a new list or dict when first read (also by
    ``==``, ``repr`` and ``to_record``), as is a constructor default ``()``.
    """

    __match_args__ = ("round_index", "mode", "hadamard", "target", "secret", "bob", "charlie", "recovered",
                      "events", "records", "eve_notes")  # the field order of the constructor, repr and ==
    __slots__ = ("round_index", "_args")
    __hash__ = None  # mutable and compared by value

    def __init__(
        self, round_index: int, mode: str, hadamard: int | None, target: str | None, secret: int,
        bob: int, charlie: int, recovered: int, events: list[dict] | tuple = (),
        records: list[MeasurementRecord] | tuple = (), eve_notes: dict | tuple | None = None,
    ) -> None:
        self.round_index = round_index
        self._args = (mode, hadamard, target, secret, bob, charlie, recovered, events, records, eve_notes)

    mode, hadamard, target, secret, bob, charlie, recovered = map(_field, range(7))
    events = _field(7, lambda events: [dict(event) for event in events])
    records = _field(8, list)
    eve_notes = _field(9, dict)

    def __getitem__(self, i: int):
        return self._args[i]

    def _put(self, i: int, value) -> None:
        args = list(self._args)
        args[i] = value
        self._args = tuple(args)

    def add_event(self, event: dict) -> None:
        """Append ``event`` to ``events``.  Events still held as the round
        table's frozen tuple stay frozen: the transcript keeps a new tuple
        with the event's items added, built on first read like the rest."""
        events = self._args[7]
        if type(events) is tuple:
            self._put(7, (*events, tuple(event.items())))
        else:
            events.append(event)

    def frozen_args(self, intern: Callable = lambda value: value) -> tuple:
        """``_args`` as a round table leaf keeps them, a session's row:
        the events as tuples of their items, the records and note items as
        tuples, with each event and record, the three tuples and the whole
        passed through ``intern``."""
        events = intern(tuple(intern(tuple(event.items())) for event in self.events))
        records = intern(tuple(map(intern, self.records)))
        notes = self.eve_notes
        notes = intern(None if notes is None else tuple(notes.items()))
        return intern((*self._args[:7], events, records, notes))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def to_record(self) -> dict:
        a = self._args
        return {"round": self.round_index, "mode": a[0], "hadamard": a[1], "target": a[2], "secret": a[3],
                "bob": a[4], "charlie": a[5], "recovered": a[6], "events": self.events}


def transcript_fields(rows: Iterable[tuple], *names: str) -> Iterator:
    """The named fields of each row or transcript (a value for one name,
    else a tuple), read in C: a transcript's property costs four times as much."""
    return map(operator.itemgetter(*(RoundTranscript.__match_args__.index(name) - 1 for name in names)), rows)


def session_transcripts(rows: Iterable[tuple]) -> list[RoundTranscript]:
    """The transcripts of a session's rows, round k + 1 at position k, each
    adopting its row as its ``_args``, uncopied."""
    transcripts, new = [], object.__new__
    for round_index, args in enumerate(rows, 1):
        t = new(RoundTranscript)
        t.round_index, t._args = round_index, args
        transcripts.append(t)
    return transcripts


def transcripts_to_jsonl(transcripts: Sequence[RoundTranscript]) -> str:
    """One JSON object per line, stable key order, trailing newline."""
    encode = json.JSONEncoder(separators=(",", ":")).encode  # as json.dumps, which builds an encoder per call
    lines = [encode(t.to_record()) for t in transcripts]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Rngs:
    """Random streams for the quantum draws of one session.

    ``bob`` and ``charlie`` feed the honest receivers' measurements and
    ``attack`` feeds any measurement an attacker performs.  Keeping them
    separate guarantees that inserting an attack never perturbs the
    honest parties' draw sequence.  A measurement draws a scalar
    ``random()``; the attack stream also hands dishonest-bob its
    classical coins (substitute bits, a bluffed announcement) as
    ``integers(0, 2)``.  Sessions and the branch enumerator pass the
    taps of a ``replay.Script``, which log every draw and refuse all but
    those two: a session's draw from ``harness.PCG64Stream``s, an
    enumerated branch's from its tape of outcomes and its attacker's
    coins.
    """

    bob: object
    charlie: object
    attack: object


# --------------------------------------------------------------------------
# Internal helpers


def _require_clean_world(world: PureState, attack) -> None:
    missing = [lab for lab in CARRIER if lab not in world.labels]
    if missing:
        raise ValueError(f"world is missing carrier qubits {missing}")
    stale = [lab for lab in TRANSIT_LABELS if lab in world.labels]
    if stale:
        raise ValueError(f"transit labels {stale} already present; previous round not cleaned up")
    if attack is None and world.labels != CARRIER:
        raise ValueError(f"an honest round plays on the bare carrier {CARRIER}, got {world.labels}")


def _cleanup_transit(world: PureState) -> PureState:
    """Discard the transit qubits left in the world.

    Measured qubits were dropped by their measurement, so only qubits
    nobody measured remain, such as a substitute a dishonest receiver
    kept; ``discard`` checks that each is definite.
    """
    for lab in TRANSIT_LABELS:
        if lab in world.labels:
            world = discard(world, lab)
    return world


def _assert_carrier(world: PureState, parity: int) -> None:
    if not equal_up_to_sign(world, g_state() if parity else chi_state()):
        raise AssertionError(f"carrier failed to return to its {'g' if parity else 'chi'} form")


# --------------------------------------------------------------------------
# Rounds


def check_plan(plan: RoundPlan, parity: int, coin_flip: bool) -> None:
    """Raise ``ValueError`` unless ``parity`` is the int 0 or 1 and
    ``plan`` decodes exactly when played against that carrier form in
    the given variant.

    The alternating variant has no coin and plays ``ProductPair`` in odd
    rounds against ``chi`` and ``EntangledPair`` in even rounds against
    ``g``; the coin-flip variant pairs encoding, coin and form per the
    rule in the module docstring.  Rounds count from 1, a single
    encoding targets ``w1`` or ``w2``, the round index is an int, and every
    payload bit and coin is the int 0 or 1, not a bool or a float: the
    harness looks plan classes up by value, so equal plans must be equal in type.
    """
    if type(parity) is not int or parity not in (0, 1):
        raise ValueError(f"carrier parity must be the int 0 or 1, got {parity!r}")
    mode, coin = plan.mode, plan.alice_hadamard
    kind = type(mode)
    if type(plan.round_index) is not int or plan.round_index < 1:
        raise ValueError(f"round_index must be an int and starts at 1, got {plan.round_index!r}")
    if kind is SinglePair and mode.target not in (W1, W2):
        raise ValueError(f"target must be {W1!r} or {W2!r}, got {mode.target!r}")
    if coin_flip:
        if type(coin) is not int or coin not in (0, 1):
            raise ValueError(f"coin-flip variant plans need alice_hadamard 0 or 1, got {coin!r}")
        if kind is ProductPair:
            raise ValueError("the coin-flip variant does not use the product encoding")
        if (kind is EntangledPair) != (coin ^ parity == 1):
            raise ValueError(
                f"plan for round {plan.round_index} pairs "
                f"{'the entangled' if kind is EntangledPair else 'the single'} encoding with coin={coin} "
                f"against the carrier form {'g' if parity else 'chi'}; decode would not be exact"
            )
    else:
        if coin is not None:
            raise ValueError("the alternating variant has no per-round coin")
        odd = plan.round_index % 2
        if kind is not (ProductPair if odd else EntangledPair):
            raise ValueError(
                "alternating variant plans must alternate product/pair: "
                + ("odd rounds use ProductPair" if odd else "even rounds use EntangledPair")
            )
        if parity == odd:
            raise ValueError(f"{'odd' if odd else 'even'} rounds require the {'chi' if odd else 'g'} carrier form")
    bits = (mode.q1, mode.q2) if kind is SinglePair else (mode.q,)
    if any(type(bit) is not int or bit not in (0, 1) for bit in bits):
        raise ValueError(f"payload bits of round {plan.round_index} must be the ints 0 or 1, got {bits}")


def _play(
    world: PureState,
    plan: RoundPlan,
    parity: int,
    rngs: Rngs,
    attack,
    coin_flip: bool,
) -> tuple[PureState, RoundTranscript]:
    """The round of both variants: encode, intercept, announce, Bob's
    block, Charlie's block, finish.

    The variants differ only in the encoding and in the coin, which is
    ``None`` in the alternating variant.  An honest round takes the bare
    carrier, labeled ``CARRIER`` in that order, else it raises
    ``ValueError`` before playing; it must leave the carrier in the form
    ``parity ^ coin``, the caller's next parity.
    """
    check_plan(plan, parity, coin_flip)
    _require_clean_world(world, attack)
    mode, coin = plan.mode, plan.alice_hadamard
    kind = type(mode)
    single = kind is SinglePair

    # Encode: Alice applies H to her carrier qubit iff her coin is 1,
    # prepares the transit qubits and CNOTs from her carrier qubit.
    if coin:
        world = apply_h(world, "a")
    if kind is EntangledPair:
        world = tensor(world, prepare_pair_qbar(mode.q))
        world = apply_cnot(world, "a", W1)
    elif single:
        world = tensor(world, basis_state([(W1, mode.q1), (W2, mode.q2)]))
        world = apply_cnot(world, "a", mode.target)
    else:
        world = tensor(world, basis_state([(W1, mode.q), (W2, mode.q)]))
        world = apply_cnot(world, "a", W1)
        world = apply_cnot(world, "a", W2)

    # The transit qubits travel; attacks act here.
    to_bob, to_charlie = W1, W2
    if attack is not None:
        world, to_bob, to_charlie = attack.intercept(world, plan.round_index, rngs)

    # Receipt is confirmed, then Alice announces her coin and, for the
    # single encoding, the CNOT target.
    events = [ev_receipt()]
    if coin is not None:
        events.append(ev_hadamard(coin))
    if single:
        events.append(ev_target(mode.target))

    # Bob's block.  A dishonest receiver replaces it.
    if attack is not None and attack.controls_bob:
        world, bob_bit, bob_records = attack.bob_decode(world, coin, plan.target, rngs)
        records = list(bob_records)
    else:
        if coin:
            world = apply_h(world, "b")
        if not single or mode.target == W1:
            world = apply_cnot(world, "b", to_bob)
        rec_b, world = measure(world, to_bob, rngs.bob, drop=True)
        bob_bit = rec_b.outcome
        records = [rec_b]

    # Charlie's block.
    if coin:
        world = apply_h(world, "c")
    if not single or mode.target == W2:
        world = apply_cnot(world, "c", to_charlie)
    rec_c, world = measure(world, to_charlie, rngs.charlie, drop=True)
    records.append(rec_c)

    # Finish.  A product pair gives each receiver the secret directly:
    # nothing is announced beyond receipt and Bob's outcome is the
    # recovered bit.  Otherwise Bob announces his outcome and the
    # recovered bit is the XOR of the two.
    if kind is ProductPair:
        recovered = bob_bit
    else:
        events.append(ev_measurement("bob", bob_bit))
        recovered = bob_bit ^ rec_c.outcome
    world = _cleanup_transit(world)
    if attack is None:
        _assert_carrier(world, parity ^ (coin or 0))
    transcript = RoundTranscript(
        round_index=plan.round_index,
        mode=plan.mode_name,
        hadamard=coin,
        target=plan.target,
        secret=plan.secret,
        bob=bob_bit,
        charlie=rec_c.outcome,
        recovered=recovered,
        events=events,
        records=records,
        eve_notes=attack.take_round_notes() if attack is not None else None,
    )
    return world, transcript


def original_round(
    world: PureState,
    plan: RoundPlan,
    parity: int,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """One round of the alternating variant.

    Odd rounds send the product pair ``|q,q>`` against the ``chi`` form:
    each receiver CNOTs from their carrier qubit onto their qubit,
    measures and obtains the secret directly.  Even rounds send the
    correlated pair against the ``g`` form, Bob announces his outcome
    and the secret is the XOR of the two outcomes.  The caller applies
    the Hadamard layer between rounds (``hadamard_layer``) and flips
    ``parity`` with it; a round leaves the parity as it found it.
    """
    return _play(world, plan, parity, rngs, attack, coin_flip=False)


def revised_round(
    world: PureState,
    plan: RoundPlan,
    parity: int,
    rngs: Rngs,
    attack=None,
) -> tuple[PureState, RoundTranscript]:
    """One round of the coin-flip variant.

    Alice applies H to her carrier qubit iff her coin is 1 and encodes.
    After receipt she announces the coin, and the CNOT target of the
    single encoding.  Bob, then Charlie, apply H to their carrier qubits
    iff the coin is 1, run their decode CNOTs and measure.  The plan
    must pair the encoding with the carrier form per the rule in the
    module docstring, otherwise the decode would not be exact.
    """
    return _play(world, plan, parity, rngs, attack, coin_flip=True)


# --------------------------------------------------------------------------
# Check phase


def check_settings(check_fraction: float, threshold: float, threshold_name: str = "threshold") -> None:
    """Raise ``ValueError`` unless the check phase can run with this
    fraction of checked rounds and this detection threshold."""
    require_number("check_fraction", check_fraction)
    require_number(threshold_name, threshold)
    if not 0.0 < check_fraction <= 1.0:
        raise ValueError("check_fraction must lie in (0, 1]")
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"{threshold_name} must be a finite number >= 0")


def check_size(check_fraction: float, n: int) -> int:
    """How many of ``n`` rounds the check phase sacrifices: ``round(check_fraction * n)``, at least one."""
    return max(1, int(round(check_fraction * n)))


def check_phase(
    transcripts: Sequence[RoundTranscript | tuple],
    check_fraction: float,
    rng: np.random.Generator | None,
    threshold: float = 0.0,
) -> tuple[float, bool, tuple[int, ...]]:
    """Sacrifice a random subset of rounds to estimate the error rate.

    Alice draws ``check_size(check_fraction, n)`` distinct rounds from
    ``rng``, announces their secrets, and the receivers compare against
    their recovered bits.  When that is every round nothing is drawn, as
    the sorted draw could only be all of them, so ``rng`` may be ``None``
    there; for fewer rounds a ``None`` ``rng`` is a ``ValueError``.  Returns ``(error_rate, detected, announced)``
    where ``detected`` is true when the error rate among checked rounds
    exceeds ``threshold`` and ``announced`` holds the checked rounds'
    indices in order.  A ``check_announced`` event is appended to each
    sacrificed round's transcript.  A round may instead come as its row, a
    round table leaf's ``args``, which takes no event: the row at position
    k of a session is round k + 1.
    """
    check_settings(check_fraction, threshold)
    if not transcripts:
        raise ValueError("no rounds to check")
    n = len(transcripts)
    k = check_size(check_fraction, n)
    if k < n and rng is None:
        raise ValueError(f"checking {k} of {n} rounds draws them from rng, which is None")
    picked = range(n) if k == n else np.sort(rng.choice(n, size=k, replace=False)).tolist()
    errors = 0
    announced = []
    for i in picked:
        t = transcripts[i]
        if type(t) is tuple:
            index, secret, recovered = i + 1, t[3], t[6]
        else:
            index, args = t.round_index, t._args
            secret, recovered, events = args[3], args[6], args[7]
            if type(events) is tuple:  # the round table's frozen events take the event's items
                t._put(7, (*events, (("event", "check_announced"), ("round", int(index)), ("secret", int(secret)))))
            else:
                t.add_event(ev_check(index, secret))
        errors += recovered != secret
        announced.append(index)
    error_rate = errors / k
    return error_rate, error_rate > threshold, tuple(announced)
