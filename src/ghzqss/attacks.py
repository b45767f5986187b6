"""Channel attack strategies that plug into the round engine.

An attack object exposes four hooks, all optional in the sense that the
base class provides do-nothing implementations:

``intercept(world, round_index, rngs)``
    Called while the transit qubits travel from Alice to the receivers.
    Returns ``(world, to_bob, to_charlie)`` where the two labels name
    the qubits actually delivered (an attacker may substitute its own).
    Any measurement the attacker performs draws from ``rngs.attack``.

``sync_hadamard(world)``
    Called whenever the parties apply the public between-round Hadamard
    layer of the alternating variant, so an attacker can keep entangled
    probes in step with the carrier.

``bob_decode(world, coin, target, rngs)``
    Only consulted when ``controls_bob`` is true: replaces Bob's entire
    decode step and returns ``(world, announced_bit, records)``.

``take_round_notes()``
    Drains the attacker-side bookkeeping for the round just played; the
    engine stores it on the transcript as ``eve_notes`` (never
    serialized).

Classical choices an attacker makes (substitute bits, forged
announcements) come from the attack's ``coins``, a stream of scalar
``integers(0, 2)`` draws.  Sessions and the branch enumerator both pass
the attack stream's tap of their ``replay.Script``, so the round table
records each coin as a fork; in enumeration the coins come from a
generator seeded by the scenario's ``attack_seed``, the same in every
branch, so they are fixed inputs rather than weighted forks.

``ATTACKS`` is the strategy table: it maps each strategy name to its
class, whose attributes state the session variant the strategy is
defined against (``variant``) and how its inferences are scored
(``readout``).  ``STRATEGIES``, ``build_attack`` and
``harness.COMPATIBLE`` derive from it.

Whatever the hooks carry from one call to the next lives in one
immutable value, ``state``; the other attributes only grow (``records``,
``inferred``) or drain (the round notes).

The round table replays recorded rounds without calling the hooks.  It
keys a round on the attack's class and ``state`` besides the world,
carrier parity and plan class, so a hook reads ``round_index`` only
through what ``state`` and the plan already name.  ``replay_round``
re-applies a recorded round; the harness reads nothing else of an
attack.  Each quantum draw of a round must show up as a record of
weight 1/2, else the round table raises; ``rngs`` and ``coins`` hand out
only scalar ``random()`` and ``integers(0, 2)``.
"""

from __future__ import annotations

import numpy as np

from .protocol import W1, W2
from .qsim import MeasurementRecord, PureState, apply_cnot, apply_h, basis_state, measure, prepare_pair_qbar, tensor


class ChannelAttack:
    """Base class: a passive channel that delivers qubits untouched."""

    name = "none"
    variant: str | None = None  # the session variant the strategy is defined against
    # What ``inferred`` holds for scoring: nothing (``None``), values
    # relative to the secrets of rounds 1 and 2 (``"relative"``, anchored
    # by announced secrets), or the secrets themselves (``"absolute"``).
    readout: str | None = None
    controls_bob = False
    state = None  # what the hooks carry from one call to the next; immutable

    def __init__(self, coins: np.random.Generator | None = None) -> None:
        self.coins = coins if coins is not None else np.random.default_rng(0)
        self.inferred: list[tuple[int, int, str]] = []
        # Measurements performed inside intercept hooks land here so the
        # round table can check their Born weights against its forks
        # (decode-side measurements ride on transcripts).
        self.records: list[MeasurementRecord] = []
        self._notes: dict | None = None

    def sync_hadamard(self, world: PureState) -> PureState:
        return world

    def intercept(self, world: PureState, round_index: int, rngs) -> tuple[PureState, str, str]:
        return world, W1, W2

    def bob_decode(self, world: PureState, coin: int, target: str | None, rngs):
        raise NotImplementedError("this strategy does not control Bob")

    def take_round_notes(self) -> dict | None:
        notes, self._notes = self._notes, None
        return notes

    def round_mark(self) -> tuple[int, int]:
        """Where the records and inferences of the next round will start."""
        return len(self.records), len(self.inferred)

    def recorded_round(self, mark: tuple[int, int], round_index: int) -> tuple:
        """What the round since ``mark`` did to this attack, as a hashable value.

        Inferences keep their round relative to ``round_index``, so the
        record can be replayed at any round the round table keys alike.
        """
        n_records, n_inferred = mark
        inferred = tuple((r - round_index, value, meaning) for r, value, meaning in self.inferred[n_inferred:])
        return tuple(self.records[n_records:]), inferred, self.state

    def replay_round(self, round_index: int, recorded: tuple) -> None:
        """Apply a value from ``recorded_round`` as if the round had been played here."""
        records, inferred, self.state = recorded
        if records:
            self.records.extend(records)
        # At most one inference: a plain loop builds no function and no list.
        for dr, value, meaning in inferred:
            self.inferred.append((round_index + dr, value, meaning))


class ProbeAttack(ChannelAttack):
    """One persistent probe ``e`` that CNOT-copies transit qubits every round.

    Every round Eve CNOTs each transit qubit named in ``copies`` (in
    that order) onto one ancilla ``e`` she keeps in her lab.  Against
    basis-encoded rounds this would read out the payload (one copy) or
    the XOR of the pair (both).  Against the coin-flip variant the
    outcome is all or nothing.  The probe starts in
    ``|0> = (|+> + |->)/sqrt(2)``: a CNOT onto ``|+>`` is the identity,
    and one onto ``|->`` kicks the phase ``(-1)^(XOR of the copied
    qubits)`` back onto the transit qubits.  The first round whose decode
    reads the probe's X parity collapses it, with probability exactly 1/2
    each, to

    * ``|->``: every later intercept kicks a phase, decode errors
      cascade and the check phase catches her; or
    * ``|+>``: every later intercept does nothing, the session stays
      error-free and the probe, decoupled from the carrier, holds
      nothing.
    """

    variant = "revised"
    copies: tuple[str, ...] = ()
    state = False  # whether the probe is in the world

    def intercept(self, world, round_index, rngs):
        if not self.state:
            world = tensor(world, basis_state([("e", 0)]))
            self.state = True
        for lab in self.copies:
            world = apply_cnot(world, lab, "e")
        what = "transit qubit" if len(self.copies) == 1 else "both transit qubits"
        self._notes = {"action": f"copied {what} onto probe e"}
        return world, W1, W2


class A1Attack(ProbeAttack):
    """Probe copied from the first transit qubit, the one bound for Bob."""

    name = "a1"
    copies = (W1,)


class A2ProbeAttack(ProbeAttack):
    """Probe copied from both transit qubits: it records their XOR, which
    for the entangled encoding is the secret."""

    name = "a2-probe"
    copies = (W1, W2)


class A2Attack(ChannelAttack):
    """Full eavesdropping schedule against the alternating variant.

    Eve builds two ancillas during the first two rounds, keeps them in
    step with the public Hadamard layers, and from round 3 on extracts
    every secret relative to the first two:

    * round 1: copy the transit qubit onto ``e1``;
    * round 2: copy both transit qubits onto ``e2``, then couple ``e1``
      back into the channel;
    * odd rounds from 3: couple both ancillas into both transit qubits,
      measure the first (the outcome is ``q_n XOR q_1``, deterministic),
      then undo the ``e1`` couplings so the receivers decode cleanly;
    * even rounds from 4: couple ``e2`` in, measure both transit qubits
      (their XOR is ``q_n XOR q_2``), and hand the receivers a fresh
      correlated pair carrying that XOR so their decode still works.

    The receivers see no errors at any point; two announced secrets of
    opposite round parity then unlock the whole session (see
    ``eve_reconstruct``).
    """

    name = "a2"
    variant = "original"
    readout = "relative"
    state = ()  # the probes installed so far

    def _check_order(self, round_index: int) -> None:
        # Rounds 1 and 2 each install a probe and every later round
        # leaves one inference, so these name the round played last.
        expected = self.inferred[-1][0] + 1 if self.inferred else len(self.state) + 1
        if round_index != expected:
            raise ValueError(
                f"a2 schedule must see every round in order; expected round "
                f"{expected}, got {round_index}"
            )

    def sync_hadamard(self, world):
        for lab in self.state:
            world = apply_h(world, lab)
        return world

    def intercept(self, world, round_index, rngs):
        self._check_order(round_index)

        if round_index == 1:
            world = tensor(world, basis_state([("e1", 0)]))
            self.state = ("e1",)
            world = apply_cnot(world, W1, "e1")
            self._notes = {"action": "installed probe e1"}
        elif round_index == 2:
            world = tensor(world, basis_state([("e2", 0)]))
            self.state = ("e1", "e2")
            world = apply_cnot(world, W1, "e2")
            world = apply_cnot(world, W2, "e2")
            world = apply_cnot(world, "e1", W1)
            self._notes = {"action": "installed probe e2"}
        elif round_index % 2 == 1:
            world = apply_cnot(world, "e1", W1)
            world = apply_cnot(world, "e2", W1)
            world = apply_cnot(world, "e1", W2)
            world = apply_cnot(world, "e2", W2)
            rec, world = measure(world, W1, rngs.attack)
            self.records.append(rec)
            self.inferred.append((round_index, rec.outcome, "xor_with_round1_secret"))
            world = apply_cnot(world, "e1", W1)
            world = apply_cnot(world, "e1", W2)
            self._notes = {"inferred_value": rec.outcome, "relative_to_round": 1}
        else:
            world = apply_cnot(world, "e2", W1)
            rec1, world = measure(world, W1, rngs.attack, drop=True)
            rec2, world = measure(world, W2, rngs.attack, drop=True)
            self.records += [rec1, rec2]
            value = rec1.outcome ^ rec2.outcome
            self.inferred.append((round_index, value, "xor_with_round2_secret"))
            world = tensor(world, prepare_pair_qbar(value))
            world = apply_cnot(world, "e2", W1)
            world = apply_cnot(world, "e1", W1)
            self._notes = {"inferred_value": value, "relative_to_round": 2, "substituted_pair": value}
        return world, W1, W2


class DishonestBobAttack(ChannelAttack):
    """Bob intercepts both transit qubits and cheats Charlie.

    Each round he keeps the real pair, forwards a substitute basis qubit
    ``|q2p>`` to Charlie, and decodes alone:

    * single encoding: holding both halves he recovers the secret
      exactly, then announces ``secret XOR q2p`` so Charlie's
      reconstruction still comes out right when Charlie measures the
      substitute directly (target ``w1`` rounds).  When the announced
      target is ``w2`` Charlie CNOTs from his carrier qubit first, which
      scrambles the reconstruction to ``secret XOR c``: wrong half the
      time, and his measurement of an entangled substitute also breaks
      the carrier.
    * entangled pair: without Alice's carrier qubit the pair is
      undecodable alone, so he learns nothing and bluffs a coin flip.
    """

    name = "dishonest-bob"
    variant = "revised"
    readout = "absolute"
    controls_bob = True
    # From intercept to Bob's decode: the round and the substitute bits.
    state: tuple[int, int, int] | None = None

    def intercept(self, world, round_index, rngs):
        b1 = int(self.coins.integers(0, 2))
        b2 = int(self.coins.integers(0, 2))
        self.state = (round_index, b1, b2)
        world = tensor(world, basis_state([("w1p", b1), ("w2p", b2)]))
        return world, W1, "w2p"

    def bob_decode(self, world, coin, target, rngs):
        if self.state is None:
            raise ValueError("bob_decode called before intercept")
        round_index, q1p, q2p = self.state
        if coin:
            world = apply_h(world, "b")
        if target != W2:
            world = apply_cnot(world, "b", W1)
        rec1, world = measure(world, W1, rngs.attack, drop=True)
        if target == W2:
            world = apply_cnot(world, "b", W2)
        rec2, world = measure(world, W2, rngs.attack, drop=True)
        if target is None:
            # Entangled pair: his lone decode collapses junk.
            inferred = None
            announced = int(self.coins.integers(0, 2))
        else:
            inferred = rec1.outcome ^ rec2.outcome
            self.inferred.append((round_index, inferred, "secret"))
            announced = inferred ^ q2p
        self._notes = {"inferred_secret": inferred, "substitute_bits": (q1p, q2p)}
        self.state = None
        return world, announced, [rec1, rec2]


def eve_reconstruct(
    inferred: list[tuple[int, int, str]], announced: dict[int, int]
) -> tuple[dict[int, int], tuple[str, ...]]:
    """Turn relative inferences plus announced secrets into guesses.

    ``inferred`` holds ``(round, value, meaning)`` triples as produced
    by the attacks; ``announced`` maps round index to publicly revealed
    secret bits (check phase announcements).  Values with meaning
    ``xor_with_round1_secret`` need any announced odd-class round to
    anchor them, ``xor_with_round2_secret`` any even-class one, and
    meaning ``secret`` is already absolute.  Returns ``(guesses,
    missing)`` where ``missing`` names anchor classes that could not be
    resolved.
    """
    guesses = {int(r): int(v) for r, v in announced.items()}
    for r, v, meaning in inferred:
        if meaning == "secret":
            guesses.setdefault(r, v)

    # Both anchors come from the guesses above, before either class fills any.
    classes = []
    for anchor, wanted, name in ((1, "xor_with_round1_secret", "odd"), (2, "xor_with_round2_secret", "even")):
        relative = {r: v for r, v, meaning in inferred if meaning == wanted}
        q = guesses.get(anchor)
        if q is None:
            q = next((guesses[r] ^ v for r, v in relative.items() if r in guesses), None)
        classes.append((anchor, relative, q, name))

    missing = []
    for anchor, relative, q, name in classes:
        if q is None:
            if relative:
                missing.append(f"{name}-class anchor")
            continue
        guesses.setdefault(anchor, q)
        for r, v in relative.items():
            guesses.setdefault(r, v ^ q)
    return guesses, tuple(missing)


# The strategy table: every strategy by name, ``"none"`` (no attack) first.
ATTACKS: dict[str, type[ChannelAttack] | None] = {
    "none": None, **{cls.name: cls for cls in (A1Attack, A2Attack, A2ProbeAttack, DishonestBobAttack)}
}
STRATEGIES = tuple(ATTACKS)


def build_attack(strategy: str, coins: np.random.Generator | None = None) -> ChannelAttack | None:
    """Instantiate a strategy by name; ``"none"`` maps to ``None``."""
    try:
        cls = ATTACKS[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; known: {', '.join(STRATEGIES)}") from None
    return None if cls is None else cls(coins)
