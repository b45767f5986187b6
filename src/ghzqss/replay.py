"""Round table: recorded statevector rounds, replayed in Monte Carlo sessions.

Stabilizer worlds close into a small set (Aaronson & Gottesman,
*Improved simulation of stabilizer circuits*, quant-ph/0406196): the
worlds a long session visits, keyed by their exact amplitude bytes, are
a few dozen per attack.  ``RoundTable`` records each round played from
such a world once per outcome path, with the statevector round as the
only engine, and replays the recording when the same round comes back.
A replay draws from the session's own streams exactly what the
statevector play would draw, so sessions stay byte-identical.

``harness.run_simulation`` keeps one table for the whole process
(``harness.ROUND_TABLE``).  Exact enumeration does not use it.
"""

from __future__ import annotations

import threading

import numpy as np

from .protocol import CarrierTracker, Rngs, RoundPlan, RoundTranscript
from .qsim import PureState

MAX_TABLE_ENTRIES = 4096

# A key some of whose plays fork at a Born weight other than 1/2: its
# rounds always play on the statevector path.
_UNFAIR = "unfair"


class _Draws:
    """The draws of one statevector play, shared by a session's three taps.

    ``log`` holds ``(code, value)`` pairs, where ``code`` is twice the
    stream index plus 1 for an ``integers(0, 2)`` coin and 0 for a
    ``random()``.  A play first gets back, in order, the values a table
    walk already drew, then draws live and logs each draw.  ``foreign``
    notes any other use of a stream, which a fork tree cannot replay.
    """

    __slots__ = ("log", "pos", "foreign")

    def __init__(self) -> None:
        self.reset([])

    def reset(self, drawn: list) -> None:
        self.log = drawn
        self.pos = 0
        self.foreign = False

    def take(self, code: int, draw):
        pos = self.pos
        self.pos = pos + 1
        if pos < len(self.log):
            logged, value = self.log[pos]
            if logged != code:
                raise RuntimeError("a round drew in another order than its recording: the round table key misses state")
            return value
        value = draw()
        self.log.append((code, value))
        return value


class _Tap:
    """One session stream as a statevector play sees it: every draw is logged."""

    __slots__ = ("_gen", "_code", "_draws")

    def __init__(self, gen: np.random.Generator, index: int, draws: _Draws) -> None:
        self._gen = gen
        self._code = 2 * index
        self._draws = draws

    def random(self, *args, **kwargs):
        if not (args or kwargs):
            return self._draws.take(self._code, self._gen.random)
        self._draws.foreign = True
        return self._gen.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        if args == (0, 2) and not kwargs:
            return self._draws.take(self._code + 1, self._coin)
        self._draws.foreign = True
        return self._gen.integers(*args, **kwargs)

    def _coin(self):
        return self._gen.integers(0, 2)

    def __getattr__(self, name):
        self._draws.foreign = True
        return getattr(self._gen, name)


class Session:
    """The three quantum streams of one session (Bob, Charlie, attack), raw
    for table walks and tapped in ``rngs`` for statevector plays."""

    __slots__ = ("gens", "draws", "rngs")

    def __init__(self, bob: np.random.Generator, charlie: np.random.Generator, attack: np.random.Generator) -> None:
        self.gens = (bob, charlie, attack)
        self.draws = _Draws()
        self.rngs = Rngs(*(_Tap(gen, k, self.draws) for k, gen in enumerate(self.gens)))


class RoundTable:
    """Bounded memo of recorded statevector rounds, in front of a round function.

    A key is (variant, carrier parity, plan class, attack class,
    attacker key) under the exact labels and amplitude bytes of the
    world.  Its value is the round's fork tree, built one outcome path at
    a time and flattened into one tuple in preorder: a fork is its
    ``_Draws`` code and the length of its outcome-0 subtree, followed by
    both subtrees; a leaf is the next world and a payload of everything
    the round produced, with the round index left out; ``None`` is an
    outcome not yet recorded.  Replaying a tree draws from the session's
    real streams exactly what the statevector play draws, because every
    fork of a stored key is a coin or a Born weight of exactly 1/2
    (``qsim.measure``).

    A miss plays the round on the statevector path, with the values the
    walk already drew handed back first, and stores the path.  A key
    whose play forks at another weight, or uses a stream otherwise, is
    marked and always plays on the statevector path.  Once
    ``MAX_TABLE_ENTRIES`` keys are stored, new keys play there unstored.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        """Forget every recorded round and reset the counters."""
        self._worlds: dict[tuple, PureState] = {}  # world key -> interned world
        self._slots: dict[int, dict] = {}  # id of an interned world -> {key: tree}
        self._interned: dict = {}
        self.entries = 0  # keys stored, ``unfair`` of them as marks
        self.unfair = 0
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _world_key(world: PureState) -> tuple:
        return world.labels, world.amps.tobytes()

    def _canonical(self, world: PureState, create: bool) -> PureState | None:
        """The interned world equal to ``world``; ``world`` itself is interned if ``create``."""
        if id(world) in self._slots:
            return world
        key = self._world_key(world)
        known = self._worlds.get(key)
        if known is None and create:
            # The slot goes in first: a reader that finds the world has its slot.
            self._slots[id(world)] = {}
            known = self._worlds[key] = world
        return known

    def _intern(self, value):
        return self._interned.setdefault(value, value)

    def play(
        self, play_round, session: Session, variant: str, world: PureState, plan: RoundPlan,
        tracker: CarrierTracker, attack,
    ) -> tuple[PureState, RoundTranscript]:
        """One session round: replayed when recorded, else played by
        ``play_round`` (the statevector round, ``harness._play_round``)
        and recorded."""
        attack_key = attack.round_key(plan.round_index) if attack is not None else None
        key = (variant, tracker.hadamard_parity, plan.round_class, type(attack), attack_key)
        slot = self._slots.get(id(world))
        if slot is None:
            known = self._canonical(world, create=False)
            slot = self._slots[id(known)] if known is not None else {}
        tree = slot.get(key)
        drawn = []
        if type(tree) is tuple:
            gens = session.gens
            i = 0
            head = tree[0]
            while type(head) is int:
                if head & 1:
                    value = gens[head >> 1].integers(0, 2)
                    one = value == 1
                else:
                    value = gens[head >> 1].random()
                    one = value < 0.5
                drawn.append((head, value))
                i += 2 + tree[i + 1] if one else 2
                head = tree[i]
            if head is not None:
                self.hits += 1
                return self._replay(head, tree[i + 1], plan, tracker, attack)
        return self._record(play_round, session, drawn, tree is not _UNFAIR, key, variant, world, plan, tracker, attack)

    def _replay(self, world: PureState, payload: tuple, plan: RoundPlan, tracker: CarrierTracker, attack):
        parity, bob, charlie, recovered, events, records, notes, recorded = payload
        tracker.hadamard_parity = parity
        if attack is not None:
            attack.replay_round(plan.round_index, recorded)
        transcript = RoundTranscript(
            plan.round_index, plan.mode_name, plan.alice_hadamard, plan.target, plan.secret,
            bob, charlie, recovered,
            [dict(event) for event in events], list(records), None if notes is None else dict(notes),
        )
        return world, transcript

    def _record(self, play_round, session, drawn, storable, key, variant, world, plan, tracker, attack):
        self.misses += 1
        draws = session.draws
        draws.reset(drawn)
        mark = attack.round_mark() if attack is not None else None
        after, t = play_round(variant, world, plan, tracker, session.rngs, attack)
        if draws.pos != len(draws.log):
            raise RuntimeError("a round drew less than its recording: the round table key misses state")
        if not storable:
            return after, t
        recorded = attack.recorded_round(mark, plan.round_index) if attack is not None else None
        forks = [r.probability for r in (*t.records, *(recorded[0] if recorded else ())) if r.probability != 1.0]
        coins = sum(code & 1 for code, _ in draws.log)
        fair = not draws.foreign and len(forks) == len(draws.log) - coins and all(p == 0.5 for p in forks)
        # Sessions in other threads may store at the same time; interning
        # a world twice would leave a slot under the id of a world the
        # table does not keep alive.
        with self._lock:
            return self._store(key, world, after, t, tracker.hadamard_parity, recorded, fair, draws.log)

    def _store(self, key, world, after, t, parity, recorded, fair, log):
        """Store the path ``log`` of a statevector play; returns its world and transcript."""
        known = self._canonical(world, create=self.entries < MAX_TABLE_ENTRIES)
        if known is None:
            return after, t
        slot = self._slots[id(known)]
        root = slot.get(key)
        if root is _UNFAIR:  # marked by a session in another thread
            return after, t
        if root is None:
            if self.entries >= MAX_TABLE_ENTRIES:
                return after, t
            self.entries += 1
            key = self._intern(tuple(self._intern(part) for part in key))
        if not fair:
            slot[key] = _UNFAIR
            self.unfair += 1
            return after, t
        canonical = self._canonical(after, create=True)
        payload = (
            parity, t.bob, t.charlie, t.recovered,
            self._intern(tuple(self._intern(tuple(event.items())) for event in t.events)),
            self._intern(tuple(self._intern(r) for r in t.records)),
            None if t.eve_notes is None else self._intern(tuple(t.eve_notes.items())),
            self._intern(recorded),
        )
        leaf = (canonical, self._intern(payload))
        slot[key] = self._grow(root or (None,), log, leaf)
        return canonical, t

    @staticmethod
    def _grow(tree: tuple, log: list, leaf: tuple) -> tuple:
        """The flat subtree ``tree`` (``(None,)`` if empty) with the path of ``log`` to ``leaf`` added."""
        head = tree[0]
        if not log:
            # A session in another thread may have stored the same path
            # first; its leaf is then this very world and payload.
            if head is None or (len(tree) == 2 and head is leaf[0] and tree[1] is leaf[1]):
                return leaf
            raise RuntimeError("a round forked unlike its recording: the round table key misses state")
        code, value = log[0]
        if head is None:
            zero = one = (None,)
        elif type(head) is int and head == code:
            zero, one = tree[2 : 2 + tree[1]], tree[2 + tree[1] :]
        else:
            raise RuntimeError("a round forked unlike its recording: the round table key misses state")
        if value == 1 if code & 1 else value < 0.5:
            one = RoundTable._grow(one, log[1:], leaf)
        else:
            zero = RoundTable._grow(zero, log[1:], leaf)
        return (code, len(zero), *zero, *one)
