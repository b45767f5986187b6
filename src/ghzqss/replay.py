"""Round table: recorded statevector rounds, replayed in Monte Carlo sessions.

Stabilizer worlds close into a small set (Aaronson & Gottesman,
*Improved simulation of stabilizer circuits*, quant-ph/0406196): the
worlds a long session visits, keyed by their exact amplitude bytes, are
a few dozen per attack.  ``RoundTable`` records each round played from
such a world once per outcome path, with the statevector round as the
only engine, and replays the recording when the same round comes back.
A replay draws from the session's own streams exactly what the
statevector play would draw, so sessions stay byte-identical.

``Script`` scripts the draws of every statevector round play: a miss
logs the outcome path it records through the session's script, and the
branch enumerator (``harness._walk``) counts through a round's forks
with a script that has no live streams.

A warm round draws only random numbers, so the session streams are
``PCG64Stream``s: they decode numpy's own ``random()`` and
``integers(0, 2)`` values from raw PCG64 words (O'Neill 2014) fetched in
blocks, without a numpy call per draw.

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

# Raw words a PCG64Stream fetches at a time.
BLOCK_WORDS = 64


class PCG64Stream:
    """A numpy PCG64 ``Generator`` whose scalar ``random()`` and
    ``integers(0, 2)`` draws are decoded in Python from raw 64-bit words.

    The values are numpy's own.  A double is ``(w >> 11) * 2**-53`` of the
    next word.  ``integers(0, 2)`` is Lemire's bounded draw (Lemire 2019)
    for a range of two, which is the top bit of the next 32-bit half-word;
    half-words come low half first, then high half, and a pending high
    half waits across ``random()`` calls, as PCG64's ``next_uint32`` does.
    Words are fetched ``BLOCK_WORDS`` at a time with ``random_raw``.

    Any other use (other bounds, ``size=``, another method or attribute)
    switches the stream for good to a numpy ``Generator`` on the same bit
    generator, rebuilt at the exact position: the state at construction,
    advanced by the words consumed, with the pending half-word.
    """

    __slots__ = ("_bits", "_start", "_words", "_pos", "_spent", "_half", "_gen")

    def __init__(self, gen: np.random.Generator) -> None:
        bits = gen.bit_generator
        if type(bits) is not np.random.PCG64:
            raise TypeError(f"a PCG64Stream needs a PCG64 bit generator, got {type(bits).__name__}")
        self._bits = bits
        self._start = bits.state
        self._words: list[int] = []
        self._pos = 0  # next word of the block
        self._spent = 0  # words of earlier blocks
        self._half = self._start["uinteger"] if self._start["has_uint32"] else None
        self._gen: np.random.Generator | None = None

    def _word(self) -> int:
        pos, words = self._pos, self._words
        if pos == len(words):
            self._spent += pos
            words = self._words = self._bits.random_raw(BLOCK_WORDS).tolist()
            pos = 0
        self._pos = pos + 1
        return words[pos]

    def random(self, *args, **kwargs):
        if args or kwargs or self._gen is not None:
            return self.generator().random(*args, **kwargs)
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, *args, **kwargs):
        if args != (0, 2) or kwargs or self._gen is not None:
            return self.generator().integers(*args, **kwargs)
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return (word >> 31) & 1
        self._half = None
        return half >> 31

    def generator(self) -> np.random.Generator:
        """The stream as a numpy ``Generator`` at its exact position; every
        later draw goes through it."""
        gen = self._gen
        if gen is None:
            bits = self._bits
            bits.state = self._start
            bits.advance(self._spent + self._pos)
            if self._half is not None:
                state = bits.state
                state["has_uint32"], state["uinteger"] = 1, self._half
                bits.state = state
            gen = self._gen = np.random.Generator(bits)
            self._words = None
        return gen

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.generator(), name)


class Script:
    """The draws of one statevector round play, through the taps of ``rngs``.

    ``log`` holds ``(code, value)`` pairs, where ``code`` is twice the
    stream index (Bob, Charlie, attack) plus 1 for an ``integers(0, 2)``
    coin and 0 for a ``random()``.  A play first gets back, in order, the
    values it was ``reset`` to; past them each draw comes from the
    ``live`` streams and is logged.  ``foreign`` notes any other use of a
    live stream, which a fork tree cannot replay.  Without live streams
    (the branch enumerator's script) a ``random()`` returns 1.0, which
    forces outcome 0, and a coin or any other use raises ``TypeError``: a
    coin leaves no measurement record for a branch's weight.
    """

    __slots__ = ("live", "log", "pos", "foreign")

    def __init__(self, live: tuple[PCG64Stream, PCG64Stream, PCG64Stream] | None = None) -> None:
        self.live = live
        self.reset([])

    @property
    def rngs(self) -> Rngs:
        """New taps on this script, one per stream.  The script does not
        keep them: a script and its taps form no reference cycle, so a
        session's script is freed when it ends, not by the cyclic GC."""
        return Rngs(*(_Tap(self, k) for k in range(3)))

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
    """One stream of a ``Script``: every ``random()`` and coin goes through the script."""

    __slots__ = ("_script", "_gen", "_code", "_random")

    def __init__(self, script: Script, index: int) -> None:
        gen = None if script.live is None else script.live[index]
        self._script = script
        self._gen = gen
        self._code = 2 * index
        self._random = (lambda: 1.0) if gen is None else gen.random

    def random(self, *args, **kwargs):
        if not (args or kwargs):
            return self._script.take(self._code, self._random)
        return self._foreign().random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        if args == (0, 2) and not kwargs and self._gen is not None:
            return self._script.take(self._code + 1, self._coin)
        return self._foreign().integers(*args, **kwargs)

    def _coin(self):
        return self._gen.integers(0, 2)

    def _foreign(self) -> PCG64Stream:
        if self._gen is None:
            raise TypeError("a script without live streams hands out only random()")
        self._script.foreign = True
        return self._gen

    def __getattr__(self, name):
        return getattr(self._foreign(), name)


class RoundTable:
    """Bounded memo of recorded statevector rounds, in front of a round function.

    A key is (variant, carrier parity, plan class, attack class,
    attacker key) under the exact labels and amplitude bytes of the
    world.  Its value is the round's fork tree, built one outcome path at
    a time and flattened into one tuple in preorder: a fork is its
    ``Script`` code and the length of its outcome-0 subtree, followed by
    both subtrees; a leaf is the next world and a payload of everything
    the round produced, with the round index left out; ``None`` is an
    outcome not yet recorded.  Replaying a tree draws from the session's
    real streams exactly what the statevector play draws, because every
    fork of a stored key is a coin or a Born weight of exactly 1/2
    (``qsim.measure``).

    A miss plays the round on the statevector path through the session's
    ``Script``, which hands back first the values the walk already drew,
    and stores the path it logged.  A key whose play forks at another
    weight, or uses a stream otherwise, is marked and always plays on the
    statevector path.  Once ``MAX_TABLE_ENTRIES`` keys are stored, new
    keys play there unstored.
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
        self, play_round, session: Script, variant: str, world: PureState, plan: tuple,
        tracker: CarrierTracker, attack, transcribe: bool,
    ) -> tuple[PureState, RoundTranscript | int]:
        """Round ``plan``, a (round index, plan class) pair, of the session whose ``Script`` is
        ``session``: replayed from its live streams when recorded, else played through it by
        ``play_round`` (the statevector round, ``harness._play_round``) and recorded.  Returns
        the next world and the transcript, or, on a replay without ``transcribe``, the recovered bit."""
        round_index, plan_class = plan
        attack_key = attack.round_key(round_index) if attack is not None else None
        key = (variant, tracker.hadamard_parity, plan_class, type(attack), attack_key)
        slot = self._slots.get(id(world))
        if slot is None:
            known = self._canonical(world, create=False)
            slot = self._slots[id(known)] if known is not None else {}
        tree = slot.get(key)
        drawn = []
        if type(tree) is tuple:
            gens = session.live
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
                if transcribe:
                    return self._replay(head, tree[i + 1], plan, tracker, attack)
                tracker.hadamard_parity, _, _, recovered, _, _, _, recorded = tree[i + 1]
                if attack is not None:
                    attack.replay_round(round_index, recorded)
                return head, recovered
        return self._record(play_round, session, drawn, tree is not _UNFAIR, key, variant, world, plan, tracker, attack)

    def _replay(self, world: PureState, payload: tuple, plan: tuple, tracker: CarrierTracker, attack):
        """The world and transcript of a replayed round, the one place that builds a transcript from a payload."""
        round_index, plan_class = plan
        parity, bob, charlie, recovered, events, records, notes, recorded = payload
        tracker.hadamard_parity = parity
        if attack is not None:
            attack.replay_round(round_index, recorded)
        transcript = RoundTranscript(
            round_index, plan_class.mode_name, plan_class.coin, plan_class.target, plan_class.secret,
            bob, charlie, recovered,
            [dict(event) for event in events], list(records), None if notes is None else dict(notes),
        )
        return world, transcript

    def _record(self, play_round, script, drawn, storable, key, variant, world, plan, tracker, attack):
        self.misses += 1
        script.reset(drawn)
        mark = attack.round_mark() if attack is not None else None
        round_index, plan_class = plan
        plan = RoundPlan(round_index, plan_class.mode, plan_class.coin)
        after, t = play_round(variant, world, plan, tracker, script.rngs, attack)
        if script.pos != len(script.log):
            raise RuntimeError("a round drew less than its recording: the round table key misses state")
        if not storable:
            return after, t
        recorded = attack.recorded_round(mark, round_index) if attack is not None else None
        forks = [r.probability for r in (*t.records, *(recorded[0] if recorded else ())) if r.probability != 1.0]
        coins = sum(code & 1 for code, _ in script.log)
        fair = not script.foreign and len(forks) == len(script.log) - coins and all(p == 0.5 for p in forks)
        # Sessions in other threads may store at the same time; interning
        # a world twice would leave a slot under the id of a world the
        # table does not keep alive.
        with self._lock:
            return self._store(key, world, after, t, tracker.hadamard_parity, recorded, fair, script.log)

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
