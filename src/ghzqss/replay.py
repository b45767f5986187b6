"""Round table: recorded statevector rounds, replayed in sessions and enumerated branches.

Stabilizer worlds close into a small set (Aaronson & Gottesman,
*Improved simulation of stabilizer circuits*, quant-ph/0406196): the
worlds a long session visits, keyed by their exact amplitude bytes, are
a few dozen per attack.  ``RoundTable`` records each round played from
such a world once per outcome path, with the statevector round as the
only engine, and replays the recording when the same round comes back.
A replay draws from the session's own streams exactly what the
statevector play would draw, so sessions stay byte-identical.  The
table is a graph of ``Node``s, and either way a round comes back as one
leaf, (next node, payload).  A session applies it to its attack with
``replay_leaf`` and builds its row with ``compact_row`` or
``transcript``.  A leaf carries its weight (``leaf_weight``), the product
of the Born weights the round recorded, so an enumerated branch's
probability is the product of its rounds' leaf weights.

``Script`` scripts the draws of every statevector round play: a miss
logs the outcome path it records through the script of the session or
of the enumeration that plays the round.

Every supported session draws only scalar ``random()`` and
``integers(0, 2)`` values.  Its streams are ``PCG64Stream``s, which
decode numpy's own values from raw PCG64 words (O'Neill 2014) fetched in
blocks, without a numpy call per draw, and may set up their bit generator
only at their first word; they and the script's taps refuse any other
use.  A stream's draws are plain methods with exact positional
arguments, and Alice's bits come from its zero-argument ``bit()``, so
neither a fork walk nor a plan draw leaves the interpreter's inlined
calls.  Every fork of the paper's Clifford circuits has weight
1/2, so a round that forks otherwise raises instead of playing slowly.

The process keeps one table, ``harness.ROUND_TABLE``, for Monte Carlo
sessions and exact enumeration alike: an enumerated branch is a session
whose streams are a tape of outcomes, one tape for the whole
enumeration.  The tape serves the rounds before the first that draws
differently from the branch before from that branch's leaves, and plays
the rest through the table (``harness.enumerate_branches``).
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable

import numpy as np

from .protocol import Rngs, RoundPlan, RoundTranscript
from .qsim import PureState

MAX_TABLE_ENTRIES = 4096

_SCALAR_ONLY = "a session stream hands out only random() and integers(0, 2)"

# Raw words a PCG64Stream fetches at a time.
BLOCK_WORDS = 64


class PCG64Stream:
    """The scalar ``random()`` and ``integers(0, 2)`` draws of a numpy PCG64
    ``Generator``, decoded in Python from raw 64-bit words.

    The values are numpy's own.  A double is ``(w >> 11) * 2**-53`` of the
    next word.  ``integers(0, 2)`` is Lemire's bounded draw (Lemire 2019)
    for a range of two, which is the top bit of the next 32-bit half-word;
    half-words come low half first, then high half, and a pending high
    half waits across ``random()`` calls, as PCG64's ``next_uint32`` does.
    Words are fetched ``BLOCK_WORDS`` at a time with ``random_raw``; a
    draw reads the next buffered word itself and calls ``_word`` only to
    fetch the next block.

    ``opener`` is a function without arguments that returns the
    ``Generator``, with no half-word pending, when the stream needs its
    first word: a stream that is never drawn from never sets up its bit
    generator.

    ``bit()`` is ``integers(0, 2)`` without arguments, the draw a session
    passes for Alice's bits.  Each draw is a Python method called with its
    exact positional arguments, which CPython 3.11 inlines into its caller.
    Any other call (other bounds, ``size=``, keywords) raises ``TypeError``
    before anything is drawn, and the stream has no other method or
    attribute.
    """

    __slots__ = ("_bits", "_open", "_words", "_pos", "_half")

    def __init__(self, opener: Callable[[], np.random.Generator]) -> None:
        self._open = opener
        self._bits = self._half = None
        self._words: list[int] = []
        self._pos = 0  # next word of the block

    def _attach(self, gen: np.random.Generator) -> None:
        bits = gen.bit_generator
        if type(bits) is not np.random.PCG64:
            raise TypeError(f"a PCG64Stream needs a PCG64 bit generator, got {type(bits).__name__}")
        if bits.state["has_uint32"]:
            # The word this stream is fetching would skip the pending half.
            raise ValueError("a stream opened at its first word needs a generator with no half-word pending")
        self._bits = bits

    def _word(self) -> int:
        """The first word of a new block, fetched once the buffered block is used up."""
        if self._bits is None:
            self._attach(self._open())
        self._words = self._bits.random_raw(BLOCK_WORDS).tolist()
        self._pos = 1
        return self._words[0]

    def random(self):
        pos, words = self._pos, self._words
        if pos < len(words):
            self._pos = pos + 1
            return (words[pos] >> 11) * 2.0 ** -53
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, low, high, /):
        if low != 0 or high != 2:
            raise TypeError(_SCALAR_ONLY)
        return self.bit()

    def bit(self):
        """``integers(0, 2)`` as a draw without arguments, for Alice's bits."""
        half = self._half
        if half is None:
            pos, words = self._pos, self._words
            if pos < len(words):
                self._pos = pos + 1
                word = words[pos]
            else:
                word = self._word()
            self._half = word >> 32
            return (word >> 31) & 1
        self._half = None
        return half >> 31


class Script:
    """The draws of one statevector round play, through the taps of ``rngs``.

    ``log`` holds ``(code, value)`` pairs, where ``code`` is twice the
    stream index (Bob, Charlie, attack) plus 1 for an ``integers(0, 2)``
    coin and 0 for a ``random()``.  A play first gets back, in order, the
    values it was ``reset`` to; past them each draw comes from the
    ``live`` streams and is logged.  A tap hands out only those two
    draws, which is all a fork tree can replay: any other use raises
    ``TypeError`` before anything is drawn or logged.
    """

    __slots__ = ("live", "log", "pos")

    def __init__(self, live: tuple) -> None:
        self.live = live
        self.reset([])

    @property
    def rngs(self) -> Rngs:
        """New taps on this script, one per stream, for a statevector round play."""
        return Rngs(*map(self.tap, range(3)))

    def tap(self, index: int) -> _Tap:
        """A new tap on stream ``index`` (0 Bob, 1 Charlie, 2 attack).  The
        script does not keep it: a script and its taps form no reference
        cycle, so a session's script is freed when it ends, not by the
        cyclic GC."""
        return _Tap(self, index)

    def reset(self, drawn: list) -> None:
        self.log = drawn
        self.pos = 0

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

    __slots__ = ("_script", "_code", "_random", "_coin")

    def __init__(self, script: Script, index: int) -> None:
        gen = script.live[index]
        self._script = script
        self._code = 2 * index
        self._random = gen.random
        self._coin = functools.partial(gen.integers, 0, 2)

    def random(self, *args, **kwargs):
        if args or kwargs:
            raise TypeError(_SCALAR_ONLY)
        return self._script.take(self._code, self._random)

    def integers(self, *args, **kwargs):
        if args != (0, 2) or kwargs:
            raise TypeError(_SCALAR_ONLY)
        return self._script.take(self._code + 1, self._coin)

    def __getattr__(self, name):
        raise TypeError(_SCALAR_ONLY)


def replay_leaf(round_index: int, leaf: tuple, attack) -> None:
    """Apply to ``attack`` what the round of ``leaf`` did to it, at round ``round_index``."""
    recorded = leaf[1][6]
    if recorded is not None:
        attack.replay_round(round_index, recorded)


def leaf_weight(leaf: tuple) -> float:
    """The Born weight of the outcome path that reaches ``leaf``."""
    return leaf[1][7]


def compact_row(round_index: int, plan_class, payload: tuple) -> tuple:
    """The compact row ``(round_index, secret, recovered, mode, target)`` of a round's leaf payload."""
    return round_index, plan_class.secret, payload[2], plan_class.mode_name, plan_class.target


def transcript(round_index: int, plan_class, payload: tuple) -> RoundTranscript:
    """The transcript of a round's leaf payload, a new one on every call.  It
    holds the payload's frozen events, records and notes and builds its own
    list or dict of each on the first read, so no transcript shares one."""
    bob, charlie, recovered, events, records, notes, _, _ = payload
    return RoundTranscript(
        round_index, plan_class.mode_name, plan_class.coin, plan_class.target, plan_class.secret,
        bob, charlie, recovered, events, records, notes,
    )


class Node:
    """A state of the round graph (see ``RoundTable``)."""

    __slots__ = ("world", "parity", "attack", "state", "edges")

    def __init__(self, world: PureState, parity: int, attack: type, state) -> None:
        self.world, self.parity, self.attack, self.state, self.edges = world, parity, attack, state, {}


class RoundTable:
    """Bounded memo of recorded statevector rounds of the one round function
    ``play_round`` it is built with (``harness._play_round``), stored as a
    graph; a node names no round function, so one table never serves two.

    A ``Node`` is a world, the carrier parity before a round, the attack
    class and the attack's ``state``; its ``edges`` map a plan class to
    the round's fork tree, built one outcome path at a time.  A fork is
    ``(code, outcome-0 subtree, outcome-1 subtree)`` with its ``Script``
    code, a leaf is what ``play`` returns, (next node, payload), and
    ``None`` is an outcome not yet recorded.  ``_nodes`` maps (world,
    parity, attack class, ``state``) to the stored node, the world being
    the id of its copy in ``_worlds``, which interns worlds by their exact
    labels and amplitude bytes; only ``node`` and a miss look a node up.
    A plan class's coin names the variant, and a round reads its index
    only through what the parity, plan class and ``state`` name.  A leaf's
    payload is ``(bob, charlie, recovered, events, records, notes,
    recorded, weight)``: the events, records and note items as interned
    tuples, ``recorded`` the attack's ``recorded_round`` (``None`` without
    an attack or if the round left it as it was), and ``weight`` the
    product of the Born weights of the round's decode and attack records,
    a power of 1/2.  Replaying a tree draws from the session's real
    streams exactly what the statevector play draws, because every fork
    is a coin or a Born weight of exactly 1/2 (``qsim.measure``).

    A miss plays the round with ``play_round`` through the session's
    ``Script``, which hands back first the values the tree walk already
    drew, and stores the path it logged, and the node if it was not.  A
    play that forks other than at a recorded Born weight of 1/2, stored or
    not, raises ``RuntimeError``: a tree could not replay it.  Once
    ``MAX_TABLE_ENTRIES`` (node, plan class) trees are stored, new ones
    play unstored, and their leaves name new nodes that are not stored.
    """

    def __init__(self, play_round: Callable) -> None:
        self._play_round = play_round
        self._lock = threading.Lock()
        self._nodes: dict[tuple, Node] = {}  # node key -> stored node
        self.clear()

    def clear(self) -> None:
        """Forget every recorded round and reset the counters.  A session
        already running keeps the nodes it holds, without their trees."""
        with self._lock:
            for node in self._nodes.values():
                node.edges = {}
            self._nodes.clear()
            self._worlds: dict[tuple, PureState] = {}  # world key -> interned world
            self._interned: dict = {}
            self.entries = 0  # trees stored
            self.hits = 0
            self.misses = 0

    @staticmethod
    def _world_key(world: PureState) -> tuple:
        return world.labels, world.amps.tobytes()

    def _intern(self, value):
        return self._interned.setdefault(value, value)

    def node(self, world: PureState, parity: int, attack) -> Node:
        """The stored node of ``world`` at ``parity`` with ``attack`` as it is, else a new one."""
        # A stored key holds the id of a world ``_worlds`` keeps alive, so a
        # live ``world`` with that id is that world: no world key is built.
        key = (id(world), parity, type(attack), None if attack is None else attack.state)
        return self._nodes.get(key) or self._node(Node(world, *key[1:]))

    def _node(self, node: Node, store: bool = False) -> Node:
        """The stored node of ``node``'s key, else ``node``, which ``store`` stores."""
        get = dict.setdefault if store else dict.get
        node.world = get(self._worlds, self._world_key(node.world), node.world)
        return get(self._nodes, (id(node.world), node.parity, node.attack, node.state), node)

    def play(self, session: Script, node: Node, plan: tuple, attack) -> tuple[Node, tuple]:
        """Round ``plan``, a (round index, plan class) pair, of the session whose ``Script`` is
        ``session``, from ``node``: replayed from its live streams when recorded, else played
        through it by the table's round function and recorded.  Returns the round's leaf,
        (next node, payload), where the payload is everything else the round produced."""
        round_index, plan_class = plan
        tree = node.edges.get(plan_class)
        drawn = []
        gens = session.live
        while tree is not None and type(tree[0]) is int:
            code = tree[0]
            if code & 1:
                value = gens[code >> 1].integers(0, 2)
                tree = tree[1 + value]
            else:
                value = gens[code >> 1].random()
                tree = tree[1 + (value < 0.5)]
            drawn.append((code, value))
        if tree is None:
            return self._record(session, drawn, node, plan, attack)
        self.hits += 1
        replay_leaf(round_index, tree, attack)
        return tree

    def _record(self, script, drawn, node, plan, attack):
        self.misses += 1
        script.reset(drawn)
        mark = attack.round_mark() if attack is not None else None
        round_index, plan_class = plan
        plan = RoundPlan(round_index, plan_class.mode, plan_class.coin)
        world, parity, t = self._play_round(node.world, plan, node.parity, script.rngs, attack)
        if script.pos != len(script.log):
            raise RuntimeError("a round drew less than its recording: the round table key misses state")
        recorded = attack.recorded_round(mark, round_index) if attack is not None else None
        # Each random() must be a measurement whose record has weight 1/2.
        forks = [r.probability for r in (*t.records, *(recorded[0] if recorded else ())) if r.probability != 1.0]
        coins = sum(code & 1 for code, _ in script.log)
        if len(forks) != len(script.log) - coins or any(p != 0.5 for p in forks):
            raise RuntimeError("a round forked other than at a recorded Born weight of 1/2")
        notes = t.eve_notes
        after = Node(world, parity, node.attack, None if recorded is None else recorded[2])
        payload = (
            t.bob, t.charlie, t.recovered, tuple(tuple(event.items()) for event in t.events),
            tuple(t.records), None if notes is None else tuple(notes.items()),
            None if recorded == ((), (), node.state) else recorded, math.prod(forks, start=1.0),
        )
        # Sessions in other threads may store at the same time; a world
        # interned outside the lock could key a node on the id of a world
        # the table does not keep alive.
        with self._lock:
            here = self._node(node)
            tree = here.edges.get(plan_class)
            if tree is None:
                if self.entries >= MAX_TABLE_ENTRIES:
                    return after, payload  # unstored
                self.entries += 1
                here = self._node(node, store=True)
            intern = self._intern
            *bits, events, records, notes, recorded, weight = payload
            parts = (tuple(map(intern, events)), tuple(map(intern, records)), notes, recorded)
            leaf = self._node(after, store=True), intern((*bits, *map(intern, parts), weight))
            here.edges[plan_class] = self._grow(tree, script.log, leaf)
            return leaf

    @staticmethod
    def _grow(tree: tuple | None, log: list, leaf: tuple) -> tuple:
        """The subtree ``tree`` (``None`` if empty) with the path of ``log`` to ``leaf`` added."""
        if not log:
            # A session in another thread may have stored the same path
            # first; its leaf is then this very node and payload.
            if tree is None or (tree[0] is leaf[0] and tree[1] is leaf[1]):
                return leaf
            raise RuntimeError("a round forked unlike its recording: the round table key misses state")
        code, value = log[0]
        if tree is not None and not (type(tree[0]) is int and tree[0] == code):
            raise RuntimeError("a round forked unlike its recording: the round table key misses state")
        fork = list(tree or (code, None, None))
        i = 1 + (value == 1 if code & 1 else value < 0.5)
        fork[i] = RoundTable._grow(fork[i], log[1:], leaf)
        return tuple(fork)
