"""Round table: recorded statevector rounds, replayed in sessions and enumerated branches.

Stabilizer worlds close into a small set (Aaronson & Gottesman,
*Improved simulation of stabilizer circuits*, quant-ph/0406196): the
worlds a long session visits, keyed by their exact amplitude bytes, are
a few dozen per attack.  ``RoundTable`` records each round played from
such a world once per outcome path, with the statevector round as the
only engine, and replays the recording when the same round comes back.
A replay draws from the session's own streams exactly what the
statevector play would draw, so sessions stay byte-identical.  The
table is a graph of ``Node``s, and either way a round comes to one leaf,
(next node, payload), applied to the session's attack.
``RoundTable.play_rounds`` is the one session loop: it plays a session's
or a branch's whole list of plan classes, and a round's row is its
leaf's ``args``, kept by reference: the one row shape.

``Script`` scripts the draws of every statevector round play: a miss
logs the outcome path it records through the script of the session or
of the enumeration that plays the round.

Every supported session draws only scalar ``random()`` and
``integers(0, 2)`` values from its streams, ``harness.PCG64Stream``s
built from the session seed, and the script's taps refuse any other use.
A fork walk's coins come from a stream's zero-argument ``bit()``, so the
walk stays within the interpreter's inlined calls.  Every fork of the
paper's Clifford circuits has weight 1/2, so a round that forks otherwise
raises instead of playing slowly, and an enumerated branch's probability
is 1/2 to the power of its ``random()`` draws.

The process keeps one table, ``harness.ROUND_TABLE``, for Monte Carlo
sessions and exact enumeration alike: an enumerated branch is a session
whose streams are a tape of outcomes, one tape for the whole
enumeration, and it plays every round through the table
(``harness.enumerate_branches``).
"""

from __future__ import annotations

import functools
import threading
from typing import Callable

from .protocol import Rngs, RoundPlan
from .qsim import PureState

MAX_TABLE_ENTRIES = 4096

_SCALAR_ONLY = "a session stream hands out only random() and integers(0, 2)"


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
        """New taps on this script, one per stream, for a statevector round
        play.  The script does not keep them: a script and its taps form no
        reference cycle, so a session's script is freed when it ends, not by
        the cyclic GC."""
        return Rngs(_Tap(self, 0), _Tap(self, 1), _Tap(self, 2))

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
    code, a leaf is (next node, payload), and ``None`` is an outcome not
    yet recorded.  ``_nodes`` keys a node by the values a round reads:
    its world's exact labels and amplitude bytes, the parity, the attack
    class and ``state``.  A stored node keeps the world that first reached
    its key; only ``node`` and a miss look a node up.
    A plan class's coin names the variant, and a round reads its index
    only through what the parity, plan class and ``state`` name.  A leaf's
    payload is ``(args, recorded)``: ``args`` the played transcript's
    ``frozen_args``, its events, records and note items as interned
    tuples, which a session keeps as the round's row, and ``recorded``
    the attack's ``recorded_round`` (``None`` without an attack or if the
    round left it as it was).  Replaying a tree draws from the session's
    real streams exactly what the statevector play draws, because every
    fork is a coin or a Born weight of exactly 1/2 (``qsim.measure``); the
    walk keeps only its outcome path, an int and its depth.

    A miss plays the round with ``play_round`` through the session's
    ``Script``, which hands back first the walk's draws, rebuilt along its
    path: a coin is its outcome, a ``random()`` the tape's stand-in, 0.0
    for outcome 1 and 1.0 for outcome 0, which ``qsim.measure`` reads at
    weight 1/2 only as below 1/2 or not.  It stores the path the script
    logged, and the node if it was not.  A play that forks other than at a
    recorded Born weight of 1/2, stored or not, raises ``RuntimeError``: a
    tree could not replay it.  Once ``MAX_TABLE_ENTRIES`` (node, plan
    class) trees are stored, new ones play unstored, and their leaves name
    new nodes that are not stored.
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
            self._interned: dict = {}
            self.entries = 0  # trees stored
            self.hits = 0
            self.misses = 0

    @staticmethod
    def _world_key(world: PureState) -> tuple:
        return world.labels, world.amps.tobytes()

    def _intern(self, value):
        return self._interned.setdefault(value, value)

    def _key(self, world: PureState, parity: int, attack: type, state) -> tuple:
        """The key of ``_nodes``: what a round reads of its node."""
        return (*self._world_key(world), parity, attack, state)

    def node(self, world: PureState, parity: int, attack) -> Node:
        """The stored node of ``world`` at ``parity`` with ``attack`` as it is, else a new one."""
        cls, state = type(attack), None if attack is None else attack.state
        found = self._nodes.get(self._key(world, parity, cls, state))
        return Node(world, parity, cls, state) if found is None else found

    def _node(self, node: Node, store: bool = False) -> Node:
        """The stored node of ``node``'s key, else ``node``, which ``store`` stores."""
        key = self._key(node.world, node.parity, node.attack, node.state)
        return (self._nodes.setdefault if store else self._nodes.get)(key, node)

    def play_rounds(self, script: Script, node: Node, plans: list, attack, first: int = 1) -> tuple[Node, list]:
        """The one session loop: ``plans[k]``, a plan class, played as round
        ``first + k`` with the draws of the session whose ``Script`` is
        ``script``, the first from ``node`` and each later one from the node
        the round before led to.  A round is replayed from the session's live
        streams when recorded, applying to ``attack`` what it did to it, and
        else played through the script by the table's round function and
        recorded.  Returns the node after the last round and each round's
        row, its leaf's ``args``; the hits count also if a round raises."""
        gens, rows, hits = script.live, [], 0
        try:
            for i, plan_class in enumerate(plans, first):
                root = tree = node.edges.get(plan_class)
                path = depth = 0  # outcome k is bit k of path
                while tree is not None and type(tree[0]) is int:
                    code = tree[0]
                    if code & 1:
                        outcome = gens[code >> 1].bit()
                    else:
                        outcome = gens[code >> 1].random() < 0.5
                    tree = tree[1 + outcome]
                    path |= outcome << depth
                    depth += 1
                if tree is None:
                    node, (args, _) = self._record(script, root, path, depth, node, i, plan_class, attack)
                else:
                    node, (args, recorded) = tree
                    hits += 1
                    if recorded is not None:
                        attack.replay_round(i, recorded)
                rows.append(args)
        finally:
            self.hits += hits
        return node, rows

    def _record(self, script, tree, path, depth, node, round_index, plan_class, attack):
        self.misses += 1
        drawn = []  # the walk's draws, rebuilt along its path (see the class docstring)
        for k in range(depth):
            code, outcome = tree[0], path >> k & 1
            drawn.append((code, outcome if code & 1 else 0.0 if outcome else 1.0))
            tree = tree[1 + outcome]
        script.reset(drawn)
        mark = attack.round_mark() if attack is not None else None
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
        after = Node(world, parity, node.attack, None if recorded is None else recorded[2])
        if recorded == ((), (), node.state):
            recorded = None
        # Sessions in other threads may store at the same time.
        with self._lock:
            here = self._node(node)
            tree = here.edges.get(plan_class)
            if tree is None:
                if self.entries >= MAX_TABLE_ENTRIES:
                    return after, (t.frozen_args(), recorded)  # unstored
                self.entries += 1
                here = self._node(node, store=True)
            intern = self._intern
            leaf = self._node(after, store=True), intern((t.frozen_args(intern), intern(recorded)))
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
