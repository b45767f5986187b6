"""In-memory span tracer that wraps the public functions of each ghzqss layer.

The layers are the package modules ``qsim``, ``protocol``, ``attacks``,
``harness``, ``corpus`` and ``cli``.  Several modules bind the same
function under their own name (``protocol``, ``attacks`` and ``corpus``
do ``from .qsim import ...``; ``harness`` and ``cli`` import from
``protocol`` and ``harness``), so the tracer replaces the function at
every module attribute that holds it, and the attack hooks on every class
that defines them.  ``uninstall`` puts the originals back.

Every wrapped call is timed on one stack.  A call's self time is its
duration minus the time of the wrapped calls it made, so the self times
of all names add up to the duration of the outermost calls.  qsim
operations run 10^5-10^6 times per run and are only aggregated (count,
self time, computed bytes, and a per-parent-span total); every other call
is also kept as a span record ``(item, span, parent, name, start, end,
qsim_calls, qsim_s)``.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# qsim operations traced, with the number of full amplitude vectors each
# reads plus writes.  Bytes are *computed* from this model as
# passes * 8 * 2**n for the widest register n the call touches; nothing
# is measured.  probability_of_one reads only the |1> half; measure reads
# the kept half and writes a full output; discard reads the kept half
# and writes a half-size output; equal_up_to_sign reorders one state and
# compares two; the constructors zero, fill, copy and norm-check.
QSIM_PASSES = {
    "apply_h": 2.0,
    "apply_cnot": 2.0,
    "measure": 1.5,
    "discard": 1.0,
    "tensor": 1.0,
    "probability_of_one": 0.5,
    "equal_up_to_sign": 6.0,
    "basis_state": 4.0,
    "prepare_pair_qbar": 4.0,
    "ghz_carrier": 4.0,
}

# (module, function, span name) of every traced call that keeps a span.
SPAN_FUNCTIONS = (
    ("protocol", "original_round", "protocol.round"),
    ("protocol", "revised_round", "protocol.round"),
    ("protocol", "g_state", "protocol.g_state"),
    ("protocol", "chi_state", "protocol.chi_state"),
    ("protocol", "check_phase", "protocol.check_phase"),
    ("attacks", "build_attack", "attacks.build_attack"),
    ("attacks", "eve_reconstruct", "attacks.eve_reconstruct"),
    ("harness", "run_simulation", "harness.run_simulation"),
    ("harness", "stream", "harness.stream"),
    ("harness", "run_grid", "harness.run_grid"),
    ("harness", "enumerate_branches", "harness.enumerate_branches"),
    ("corpus", "verify_equation_corpus", "corpus.verify"),
    ("cli", "main", "cli.main"),
)
ATTACK_HOOKS = ("intercept", "sync_hadamard", "bob_decode")
MODULES = ("qsim", "protocol", "attacks", "corpus", "harness", "cli")


def _state_width(op: str, args, result) -> int:
    if op == "tensor":
        return len(args[0].labels) + len(args[1].labels)
    if op in ("basis_state", "prepare_pair_qbar", "ghz_carrier"):
        return len(result.labels)
    return len(args[0].labels)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.qsim_bytes = 0
        self.max_qubits = 0
        # (variant, strategy) -> [inclusive seconds, rounds]
        self.round_time: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        # id(transcript) -> attacker measurement count when its round ended;
        # lets the benchmark split attacker records by round.
        self.attack_marks: dict[int, int] = {}
        self.first_rounds = 0
        self.item = 0
        self._origin = time.perf_counter()
        self._next_id = 1
        # Frame: [child_s, qsim_calls, qsim_s, span_id]; the root frame
        # collects the outermost calls.
        self._stack: list[list] = [[0.0, 0, 0.0, 0]]
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrappers

    def _qsim_wrapper(self, op: str, fn):
        name = f"qsim.{op}"
        passes = QSIM_PASSES[op]
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, 0, 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                parent[1] += 1
                parent[2] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
            n = _state_width(op, args, result)
            self.qsim_bytes += int(passes * 8 * (1 << n))
            if n > self.max_qubits:
                self.max_qubits = n
            return result

        return traced

    def _span_wrapper(self, name: str, fn, variant: str | None = None):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, 0, 0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                self.spans.append((
                    self.item, span_id, parent[3], name,
                    t0 - self._origin, t1 - self._origin, frame[1], frame[2],
                ))
            if variant is not None:
                plan = args[1] if len(args) > 1 else kwargs["plan"]
                self.first_rounds += plan.round_index == 1
                attack = args[4] if len(args) > 4 else kwargs.get("attack")
                slot = self.round_time[(variant, attack.name if attack is not None else "none")]
                slot[0] += dur
                slot[1] += 1
                if attack is not None:
                    self.attack_marks[id(result[1])] = len(attack.records)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installation

    def install(self, ghzqss) -> None:
        """Wrap every binding of the traced functions in the package."""
        modules = [ghzqss] + [getattr(ghzqss, m) for m in MODULES]
        replacement: dict[int, object] = {}
        for op in QSIM_PASSES:
            fn = getattr(ghzqss.qsim, op)
            replacement[id(fn)] = self._qsim_wrapper(op, fn)
        for mod, attr, name in SPAN_FUNCTIONS:
            fn = getattr(getattr(ghzqss, mod), attr)
            variant = {"original_round": "original", "revised_round": "revised"}.get(attr)
            replacement[id(fn)] = self._span_wrapper(name, fn, variant)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls in vars(ghzqss.attacks).values():
            if isinstance(cls, type) and issubclass(cls, ghzqss.attacks.ChannelAttack):
                for hook in ATTACK_HOOKS:
                    if hook in vars(cls):
                        original = vars(cls)[hook]
                        self._patches.append((cls, hook, original))
                        setattr(cls, hook, self._span_wrapper(f"attacks.{hook}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path) -> None:
        keys = ("item", "span", "parent", "name", "start_s", "end_s", "qsim_calls", "qsim_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")
