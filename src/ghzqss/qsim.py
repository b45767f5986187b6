"""Minimal pure-state simulator over labeled qubits.

Every state handled by this package is a real superposition of
computational basis kets (the only gates are H and CNOT, and all
preparations are basis states), so amplitudes are stored as a flat
float64 vector of length 2**n.  Qubits are addressed by string label;
``labels[0]`` is the most significant bit of the basis index.

Operations are functional: each returns a new ``PureState`` and never
mutates its input.  Measurement is the one stochastic operation and
draws a single uniform float from the supplied generator, except when
one outcome carries probability below ``ATOL`` in which case the other
outcome is forced and the generator is not consulted at all.  That rule
is what makes deterministic protocol branches reproducible independent
of how many rng draws happened earlier.  ``measure(..., drop=True)``
also removes the measured qubit from the register in the same gather.
``discard``, for qubits that were never measured, refuses a qubit whose
outcome ``measure`` would not force and otherwise takes that same path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

# Absolute tolerance for norm checks, degenerate-outcome detection and
# state equality.  Everything in this package is exact up to float64
# rounding, so a loose tolerance would only hide bugs.
ATOL = 1e-12

# Hard cap on register width.  The protocols here never need more than
# 3 carrier + 2 transit + 2 probe + 2 substitute qubits; the cap keeps
# a runaway tensor loop from allocating gigabytes.
MAX_QUBITS = 12


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a single-qubit measurement in the computational basis.

    ``probability`` is the Born weight the recorded outcome had in the
    pre-measurement state.  Multiplying these records along a branch
    gives the probability of the whole branch.
    """

    qubit: str
    outcome: int
    probability: float


@dataclass(frozen=True, slots=True, eq=False)
class PureState:
    """Immutable n-qubit pure state with real amplitudes.

    ``labels`` orders the qubits most-significant first; ``amps`` has
    length ``2**len(labels)`` and unit norm.  Two states are equal when
    their labels and amplitudes are exactly equal; a state is not hashable.
    """

    labels: tuple[str, ...]
    amps: np.ndarray

    def __eq__(self, other):
        if type(other) is not PureState:
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.amps, other.amps)

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no qubit labeled {label!r} in state over {self.labels}") from None

    def tensor_view(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (a view, not a copy)."""
        return self.amps.reshape((2,) * self.num_qubits)


def _make(labels: Sequence[str], amps: np.ndarray) -> PureState:
    """Validate and freeze a state; every public constructor funnels through here,
    each with ``2 ** len(labels)`` amplitudes by construction."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate qubit labels: {labels}")
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"register of {len(labels)} qubits exceeds cap of {MAX_QUBITS}")
    amps = np.asarray(amps, dtype=np.float64).reshape(-1)
    norm = float(np.sqrt(np.dot(amps, amps)))
    if not abs(norm - 1.0) <= ATOL:  # NaN fails too
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {ATOL}")
    amps = amps.copy()
    amps.flags.writeable = False
    return PureState(labels, amps)


def _wrap(labels: tuple[str, ...], amps: np.ndarray) -> PureState:
    """Freeze an amplitude buffer the caller owns, skipping validation.

    Only for gate/measurement internals whose outputs satisfy the
    invariants by construction; the validation in ``_make`` on every
    intermediate state would dominate the simulation runtime.
    """
    amps.setflags(write=False)
    return PureState(labels, amps)


_S = 1.0 / np.sqrt(2.0)


@lru_cache(maxsize=None)
def _axis_table(n: int, k: int) -> tuple[np.ndarray, ...]:
    """Index tables for qubit axis ``k`` of an ``n``-qubit register.

    Returns ``(lo, hi, p0, p1, sign)``: ``lo``/``hi`` list in ascending
    order the basis indices whose bit ``k`` is 0/1; ``p0``/``p1`` map
    every index to itself with that bit cleared/set; ``sign`` is -1.0
    where the bit is set and 1.0 elsewhere.  ``MAX_QUBITS`` bounds the
    cache at 78 entries.
    """
    idx = np.arange(1 << n)
    bit = 1 << (n - 1 - k)
    is_one = (idx & bit) != 0
    tables = (idx[~is_one], idx[is_one], idx & ~bit, idx | bit, np.where(is_one, -1.0, 1.0))
    for t in tables:
        t.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _cnot_perm(n: int, kc: int, kt: int) -> np.ndarray:
    """Gather that applies CNOT(control axis ``kc``, target axis ``kt``).

    ``MAX_QUBITS`` bounds the cache at 572 entries.
    """
    idx = np.arange(1 << n)
    perm = np.where(idx & (1 << (n - 1 - kc)), idx ^ (1 << (n - 1 - kt)), idx)
    perm.flags.writeable = False
    return perm


def basis_state(assignments: Iterable[tuple[str, int]]) -> PureState:
    """Product basis state from ``(label, bit)`` pairs, first pair most significant.

    Equal arguments return the same immutable state.
    """
    pairs = tuple(assignments)
    if not pairs:
        raise ValueError("basis_state needs at least one qubit")
    index = 0
    for lab, bit in pairs:
        if type(bit) is not int or bit not in (0, 1):
            raise ValueError(f"bit for {lab!r} must be the int 0 or 1, got {bit!r}")
        index = (index << 1) | bit
    return _basis_state(tuple(lab for lab, _ in pairs), index)


@lru_cache(maxsize=256)
def _basis_state(labels: tuple[str, ...], index: int) -> PureState:
    amps = np.zeros(2 ** len(labels))
    amps[index] = 1.0
    return _make(labels, amps)


def state_from_terms(labels: Sequence[str], terms: Mapping[str, float]) -> PureState:
    """Build a state from ``{bitstring: amplitude}`` terms.

    Bitstrings are read in ``labels`` order (most significant first).
    The terms must already be normalized; this helper is used to
    transcribe closed-form states into fixtures, and refusing to
    renormalize catches transcription slips.
    """
    labels = tuple(labels)
    amps = np.zeros(2 ** len(labels))
    for bits, coeff in terms.items():
        if len(bits) != len(labels) or set(bits) - {"0", "1"}:
            raise ValueError(f"bad bitstring {bits!r} for {len(labels)} qubits")
        amps[int(bits, 2)] += float(coeff)
    norm = float(np.sqrt(np.dot(amps, amps)))
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"terms have norm {norm!r}; write normalized amplitudes")
    return _make(labels, amps)


def ghz_carrier(labels: Sequence[str] = ("a", "b", "c")) -> PureState:
    """Three-party carrier (|000> + |111>)/sqrt(2)."""
    labels = tuple(labels)
    if len(labels) != 3:
        raise ValueError("carrier has exactly three qubits")
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return _make(labels, amps)


def prepare_pair_qbar(q: int, labels: Sequence[str] = ("w1", "w2")) -> PureState:
    """Correlated transit pair (|0,q> + |1,1-q>)/sqrt(2).

    The XOR of the two qubits equals ``q`` in every branch, which is the
    property the entangled encoding relies on.  Equal arguments return
    the same immutable state.
    """
    if type(q) is not int or q not in (0, 1):
        raise ValueError(f"payload bit must be the int 0 or 1, got {q!r}")
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError("transit pair has exactly two qubits")
    return _pair_qbar(q, labels)


@lru_cache(maxsize=256)
def _pair_qbar(q: int, labels: tuple[str, str]) -> PureState:
    amps = np.zeros(4)
    amps[0b00 if q == 0 else 0b01] = 1.0 / np.sqrt(2.0)
    amps[0b11 if q == 0 else 0b10] = 1.0 / np.sqrt(2.0)
    return _make(labels, amps)


def apply_h(state: PureState, label: str) -> PureState:
    """Hadamard on one qubit."""
    _, _, p0, p1, sign = _axis_table(state.num_qubits, state.axis(label))
    a = state.amps
    out = a[p1]
    out *= sign
    out += a[p0]
    out *= _S
    return _wrap(state.labels, out)


def apply_cnot(state: PureState, control: str, target: str) -> PureState:
    """CNOT with the given control and target labels."""
    if control == target:
        raise ValueError("control and target must differ")
    perm = _cnot_perm(state.num_qubits, state.axis(control), state.axis(target))
    return _wrap(state.labels, state.amps[perm])


def probability_of_one(state: PureState, label: str) -> float:
    """Born probability that measuring ``label`` yields 1."""
    # einsum on the (before, after) view of the |1> half sums each run of
    # ``after`` contiguous amplitudes with numpy's vector kernel, then adds
    # the runs in order.  Every draw depends on the last bit of this sum,
    # and a gathered copy, np.dot or a sequential sum round differently on
    # most random states, so the view stays.
    hi = state.amps.reshape(1 << state.axis(label), 2, -1)[:, 1]
    return float(np.einsum("ij,ij->", hi, hi))


def measure(state: PureState, label: str, rng, *, drop: bool = False) -> tuple[MeasurementRecord, PureState]:
    """Measure one qubit in the computational basis.

    Returns the record and the renormalized post-measurement state.
    ``rng`` needs only a ``random()`` method returning a float in [0, 1);
    it is not consulted when one outcome has probability below ``ATOL``.

    Born weights of Clifford circuits are 0, 1/2 or 1, and float drift
    only moves their last bits.  A forced outcome records exactly 1.0,
    and a weight within ``ATOL`` of 1/2 becomes exactly 0.5, so every
    protocol fork draws against the same threshold whatever the drift.

    By default the measured qubit stays in the register, now definite.
    With ``drop=True`` the one gather of the outcome's half is already
    the reduced state, and the qubit leaves the register: the result is
    byte for byte ``discard`` of the default result, the path ``discard``
    itself takes.  Dropping the last qubit raises before any draw.
    """
    if drop and state.num_qubits == 1:
        raise ValueError("cannot drop the last qubit")
    return _collapse(state, label, probability_of_one(state, label), rng, drop)


def _collapse(state: PureState, label: str, p1: float, rng, drop: bool) -> tuple[MeasurementRecord, PureState]:
    """``measure`` of ``label`` once its Born probability ``p1`` of outcome 1 is known."""
    if p1 < ATOL:
        outcome, prob = 0, 1.0
    elif 1.0 - p1 < ATOL:
        outcome, prob = 1, 1.0
    else:
        if abs(p1 - 0.5) < ATOL:
            p1 = 0.5
        u = rng.random()
        outcome = 1 if u < p1 else 0
        prob = p1 if outcome == 1 else 1.0 - p1
    record = MeasurementRecord(label, outcome, float(prob))
    k = state.axis(label)
    kept = _axis_table(state.num_qubits, k)[outcome]  # lo or hi
    if drop:
        # Both divisions of the measure-then-discard pair, in its order.
        half = state.amps[kept] / math.sqrt(prob)
        half /= math.sqrt(np.dot(half, half))
        return record, _wrap(state.labels[:k] + state.labels[k + 1 :], half)
    out = np.zeros(state.amps.size)
    out[kept] = state.amps[kept] / math.sqrt(prob)
    return record, _wrap(state.labels, out)


def tensor(left: PureState, right: PureState) -> PureState:
    """Tensor product; ``right`` qubits become the least significant block."""
    overlap = set(left.labels) & set(right.labels)
    if overlap:
        raise ValueError(f"label collision in tensor: {sorted(overlap)}")
    labels = left.labels + right.labels
    if len(labels) > MAX_QUBITS:
        raise ValueError(f"register of {len(labels)} qubits exceeds cap of {MAX_QUBITS}")
    amps = (left.amps[:, None] * right.amps[None, :]).reshape(-1)
    return _wrap(labels, amps)


def discard(state: PureState, label: str) -> PureState:
    """Drop a qubit whose value is definite (probability 0 or 1 of being 1).

    Discarding a qubit still in superposition, or one entangled with the
    rest of the register, is an error: that would silently turn a pure
    state into a mixture.  A qubit is definite exactly when ``measure``
    forces its outcome, so the drop is the collapse ``measure(..., drop=True)``
    makes, from the probability the check already computed; it never draws
    here and is given no generator.
    """
    if state.num_qubits == 1:
        raise ValueError("cannot discard the last qubit")
    p1 = probability_of_one(state, label)
    if not (p1 < ATOL or 1.0 - p1 < ATOL):
        raise ValueError(f"qubit {label!r} is not definite (p1={p1!r}); measure it first")
    return _collapse(state, label, p1, None, True)[1]


def reorder(state: PureState, labels: Sequence[str]) -> PureState:
    """Same state with qubit axes permuted into the given label order."""
    labels = tuple(labels)
    if set(labels) != set(state.labels) or len(labels) != state.num_qubits:
        raise ValueError(f"cannot reorder {state.labels} into {labels}")
    perm = [state.axis(lab) for lab in labels]
    moved = np.ascontiguousarray(np.transpose(state.tensor_view(), perm))
    return _wrap(labels, moved.reshape(-1))


def deviation_up_to_sign(state: PureState, other: PureState) -> float:
    """Max absolute amplitude difference, minimized over a global sign flip.

    The two states must cover the same label set; axis order may differ.
    """
    if set(state.labels) != set(other.labels):
        raise ValueError(f"label sets differ: {state.labels} vs {other.labels}")
    aligned = other if other.labels == state.labels else reorder(other, state.labels)
    d_plus = float(np.max(np.abs(state.amps - aligned.amps)))
    d_minus = float(np.max(np.abs(state.amps + aligned.amps)))
    return min(d_plus, d_minus)


def require_number(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number but no bool."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def require_atol(atol) -> None:
    """Raise ``ValueError`` unless ``atol`` is a finite number at least 0:
    at an infinite tolerance any two states would compare equal, and at a
    NaN or negative one none would."""
    require_number("atol", atol)
    if not (math.isfinite(atol) and atol >= 0.0):
        raise ValueError(f"atol must be a finite number >= 0, got {atol!r}")


def equal_up_to_sign(state: PureState, other: PureState, atol: float = ATOL) -> bool:
    """True when the states agree up to a global sign within ``atol`` (see ``require_atol``)."""
    require_atol(atol)
    return deviation_up_to_sign(state, other) <= atol
