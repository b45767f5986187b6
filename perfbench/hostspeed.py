"""Host-speed correction for wall times.

A shared 2-core virtual machine (Intel Xeon, Python 3.11) was measured
switching between a fast and a slow state, about 1.45x apart, for seconds
to minutes at a time, so a whole run can land in either.  Raw wall-clock
rates then spread by 20-40% between runs of the same code, which hides
any change smaller than that.  The fix is a fixed reference loop, which uses no
ghzqss code, timed between work items: every item's wall time is
multiplied by ``REF_NOMINAL_S / t_ref``.  Here ``t_ref`` is the mean of
the reference timings just before and just after the item.  Corrected
times are the wall times the items would take on a host that runs the
reference loop in exactly ``REF_NOMINAL_S``.  Raw times are printed next
to them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REF_NOMINAL_S = 0.005
REF_ITERATIONS = 300
REF_QUBITS = 6
# Work between two reference timings: short enough to follow the host's
# switches, long enough to keep the reference loop near 5% of a run.
REF_INTERVAL_S = 0.1


@dataclass(frozen=True)
class _State:
    labels: tuple
    amps: np.ndarray


def reference_loop() -> float:
    """Fixed small-statevector kernel in the simulator's style: reshaped
    slices for a Hadamard, a copy-and-swap for a CNOT, an einsum for a
    probability, a frozen dataclass per step and a label lookup.  Its
    slowdown follows the simulator's more closely than that of a plain
    numpy-and-float loop: corrected session rates spread 4% against 7%
    over 8 s windows on the machine described above."""
    n = REF_QUBITS
    amps = np.zeros(1 << n)
    amps[0] = 1.0
    state = _State(tuple(f"q{i}" for i in range(n)), amps)
    s = 1.0 / np.sqrt(2.0)
    total = 0.0
    for it in range(REF_ITERATIONS):
        k = it % n
        v = state.amps.reshape(1 << k, 2, 1 << (n - k - 1))
        out = np.empty_like(state.amps)
        o = out.reshape(v.shape)
        o[:, 0] = (v[:, 0] + v[:, 1]) * s
        o[:, 1] = (v[:, 0] - v[:, 1]) * s
        state = _State(state.labels, out)
        i, j = sorted((k, (k + 1) % n))
        out = state.amps.copy()
        w = out.reshape(1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - j - 1))
        tmp = w[:, 1, :, 0, :].copy()
        w[:, 1, :, 0, :] = w[:, 1, :, 1, :]
        w[:, 1, :, 1, :] = tmp
        state = _State(state.labels, out)
        hi = state.amps.reshape(1 << k, 2, 1 << (n - k - 1))[:, 1]
        total += float(np.einsum("ij,ij->", hi, hi)) + state.labels.index(f"q{k}")
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class HostSpeed:
    """Times the reference loop between items and sets each item's ``scale``."""

    def __init__(self) -> None:
        self._last = time_reference()
        self._pending: list = []
        self._work = 0.0

    def after(self, sample) -> None:
        self._pending.append(sample)
        self._work += sample.wall
        if self._work >= REF_INTERVAL_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        ref = time_reference()
        scale = REF_NOMINAL_S / ((self._last + ref) / 2)
        for sample in self._pending:
            sample.scale = scale
        self._last = ref
        self._pending.clear()
        self._work = 0.0
