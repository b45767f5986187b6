"""Closed-form state identities checked against scripted op sequences.

Each entry pins one algebraic claim about the protocols or the attacks:
a state reached by a short scripted sequence of preparations, gates and
(where needed) forced measurement branches must equal a hand-transcribed
closed form, up to a global sign, within ``qsim.ATOL``.  The closed
forms are frozen here as explicit amplitude tables so that a regression
in any gate, preparation or measurement rule shows up as a concrete
amplitude mismatch rather than a vague test failure.

``verify_equation_corpus`` replays every identity over all its parameter
branches.  The ``corrupt`` argument deliberately flips one amplitude in
the named identity's fixture and is used as a negative control: a
checker that cannot fail is not checking anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .qsim import (
    ATOL,
    PureState,
    apply_cnot,
    apply_h,
    basis_state,
    deviation_up_to_sign,
    discard,
    measure,
    prepare_pair_qbar,
    require_atol,
    state_from_terms,
    tensor,
)
from .protocol import chi_state, g_state

RH = 1.0 / np.sqrt(2.0)
A8 = 1.0 / (2.0 * np.sqrt(2.0))


class _NoDraw:
    """Rng stand-in for measurements that must be deterministic."""

    def random(self) -> float:
        raise AssertionError("scripted sequence hit an unexpected random measurement")


class _Force:
    """Rng stand-in that forces the next measurement to a chosen outcome."""

    def __init__(self, outcome: int) -> None:
        self.outcome = outcome

    def random(self) -> float:
        return 0.0 if self.outcome == 1 else 1.0


def _flip_last(terms: dict[str, float]) -> dict[str, float]:
    out = dict(terms)
    last = sorted(out)[-1]
    out[last] = -out[last]
    return out


def _fixture(labels, terms, corrupt: bool) -> PureState:
    return state_from_terms(labels, _flip_last(terms) if corrupt else terms)


# --------------------------------------------------------------------------
# Identity builders.  Each yields (branch_label, scripted, fixture).


def _e1(corrupt):
    for q1 in (0, 1):
        st = tensor(chi_state(), basis_state([("w1", q1), ("w2", q1)]))
        st = apply_cnot(st, "a", "w1")
        st = apply_cnot(st, "a", "w2")
        st = tensor(st, basis_state([("e1", 0)]))
        st = apply_cnot(st, "w1", "e1")
        fix = _fixture(
            ("a", "b", "c", "e1", "w1", "w2"),
            {f"000{q1}{q1}{q1}": RH, f"111{1 - q1}{1 - q1}{1 - q1}": RH},
            corrupt,
        )
        yield f"q1={q1}", st, fix


def _two_round_install(q1: int, q2: int, m1: int) -> PureState:
    """Replay the first two intercepted rounds of the full schedule."""
    nodraw = _NoDraw()
    world = tensor(chi_state(), basis_state([("w1", q1), ("w2", q1)]))
    world = apply_cnot(world, "a", "w1")
    world = apply_cnot(world, "a", "w2")
    world = tensor(world, basis_state([("e1", 0)]))
    world = apply_cnot(world, "w1", "e1")
    world = apply_cnot(world, "b", "w1")
    world = apply_cnot(world, "c", "w2")
    _, world = measure(world, "w1", nodraw)
    _, world = measure(world, "w2", nodraw)
    world = discard(world, "w1")
    world = discard(world, "w2")
    for lab in ("a", "b", "c", "e1"):
        world = apply_h(world, lab)
    world = tensor(world, prepare_pair_qbar(q2))
    world = apply_cnot(world, "a", "w1")
    world = tensor(world, basis_state([("e2", 0)]))
    world = apply_cnot(world, "w1", "e2")
    world = apply_cnot(world, "w2", "e2")
    world = apply_cnot(world, "e1", "w1")
    world = apply_cnot(world, "b", "w1")
    world = apply_cnot(world, "c", "w2")
    _, world = measure(world, "w1", _Force(m1))
    _, world = measure(world, "w2", nodraw)
    world = discard(world, "w1")
    world = discard(world, "w2")
    return world


def _e2_terms(q1: int, q2: int) -> dict[str, float]:
    terms = {}
    for aa, bb, cc, e1 in itertools.product((0, 1), repeat=4):
        if aa ^ bb ^ cc ^ e1:
            continue
        sgn = -1.0 if (q1 and e1) else 1.0
        terms[f"{aa}{bb}{cc}{e1}{aa ^ q2}"] = sgn * A8
    return terms


def _e2(corrupt):
    # The residual is the same in both measurement branches of round 2;
    # replay branch 0 here and branch 1 inside the E3 builder so both
    # forks stay covered.
    for q1, q2 in itertools.product((0, 1), repeat=2):
        st = _two_round_install(q1, q2, m1=0)
        fix = _fixture(("a", "b", "c", "e1", "e2"), _e2_terms(q1, q2), corrupt)
        yield f"q1={q1},q2={q2}", st, fix


def _e3(corrupt):
    for q1, q2 in itertools.product((0, 1), repeat=2):
        st = _two_round_install(q1, q2, m1=1)
        for lab in ("a", "b", "c", "e1", "e2"):
            st = apply_h(st, lab)
        s = -0.5 if q2 else 0.5
        terms = {
            f"000{q1}0": 0.5,
            f"111{1 - q1}0": 0.5,
            f"100{q1}1": s,
            f"011{1 - q1}1": s,
        }
        fix = _fixture(("a", "b", "c", "e1", "e2"), terms, corrupt)
        yield f"q1={q1},q2={q2}", st, fix


def _e4(corrupt):
    st = chi_state()
    for lab in ("a", "b", "c"):
        st = apply_h(st, lab)
    fix = _fixture(("a", "b", "c"), {"000": 0.5, "110": 0.5, "101": 0.5, "011": 0.5}, corrupt)
    yield "-", st, fix


def _e5_terms(q: int) -> dict[str, float]:
    terms = {}
    for a in (0, 1):
        p = q ^ a
        for w1 in (0, 1):
            w2 = p ^ w1
            for bc in (0, 1):
                sgn = -1.0 if (a and bc) else 1.0
                terms[f"{a}{w1}{w2}{bc}{bc}"] = sgn * A8
    return terms


def _e5(corrupt):
    for q in (0, 1):
        st = apply_h(chi_state(), "a")
        st = tensor(st, prepare_pair_qbar(q))
        st = apply_cnot(st, "a", "w1")
        fix = _fixture(("a", "w1", "w2", "b", "c"), _e5_terms(q), corrupt)
        yield f"q={q}", st, fix


def _e6_terms(q: int) -> dict[str, float]:
    terms = {}
    for a in (0, 1):
        p = q ^ a
        for w1 in (0, 1):
            w2 = p ^ w1
            for b in (0, 1):
                terms[f"{a}{w1}{w2}{b}{b ^ a}"] = A8
    return terms


def _e6(corrupt):
    for q in (0, 1):
        st = apply_h(chi_state(), "a")
        st = tensor(st, prepare_pair_qbar(q))
        st = apply_cnot(st, "a", "w1")
        st = apply_h(st, "b")
        st = apply_h(st, "c")
        fix = _fixture(("a", "w1", "w2", "b", "c"), _e6_terms(q), corrupt)
        yield f"q={q}", st, fix


def _e7(corrupt):
    for q1, q2, target in itertools.product((0, 1), (0, 1), ("w1", "w2")):
        st = tensor(chi_state(), basis_state([("w1", q1), ("w2", q2)]))
        st = apply_cnot(st, "a", target)
        if target == "w1":
            terms = {f"000{q1}{q2}": RH, f"111{1 - q1}{q2}": RH}
        else:
            terms = {f"000{q1}{q2}": RH, f"111{q1}{1 - q2}": RH}
        fix = _fixture(("a", "b", "c", "w1", "w2"), terms, corrupt)
        yield f"q1={q1},q2={q2},target={target}", st, fix


def _e8(corrupt):
    st = tensor(chi_state(), prepare_pair_qbar(0))
    st = apply_cnot(st, "a", "w1")
    st = tensor(st, basis_state([("e", 0)]))
    st = apply_cnot(st, "w1", "e")
    terms = {"000000": 0.5, "011100": 0.5, "110111": 0.5, "101011": 0.5}
    fix = _fixture(("a", "w1", "w2", "e", "b", "c"), terms, corrupt)
    yield "-", st, fix


def _e9(corrupt):
    base = apply_h(chi_state(), "a")
    base = tensor(base, prepare_pair_qbar(0))
    base = apply_cnot(base, "a", "w1")
    base = tensor(base, basis_state([("e", 0)]))
    base = apply_cnot(base, "w1", "e")
    base = apply_h(base, "b")
    base = apply_h(base, "c")
    base = apply_cnot(base, "b", "w1")
    base = apply_cnot(base, "c", "w2")
    residuals = {
        0: {"0000": 0.5, "0111": 0.5, "1010": 0.5, "1101": 0.5},
        1: {"0001": 0.5, "0110": 0.5, "1011": 0.5, "1100": 0.5},
    }
    for m1 in (0, 1):
        rec1, st = measure(base, "w1", _Force(m1))
        rec2, st = measure(st, "w2", _NoDraw())
        if rec1.outcome ^ rec2.outcome != 0:
            raise AssertionError("intercepted pair round should still decode in-round")
        st = discard(st, "w1")
        st = discard(st, "w2")
        fix = _fixture(("a", "b", "c", "e"), residuals[m1], corrupt)
        yield f"m1={m1}", st, fix


def _e10(corrupt):
    for q1, q2 in itertools.product((0, 1), repeat=2):
        st = tensor(chi_state(), basis_state([("w1", q1), ("w2", q2)]))
        st = apply_cnot(st, "a", "w1")
        st = tensor(st, basis_state([("e", 0)]))
        st = apply_cnot(st, "w1", "e")
        st = apply_cnot(st, "w2", "e")
        terms = {
            f"000{q1}{q1 ^ q2}{q2}": RH,
            f"111{1 - q1}{1 - (q1 ^ q2)}{q2}": RH,
        }
        fix = _fixture(("a", "b", "c", "w1", "e", "w2"), terms, corrupt)
        yield f"q1={q1},q2={q2}", st, fix


def _e11(corrupt):
    for q in (0, 1):
        st = tensor(g_state(), prepare_pair_qbar(q))
        st = apply_cnot(st, "a", "w1")
        st = tensor(st, basis_state([("e", 0)]))
        st = apply_cnot(st, "w1", "e")
        st = apply_cnot(st, "w2", "e")
        terms = {}
        for abc in ("000", "110", "101", "011"):
            a = int(abc[0])
            p = q ^ a
            for w1 in (0, 1):
                terms[f"{abc}{w1}{p ^ w1}{p}"] = A8
        fix = _fixture(("a", "b", "c", "w1", "w2", "e"), terms, corrupt)
        yield f"q={q}", st, fix


CORPUS = (
    ("E1", "probe copy of a product-encoded transit qubit", _e1),
    ("E2", "carrier-probe residual after the two-probe install rounds", _e2),
    ("E3", "two-probe residual after the public Hadamard layer", _e3),
    ("E4", "full Hadamard layer maps the carrier to its even-weight form", _e4),
    ("E5", "coin-1 entangled-pair encoding in transit", _e5),
    ("E6", "coin-1 entangled-pair state after the receivers' Hadamards", _e6),
    ("E7", "single-qubit encoding in transit", _e7),
    ("E8", "probe copy of a pair transit qubit sent without the coin", _e8),
    ("E9", "carrier-probe residuals after an intercepted coin-1 pair round", _e9),
    ("E10", "two-qubit probe copy against the single encoding", _e10),
    ("E11", "two-qubit probe copy against the even-form pair encoding", _e11),
)

IDENTITY_IDS = tuple(ident for ident, _, _ in CORPUS)


@dataclass(frozen=True)
class BranchResult:
    identity: str
    branch: str
    deviation: float
    ok: bool


@dataclass(frozen=True)
class IdentityResult:
    identity: str
    title: str
    branches: tuple[BranchResult, ...]

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.branches)

    @property
    def max_deviation(self) -> float:
        return max(b.deviation for b in self.branches)


def verify_equation_corpus(
    corrupt: str | None = None, atol: float = ATOL
) -> list[IdentityResult]:
    """Replay every identity; returns one result per identity.

    ``corrupt`` names an identity whose fixture gets one amplitude sign
    flipped, so the corresponding result must come back failing.  A branch
    passes within ``atol``, which must be finite and at least 0: at an
    infinite one the negative control would pass too.
    """
    require_atol(atol)
    if corrupt is not None and corrupt not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {corrupt!r}; known: {', '.join(IDENTITY_IDS)}")
    results = []
    for ident, title, builder in CORPUS:
        branches = []
        for label, scripted, fixture in builder(corrupt == ident):
            dev = deviation_up_to_sign(scripted, fixture)
            branches.append(BranchResult(ident, label, dev, dev <= atol))
        results.append(IdentityResult(ident, title, tuple(branches)))
    return results
