"""The identity corpus's arguments and scripted assertions, and the state comparison's tolerance."""

import math

import pytest

import ghzqss.corpus as corpus
import ghzqss.qsim as qsim
from ghzqss.corpus import verify_equation_corpus
from ghzqss.protocol import chi_state, g_state


@pytest.mark.parametrize(
    "compare",
    [
        lambda atol: verify_equation_corpus(corrupt="E1", atol=atol),
        lambda atol: qsim.equal_up_to_sign(chi_state(), g_state(), atol),
    ],
    ids=["verify_equation_corpus", "equal_up_to_sign"],
)
@pytest.mark.parametrize("atol", [math.inf, math.nan, -1e-12, "1e-12", True])
def test_the_tolerance_is_checked_before_any_replay(compare, atol, monkeypatch):
    # At atol=inf the corrupted identity would come back OK, and chi would equal g.
    for module in (corpus, qsim):
        monkeypatch.setattr(module, "deviation_up_to_sign", None)
    with pytest.raises(ValueError, match="atol"):
        compare(atol)


@pytest.mark.parametrize(
    "pair,match",
    [
        (lambda q: qsim.prepare_pair_qbar(1 - q), "should still decode in-round"),
        (lambda q: qsim.apply_h(qsim.basis_state([("w1", 0), ("w2", 0)]), "w2"), "unexpected random measurement"),
    ],
    ids=["flipped-payload", "random-w2"],
)
def test_a_corrupted_pair_trips_the_scripted_assertions(pair, match, monkeypatch):
    monkeypatch.setattr(corpus, "prepare_pair_qbar", pair)
    with pytest.raises(AssertionError, match=match):
        verify_equation_corpus()


def test_an_unknown_identity_is_refused():
    with pytest.raises(ValueError, match="unknown identity 'E99'"):
        verify_equation_corpus(corrupt="E99")
