"""The identity corpus's arguments, and the state comparison's tolerance."""

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
