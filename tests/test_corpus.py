"""The identity corpus's arguments."""

import math

import pytest

import ghzqss.corpus as corpus
from ghzqss.corpus import verify_equation_corpus


@pytest.mark.parametrize("atol", [math.inf, math.nan, -1e-12, "1e-12", True])
def test_the_tolerance_is_checked_before_any_replay(atol, monkeypatch):
    # At atol=inf the corrupted identity would come back OK.
    monkeypatch.setattr(corpus, "deviation_up_to_sign", None)
    with pytest.raises(ValueError, match="atol"):
        verify_equation_corpus(corrupt="E1", atol=atol)

