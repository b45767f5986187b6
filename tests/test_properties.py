"""Generated scenarios: the branch enumerator against the reference replay.

Each example is a random scripted scenario of either variant, any
strategy defined against it and a random attacker seed.  Its branches
must equal those of ``_replay_branches``, which plays every branch on
the statevector path from round 1, on a warm round table and on one that
stores nothing.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ghzqss.harness as harness  # noqa: E402
import ghzqss.replay as replay  # noqa: E402
from ghzqss.harness import MAX_ENUM_ROUNDS, Scenario, enumerate_branches, original_plans, revised_plans  # noqa: E402
from ghzqss.protocol import W1, W2  # noqa: E402
from ghzqss.replay import RoundTable  # noqa: E402
from test_harness import _fingerprint, _replay_branches  # noqa: E402

# The dishonest receiver forks on every round, so its scenarios stay short.
MAX_DISHONEST_ROUNDS = 4


@st.composite
def scenarios(draw):
    variant = draw(st.sampled_from(["original", "revised"]))
    if variant == "original":
        strategy = draw(st.sampled_from(["none", "a2"]))
    else:
        strategy = draw(st.sampled_from(["none", "a1", "a2-probe", "dishonest-bob"]))
    rounds = draw(st.integers(1, MAX_DISHONEST_ROUNDS if strategy == "dishonest-bob" else MAX_ENUM_ROUNDS))
    bits = st.lists(st.integers(0, 1), min_size=rounds, max_size=rounds)
    if variant == "original":
        plans = original_plans(draw(bits))
    else:
        coins, secrets, q1_bits = draw(bits), draw(bits), draw(bits)
        targets = draw(st.lists(st.sampled_from([W1, W2]), min_size=rounds, max_size=rounds))
        plans = revised_plans(coins, secrets, q1_bits=q1_bits, targets=targets)
    return Scenario(variant, plans, strategy=strategy, attack_seed=draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scenarios())
def test_enumeration_matches_the_replay(scenario):
    want = [_fingerprint(b) for b in _replay_branches(scenario)]
    with pytest.MonkeyPatch.context() as m:
        table = RoundTable(harness._play_round)
        m.setattr(harness, "ROUND_TABLE", table)
        enumerate_branches(scenario)
        misses = table.misses
        assert [_fingerprint(b) for b in enumerate_branches(scenario)] == want
        assert table.misses == misses  # warm: every round was replayed
        m.setattr(replay, "MAX_TABLE_ENTRIES", 0)
        m.setattr(harness, "ROUND_TABLE", RoundTable(harness._play_round))
        assert [_fingerprint(b) for b in enumerate_branches(scenario)] == want
