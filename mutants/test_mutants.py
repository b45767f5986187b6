"""Smoke test of the mutation runner.

    python3 -m pytest mutants/test_mutants.py

It checks that every mutant still applies, that every named test passes
on the unmutated source, runs the cheapest mutant through the runner, and
feeds the runner a stale mutant, one that changes nothing the tests read
and one whose tests time out.
``python3 mutants/run.py`` runs every mutant.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

MUTANTS = run.load()
CHEAP = next(m for m in MUTANTS if m["name"] == "pair-payload-bool")


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_every_mutant_applies_exactly_once(mutant):
    assert run.stale(mutant) is None


def test_every_named_test_passes_on_the_unmutated_source():
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    passed, detail = run.baseline(MUTANTS)
    assert passed, detail


def test_a_mutant_is_caught_in_a_copy_of_the_source():
    before = (run.ROOT / CHEAP["file"]).read_text()
    caught, detail = run.run(CHEAP)
    assert caught, detail
    assert (run.ROOT / CHEAP["file"]).read_text() == before


def test_a_mutant_the_tests_cannot_see_survives():
    # A comment edit changes no behaviour, so the runner must not call it caught.
    blind = {**CHEAP, "name": "blind", "old": "ATOL = 1e-12", "new": "ATOL = 1e-12  # same"}
    caught, detail = run.run(blind)
    assert not caught and detail.startswith("survived"), detail


@pytest.mark.parametrize("old", ["no such source text", "import "])
def test_a_mutant_whose_text_is_not_there_once_is_stale(old):
    broken = {**CHEAP, "name": "broken", "old": old}
    assert "occurs" in run.stale(broken)
    assert run.run(broken) == (False, f"stale: {run.stale(broken)}")


def test_a_mutant_whose_tests_time_out_is_not_caught(monkeypatch):
    monkeypatch.setattr(run, "TIMEOUT_S", 0.01)
    caught, detail = run.run(CHEAP)
    assert not caught and detail.startswith("timed out"), detail
