"""Round engine tests: carrier forms, round decoding, check phase."""

import json

import numpy as np
import pytest

from ghzqss.protocol import (
    CARRIER,
    W1,
    W2,
    EntangledPair,
    ProductPair,
    Rngs,
    RoundPlan,
    RoundTranscript,
    SinglePair,
    check_phase,
    check_plan,
    check_size,
    chi_state,
    g_state,
    hadamard_layer,
    original_round,
    revised_round,
    transcripts_to_jsonl,
)
from ghzqss.qsim import apply_h, basis_state, equal_up_to_sign, reorder, state_from_terms, tensor

RH = 1.0 / np.sqrt(2.0)


def _rngs(seed=0):
    return Rngs(
        bob=np.random.default_rng(seed),
        charlie=np.random.default_rng(seed + 1),
        attack=np.random.default_rng(seed + 2),
    )


class TestCarrierForms:
    def test_chi_is_the_two_ket_form(self):
        want = state_from_terms(CARRIER, {"000": RH, "111": RH})
        assert equal_up_to_sign(chi_state(), want)

    def test_g_is_the_even_weight_form(self):
        want = state_from_terms(CARRIER, {"000": 0.5, "011": 0.5, "101": 0.5, "110": 0.5})
        assert equal_up_to_sign(g_state(), want)

    def test_g_equals_hadamard_layer_of_chi(self):
        st = chi_state()
        for lab in CARRIER:
            st = apply_h(st, lab)
        assert equal_up_to_sign(st, g_state())

    def test_carrier_forms_are_built_once_and_frozen(self):
        # Every honest round compares against these, so they are shared;
        # a writeable buffer would let one caller corrupt every later check.
        for form in (chi_state, g_state):
            assert form() is form()
            with pytest.raises(ValueError):
                form().amps[0] = 0.0

    def test_carrier_forms_compare_by_value(self):
        assert chi_state() == chi_state() and g_state() == g_state()
        assert chi_state() != g_state()

    def test_layer_is_an_involution_on_the_carrier(self):
        st = hadamard_layer(chi_state())
        assert equal_up_to_sign(st, g_state())
        st = hadamard_layer(st)
        assert equal_up_to_sign(st, chi_state())

    @pytest.mark.parametrize("parity", [2, -1, True, 1.0, None])
    def test_a_round_takes_the_parity_as_the_int_0_or_1(self, parity):
        # Each plan is valid against the g form, parity 1, which True and 1.0 equal.
        for play, plan, coin_flip in (
            (original_round, RoundPlan(2, EntangledPair(0)), False),
            (revised_round, RoundPlan(1, EntangledPair(0), alice_hadamard=0), True),
        ):
            with pytest.raises(ValueError, match="parity"):
                play(g_state(), plan, parity, _rngs())
            with pytest.raises(ValueError, match="parity"):
                check_plan(plan, parity, coin_flip)


class TestPlans:
    def test_round_plan_validation(self):
        with pytest.raises(ValueError, match="starts at 1"):
            check_plan(RoundPlan(0, ProductPair(0)), 0, coin_flip=False)
        with pytest.raises(ValueError, match="alice_hadamard"):
            check_plan(RoundPlan(1, EntangledPair(0), alice_hadamard=2), 1, coin_flip=True)

    @pytest.mark.parametrize("round_index", [1.0, True, np.int64(1), 0])
    def test_a_round_index_is_an_int_of_at_least_1(self, round_index):
        # A float, bool or numpy int would reach the JSONL transcript as
        # 1.0, true or a value json cannot encode.
        for play, plan, coin_flip in (
            (original_round, RoundPlan(round_index, ProductPair(1)), False),
            (revised_round, RoundPlan(round_index, EntangledPair(1), alice_hadamard=1), True),
        ):
            with pytest.raises(ValueError, match="round_index"):
                play(chi_state(), plan, 0, _rngs())
            with pytest.raises(ValueError, match="round_index"):
                check_plan(plan, 0, coin_flip)

    def test_single_pair_target_validation(self):
        with pytest.raises(ValueError, match="target"):
            check_plan(RoundPlan(1, SinglePair(0, 1, "w3"), alice_hadamard=0), 0, coin_flip=True)

    def test_secrets_and_names(self):
        assert EntangledPair(1).secret == 1
        assert ProductPair(0).secret == 0
        assert SinglePair(1, 0, W2).secret == 1
        plan = RoundPlan(3, SinglePair(0, 1, W2), alice_hadamard=0)
        assert plan.mode_name == "single"
        assert plan.target == W2
        assert RoundPlan(1, EntangledPair(0), alice_hadamard=1).target is None


class TestRevisedRound:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("secret", [0, 1])
    def test_pair_round_decodes_exactly(self, parity, secret):
        # The entangled encoding requires coin XOR parity == 1.
        coin = 1 ^ parity
        world = g_state() if parity else chi_state()
        plan = RoundPlan(1, EntangledPair(secret), alice_hadamard=coin)
        for seed in range(8):
            out, t = revised_round(world, plan, parity, _rngs(seed))
            assert t.recovered == secret
            assert t.mode == "pair"
            assert out.labels == CARRIER
            assert equal_up_to_sign(out, g_state() if parity ^ coin else chi_state())

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("q1", [0, 1])
    @pytest.mark.parametrize("secret", [0, 1])
    @pytest.mark.parametrize("target", [W1, W2])
    def test_single_round_decodes_exactly(self, parity, q1, secret, target):
        coin = parity  # singles require coin XOR parity == 0
        world = g_state() if parity else chi_state()
        plan = RoundPlan(1, SinglePair(q1, q1 ^ secret, target), alice_hadamard=coin)
        out, t = revised_round(world, plan, parity, _rngs(3))
        assert t.recovered == secret
        assert t.target == target
        assert out.labels == CARRIER

    def test_round_events_follow_announcement_order(self):
        plan = RoundPlan(1, SinglePair(1, 0, W2), alice_hadamard=0)
        _, t = revised_round(chi_state(), plan, 0, _rngs(9))
        kinds = [ev["event"] for ev in t.events]
        assert kinds == [
            "receipt_confirmed",
            "hadamard_announced",
            "cnot_target_announced",
            "measurement_announced",
        ]
        assert t.events[1]["bit"] == 0
        assert t.events[2]["target"] == W2
        assert t.events[3]["party"] == "bob"
        assert t.events[3]["bit"] == t.bob

    def test_pair_round_has_no_target_announcement(self):
        plan = RoundPlan(1, EntangledPair(1), alice_hadamard=1)
        _, t = revised_round(chi_state(), plan, 0, _rngs(4))
        kinds = [ev["event"] for ev in t.events]
        assert kinds == ["receipt_confirmed", "hadamard_announced", "measurement_announced"]

    def test_mismatched_plan_is_rejected(self):
        # chi form + coin 0 cannot carry the entangled encoding, and
        # chi form + coin 1 cannot carry the single encoding.
        with pytest.raises(ValueError, match="decode would not be exact"):
            revised_round(
                chi_state(),
                RoundPlan(1, EntangledPair(0), alice_hadamard=0),
                0,
                _rngs(),
            )
        with pytest.raises(ValueError, match="decode would not be exact"):
            revised_round(
                chi_state(),
                RoundPlan(1, SinglePair(0, 0, W1), alice_hadamard=1),
                0,
                _rngs(),
            )

    def test_coin_is_mandatory(self):
        with pytest.raises(ValueError, match="alice_hadamard 0 or 1"):
            revised_round(chi_state(), RoundPlan(1, EntangledPair(0)), 0, _rngs())

    def test_product_encoding_is_rejected(self):
        with pytest.raises(ValueError, match="product"):
            revised_round(
                chi_state(),
                RoundPlan(1, ProductPair(0), alice_hadamard=0),
                0,
                _rngs(),
            )

    def test_stale_transit_labels_are_rejected(self):
        world = tensor(chi_state(), basis_state([(W1, 0)]))
        with pytest.raises(ValueError, match="not cleaned up"):
            revised_round(
                world, RoundPlan(1, EntangledPair(0), alice_hadamard=1), 0, _rngs()
            )

    def test_missing_carrier_qubit_is_rejected(self):
        world = basis_state([("a", 0), ("c", 0)])
        with pytest.raises(ValueError, match="missing carrier"):
            revised_round(
                world, RoundPlan(1, EntangledPair(0), alice_hadamard=1), 0, _rngs()
            )

    @pytest.mark.parametrize("variant", ["original", "revised"])
    def test_an_honest_round_takes_only_the_bare_carrier(self, variant):
        play, plan = {
            "original": (original_round, RoundPlan(1, ProductPair(0), None)),
            "revised": (revised_round, RoundPlan(1, EntangledPair(0), alice_hadamard=1)),
        }[variant]
        for world in (tensor(chi_state(), basis_state([("x", 0)])), reorder(chi_state(), ("b", "a", "c"))):
            rngs = _rngs()
            with pytest.raises(ValueError, match="bare carrier"):
                play(world, plan, 0, rngs)
            # It raised before playing: no stream was drawn from.
            unused = _rngs()
            assert (rngs.bob.random(), rngs.charlie.random()) == (unused.bob.random(), unused.charlie.random())

    def test_bad_payload_bit_fails_at_encode_time(self):
        with pytest.raises(ValueError):
            revised_round(
                chi_state(),
                RoundPlan(1, EntangledPair(2), alice_hadamard=1),
                0,
                _rngs(),
            )

    def test_long_honest_session_restores_the_carrier(self):
        rng = np.random.default_rng(77)
        world, parity = chi_state(), 0
        for i in range(1, 101):
            coin = int(rng.integers(0, 2))
            secret = int(rng.integers(0, 2))
            if coin ^ parity:
                mode = EntangledPair(secret)
            else:
                q1 = int(rng.integers(0, 2))
                mode = SinglePair(q1, q1 ^ secret, W1 if rng.random() < 0.5 else W2)
            world, t = revised_round(
                world, RoundPlan(i, mode, alice_hadamard=coin), parity, _rngs(i)
            )
            parity ^= coin
            assert t.recovered == secret
            assert equal_up_to_sign(world, g_state() if parity else chi_state())


class TestOriginalRounds:
    @pytest.mark.parametrize("q", [0, 1])
    def test_odd_round_decodes_via_bob(self, q):
        world, t = original_round(chi_state(), RoundPlan(1, ProductPair(q)), 0, _rngs(1))
        assert t.recovered == q
        assert t.bob == q and t.charlie == q
        assert t.mode == "product"
        assert world.labels == CARRIER

    @pytest.mark.parametrize("q", [0, 1])
    def test_even_round_decodes_via_xor(self, q):
        world, t = original_round(g_state(), RoundPlan(2, EntangledPair(q)), 1, _rngs(2))
        assert t.recovered == (t.bob ^ t.charlie) == q
        assert t.mode == "pair"
        kinds = [ev["event"] for ev in t.events]
        assert kinds == ["receipt_confirmed", "measurement_announced"]

    def test_odd_round_announces_nothing_but_receipt(self):
        _, t = original_round(chi_state(), RoundPlan(1, ProductPair(1)), 0, _rngs())
        assert [ev["event"] for ev in t.events] == ["receipt_confirmed"]

    def test_round_index_and_mode_must_agree(self):
        with pytest.raises(ValueError, match="ProductPair"):
            original_round(chi_state(), RoundPlan(1, EntangledPair(0)), 0, _rngs())
        with pytest.raises(ValueError, match="EntangledPair"):
            original_round(g_state(), RoundPlan(2, ProductPair(0)), 1, _rngs())

    def test_rounds_insist_on_the_right_carrier_form(self):
        with pytest.raises(ValueError, match="chi carrier form"):
            original_round(g_state(), RoundPlan(1, ProductPair(0)), 1, _rngs())
        with pytest.raises(ValueError, match="g carrier form"):
            original_round(chi_state(), RoundPlan(2, EntangledPair(0)), 0, _rngs())

    def test_an_honest_round_must_leave_the_carrier_in_form(self):
        # The parity names the other form than the carrier is in: the round
        # plays, and its end check refuses the carrier it leaves.
        with pytest.raises(AssertionError, match="return to its chi form"):
            original_round(g_state(), RoundPlan(1, ProductPair(0)), 0, _rngs())
        with pytest.raises(AssertionError, match="return to its g form"):
            original_round(chi_state(), RoundPlan(2, EntangledPair(1)), 1, _rngs())

    def test_no_coin_in_the_alternating_variant(self):
        with pytest.raises(ValueError, match="no per-round coin"):
            original_round(
                chi_state(), RoundPlan(1, ProductPair(0), alice_hadamard=0), 0, _rngs()
            )

    def test_alternating_session_with_layers(self):
        rng = np.random.default_rng(55)
        world, parity = chi_state(), 0
        for i in range(1, 11):
            if i > 1:
                world, parity = hadamard_layer(world), parity ^ 1
            secret = int(rng.integers(0, 2))
            mode = ProductPair(secret) if i % 2 == 1 else EntangledPair(secret)
            world, t = original_round(world, RoundPlan(i, mode), parity, _rngs(100 + i))
            assert t.recovered == secret
        assert equal_up_to_sign(world, g_state() if parity else chi_state())


def _fake_transcript(i, secret, recovered):
    return RoundTranscript(
        round_index=i,
        mode="pair",
        hadamard=1,
        target=None,
        secret=secret,
        bob=0,
        charlie=secret ^ recovered ^ 0,
        recovered=recovered,
    )


class TestCheckPhase:
    def test_fraction_bounds(self):
        ts = [_fake_transcript(1, 0, 0)]
        for bad in (0.0, -0.1, 1.5, True, "0.5"):
            with pytest.raises(ValueError, match="check_fraction"):
                check_phase(ts, bad, np.random.default_rng(0))
        with pytest.raises(ValueError, match="no rounds"):
            check_phase([], 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), True, "0.5"])
    def test_threshold_bounds(self, bad):
        ts = [_fake_transcript(1, 0, 0)]
        with pytest.raises(ValueError, match="threshold"):
            check_phase(ts, 1.0, np.random.default_rng(0), threshold=bad)

    @pytest.mark.parametrize(
        "fraction,n,expected",
        [(0.25, 100, 25), (0.25, 2, 1), (1.0, 7, 7), (0.01, 10, 1), (0.5, 5, 2)],
    )
    def test_sample_size_rule(self, fraction, n, expected):
        ts = [_fake_transcript(i + 1, 0, 0) for i in range(n)]
        _, _, announced = check_phase(ts, fraction, np.random.default_rng(3))
        checked = tuple(
            t.round_index for t in ts if any(ev["event"] == "check_announced" for ev in t.events)
        )
        assert len(checked) == expected
        assert announced == checked

    def test_error_rate_counts_only_checked_rounds(self):
        # One bad round among four; with full checking the rate is 1/4.
        ts = [_fake_transcript(i, 0, int(i == 2)) for i in range(1, 5)]
        rate, detected, _ = check_phase(ts, 1.0, np.random.default_rng(0))
        assert rate == 0.25
        assert detected

    def test_threshold_semantics(self):
        ts = [_fake_transcript(i, 0, int(i == 1)) for i in range(1, 5)]
        rate, detected, _ = check_phase(ts, 1.0, np.random.default_rng(0), threshold=0.25)
        assert rate == 0.25
        assert not detected
        ts2 = [_fake_transcript(i, 0, int(i <= 2)) for i in range(1, 5)]
        rate2, detected2, _ = check_phase(ts2, 1.0, np.random.default_rng(0), threshold=0.25)
        assert rate2 == 0.5
        assert detected2

    def test_same_seed_checks_the_same_rounds(self):
        picks = []
        for _ in range(2):
            ts = [_fake_transcript(i + 1, 0, 0) for i in range(50)]
            _, _, announced = check_phase(ts, 0.2, np.random.default_rng(12))
            picks.append(
                tuple(
                    t.round_index
                    for t in ts
                    if any(ev["event"] == "check_announced" for ev in t.events)
                )
            )
            assert announced == picks[-1]
        assert picks[0] == picks[1]

    def test_a_sessions_rows_check_as_its_transcripts(self):
        ts = [_fake_transcript(i, i % 2, int(i % 3 == 0)) for i in range(1, 41)]
        rows = [t.frozen_args() for t in ts]  # the row at position k is round k + 1
        picked = [int(k) + 1 for k in np.sort(np.random.default_rng(5).choice(40, size=12, replace=False))]
        rate = sum(r % 2 != int(r % 3 == 0) for r in picked) / 12
        want = (rate, rate > 0.1, tuple(picked))
        assert check_phase(rows, 0.3, np.random.default_rng(5), threshold=0.1) == want
        assert check_phase(ts, 0.3, np.random.default_rng(5), threshold=0.1) == want
        assert rate > 0.1 and picked != list(range(1, 13))

    @pytest.mark.parametrize("fraction,n", [(0.5, 2), (0.25, 100), (0.94, 10)])
    def test_checking_fewer_rounds_without_an_rng_is_a_value_error(self, fraction, n):
        assert check_size(fraction, n) < n
        ts = [_fake_transcript(i, 0, 0) for i in range(1, n + 1)]
        with pytest.raises(ValueError, match="rng"):
            check_phase(ts, fraction, None)
        assert not any(t.events for t in ts)

    @pytest.mark.parametrize("fraction,n", [(1.0, 1), (1.0, 9), (0.95, 4), (0.01, 1), (0.96, 10)])
    def test_checking_every_round_draws_nothing(self, fraction, n):
        class Untouchable:
            def __getattribute__(self, name):
                raise AssertionError(f"check_phase touched rng.{name}")

        assert check_size(fraction, n) == n
        ts = [_fake_transcript(i, i % 2, int(i % 3 == 0)) for i in range(1, n + 1)]
        errors = sum(t.recovered != t.secret for t in ts)
        got = check_phase(ts, fraction, Untouchable())
        assert got == (errors / n, errors > 0, tuple(range(1, n + 1)))
        assert all(t.events[-1] == {"event": "check_announced", "round": t.round_index, "secret": t.secret} for t in ts)

    def test_check_event_reveals_the_secret(self):
        ts = [_fake_transcript(1, 1, 1)]
        check_phase(ts, 1.0, np.random.default_rng(0))
        ev = ts[0].events[-1]
        assert ev == {"event": "check_announced", "round": 1, "secret": 1}


class TestTranscriptSerialization:
    def test_jsonl_is_deterministic_and_ordered(self):
        ts = [_fake_transcript(1, 0, 0), _fake_transcript(2, 1, 1)]
        blob = transcripts_to_jsonl(ts)
        assert blob == transcripts_to_jsonl(ts)
        lines = blob.strip().split("\n")
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert list(first) == [
            "round", "mode", "hadamard", "target", "secret", "bob", "charlie",
            "recovered", "events",
        ]
        assert blob.startswith('{"round":1,')
        assert blob.endswith("\n")

    def test_a_transcript_equals_only_a_transcript(self):
        t = _fake_transcript(1, 0, 0)
        assert t == _fake_transcript(1, 0, 0) and t != _fake_transcript(1, 1, 1)
        # Against another type ``==`` defers to the other side, so it is False.
        assert t != t._fields() and t != 1

    def test_empty_transcript_list(self):
        assert transcripts_to_jsonl([]) == ""

    def test_eve_notes_never_serialize(self):
        t = _fake_transcript(1, 0, 0)
        t.eve_notes = {"secret_stash": 42}
        assert "secret_stash" not in transcripts_to_jsonl([t])
