"""Attack strategy tests.

The deterministic claims (the full schedule never errs and reads every
secret; the dishonest receiver decodes singles exactly) are checked by
exhaustive branch enumeration rather than sampling, so the assertions
are exact.
"""

import copy
import itertools

import numpy as np
import pytest

from ghzqss import attacks, harness, protocol, qsim
from ghzqss.attacks import (
    A1Attack,
    A2Attack,
    A2ProbeAttack,
    ChannelAttack,
    DishonestBobAttack,
    ProbeAttack,
    STRATEGIES,
    build_attack,
    eve_reconstruct,
)
from ghzqss.harness import Scenario, enumerate_branches, original_plans, revised_plans
from ghzqss.protocol import (
    CARRIER,
    W1,
    W2,
    EntangledPair,
    Rngs,
    RoundPlan,
    SinglePair,
    chi_state,
    revised_round,
)
from ghzqss.qsim import apply_cnot, apply_h, basis_state, equal_up_to_sign, state_from_terms, tensor
from ghzqss.replay import RoundTable

RH = 1.0 / np.sqrt(2.0)


def _rngs():
    return Rngs(
        bob=np.random.default_rng(0),
        charlie=np.random.default_rng(1),
        attack=np.random.default_rng(2),
    )


class TestBaseInterface:
    def test_passthrough_channel(self):
        attack = ChannelAttack()
        world = chi_state()
        out, to_bob, to_charlie = attack.intercept(world, 1, _rngs())
        assert out is world
        assert (to_bob, to_charlie) == (W1, W2)
        assert attack.sync_hadamard(world) is world
        assert attack.take_round_notes() is None

    def test_notes_drain_once(self):
        attack = A1Attack()
        attack.intercept(tensor(chi_state(), basis_state([(W1, 0), (W2, 0)])), 1, _rngs())
        assert attack.take_round_notes() is not None
        assert attack.take_round_notes() is None

    def test_only_the_dishonest_receiver_controls_bob(self):
        assert not ChannelAttack.controls_bob
        assert not A1Attack.controls_bob
        assert not A2Attack.controls_bob
        assert not A2ProbeAttack.controls_bob
        assert DishonestBobAttack.controls_bob

    def test_channel_strategies_do_not_implement_bob(self):
        with pytest.raises(NotImplementedError):
            A1Attack().bob_decode(chi_state(), 0, W1, _rngs())

    def test_build_attack(self):
        assert build_attack("none") is None
        assert isinstance(build_attack("a1"), A1Attack)
        assert isinstance(build_attack("a2"), A2Attack)
        assert isinstance(build_attack("a2-probe"), A2ProbeAttack)
        assert isinstance(build_attack("dishonest-bob"), DishonestBobAttack)
        with pytest.raises(ValueError, match="unknown strategy"):
            build_attack("a3")
        for name in (["a1"], {"a1": 1}, None, 1):
            with pytest.raises(ValueError, match="unknown strategy"):
                build_attack(name)
        assert STRATEGIES == ("none", "a1", "a2", "a2-probe", "dishonest-bob")


class TestRoundReplay:
    def test_a_recorded_round_replays_at_another_round_index(self):
        attack = DishonestBobAttack(np.random.default_rng(3))
        twin = DishonestBobAttack(np.random.default_rng(3))
        mark = attack.round_mark()
        world = tensor(chi_state(), basis_state([(W1, 0), (W2, 1)]))
        world, _, _ = attack.intercept(world, 4, _rngs())
        attack.bob_decode(world, 0, W1, _rngs())
        recorded = attack.recorded_round(mark, 4)
        hash(recorded)
        twin.replay_round(9, recorded)
        assert [r for r, _, _ in attack.inferred] == [4]
        assert twin.inferred == [(9, value, meaning) for _, value, meaning in attack.inferred]
        assert twin.records == attack.records

    def test_the_table_keys_each_round_on_what_it_reads(self, monkeypatch):
        seen = []
        inner = RoundTable.play_rounds

        def spy(self, script, node, plans, attack, first=1):
            rows = []
            for i, plan in enumerate(plans, first):  # one round at a time, from the node the round before led to
                seen.append((node.parity, protocol.MODE_NAMES[type(plan.mode)], plan.coin, attack.state))
                node, played = inner(self, script, node, [plan], attack, i)
                rows += played
            return node, rows

        monkeypatch.setattr(RoundTable, "play_rounds", spy)
        harness.run_simulation(harness.SimConfig(variant="original", strategy="a2", rounds=6, seed=4))
        # Rounds 1, 2, odd from 3 and even from 4: four distinct keys.
        both = ("e1", "e2")
        assert [(parity, mode, state) for parity, mode, _, state in seen] == [
            (0, "product", ()), (0, "pair", ("e1",)), (1, "product", both),
            (0, "pair", both), (1, "product", both), (0, "pair", both),
        ]
        # The coin tells the variants apart: None exactly in the alternating one.
        assert all(coin is None for _, _, coin, _ in seen)
        for strategy in ("a1", "a2-probe"):
            seen.clear()
            harness.run_simulation(harness.SimConfig(strategy=strategy, rounds=6, seed=4))
            assert [state for *_, state in seen] == [False] + [True] * 5
            assert all(type(coin) is int for _, _, coin, _ in seen)

    @pytest.mark.parametrize("strategy", ["a2", "a1", "a2-probe", "dishonest-bob"])
    def test_a_fresh_attack_given_the_state_plays_each_round_alike(self, strategy):
        # A round table node knows an attack only by its class and state.
        # So before each round of a cold session, a fresh attack given the
        # live attack's state must play that round exactly as the live one.
        cls = attacks.ATTACKS[strategy]
        for seed in range(4):
            coins, secrets, q1_bits, targets = np.random.default_rng(seed).integers(0, 2, size=(4, 10)).tolist()
            if cls.variant == "original":
                plans = original_plans(secrets)
            else:
                plans = revised_plans(coins, secrets, q1_bits, [(W1, W2)[t] for t in targets])
            streams = Rngs(*(np.random.default_rng([seed, k]) for k in range(3)))
            live = cls(streams.attack)
            world, parity = chi_state(), 0
            for plan in plans:
                fresh = cls()
                fresh.state = live.state
                played = []
                for attack in (live, fresh):
                    # Each play draws from its own copy of the streams; the
                    # coins share the attack stream, as in a session.
                    rngs = copy.deepcopy(streams)
                    attack.coins = rngs.attack
                    mark = attack.round_mark()
                    *after, t = harness._play_round(world, plan, parity, rngs, attack)
                    drawn = [gen.bit_generator.state for gen in (rngs.bob, rngs.charlie, rngs.attack)]
                    played.append((*after, t, attack.recorded_round(mark, plan.round_index), drawn, rngs))
                assert played[1][:5] == played[0][:5], (seed, plan)
                world, parity, *_, streams = played[0]


class TestPersistentProbes:
    def test_probe_strategies_differ_only_in_what_they_copy(self):
        assert (A1Attack.copies, A2ProbeAttack.copies) == ((W1,), (W1, W2))
        for cls in (A1Attack, A2ProbeAttack):
            assert issubclass(cls, ProbeAttack)
            assert {k for k in vars(cls) if not k.startswith("__")} == {"name", "copies"}

    @pytest.mark.parametrize("cls", [A1Attack, A2ProbeAttack])
    def test_single_probe_installed_once(self, cls):
        attack = cls()
        world = tensor(chi_state(), basis_state([(W1, 0), (W2, 0)]))
        world, _, _ = attack.intercept(world, 1, _rngs())
        assert world.labels.count("e") == 1
        # The probe survives between rounds; a second intercept reuses it.
        world, _, _ = attack.intercept(world, 2, _rngs())
        assert world.labels.count("e") == 1
        assert attack.inferred == []
        assert attack.records == []

    def test_one_cnot_versus_two(self):
        # Against |1>|1> transit qubits the single-coupling probe reads 1
        # while the pair-coupling probe reads the XOR, i.e. 0.
        base = tensor(basis_state([("a", 0), ("b", 0), ("c", 0)]), basis_state([(W1, 1), (W2, 1)]))
        w1, _, _ = A1Attack().intercept(base, 1, _rngs())
        assert equal_up_to_sign(
            w1, basis_state([("a", 0), ("b", 0), ("c", 0), (W1, 1), (W2, 1), ("e", 1)])
        )
        w2, _, _ = A2ProbeAttack().intercept(base, 1, _rngs())
        assert equal_up_to_sign(
            w2, basis_state([("a", 0), ("b", 0), ("c", 0), (W1, 1), (W2, 1), ("e", 0)])
        )

    def test_probe_entangles_with_the_carrier_pair_round(self):
        # Intercepting a no-coin entangled-pair round leaves the probe
        # correlated with the carrier: e tracks w1 branch by branch.
        from ghzqss.qsim import prepare_pair_qbar

        world = tensor(chi_state(), prepare_pair_qbar(0))
        world = apply_cnot(world, "a", W1)
        world, _, _ = A1Attack().intercept(world, 1, _rngs())
        want = state_from_terms(
            ("a", "b", "c", W1, W2, "e"),
            {"000000": 0.5, "000111": 0.5, "111101": 0.5, "111010": 0.5},
        )
        assert equal_up_to_sign(world, want)


class TestFullSchedule:
    def test_round_one_matches_the_copy_identity(self):
        for q1 in (0, 1):
            world = tensor(chi_state(), basis_state([(W1, q1), (W2, q1)]))
            world = apply_cnot(world, "a", W1)
            world = apply_cnot(world, "a", W2)
            world, to_bob, to_charlie = A2Attack().intercept(world, 1, _rngs())
            assert (to_bob, to_charlie) == (W1, W2)
            want = state_from_terms(
                ("a", "b", "c", "e1", W1, W2),
                {f"000{q1}{q1}{q1}": RH, f"111{1 - q1}{1 - q1}{1 - q1}": RH},
            )
            assert equal_up_to_sign(world, want)

    def test_rounds_must_arrive_in_order(self):
        attack = A2Attack()
        world = tensor(chi_state(), basis_state([(W1, 0), (W2, 0)]))
        with pytest.raises(ValueError, match="in order"):
            attack.intercept(world, 2, _rngs())
        attack.intercept(world, 1, _rngs())
        with pytest.raises(ValueError, match="in order"):
            attack.intercept(world, 3, _rngs())

    def test_sync_tracks_only_live_probes(self):
        attack = A2Attack()
        some = tensor(basis_state([("e1", 0)]), basis_state([("x", 1)]))
        assert attack.sync_hadamard(some) is some
        attack.state = ("e1",)
        out = attack.sync_hadamard(some)
        assert equal_up_to_sign(out, apply_h(some, "e1"))

    def test_exhaustive_four_rounds_no_errors_full_readout(self):
        for secrets in itertools.product((0, 1), repeat=4):
            scenario = Scenario("original", original_plans(secrets), strategy="a2")
            branches = enumerate_branches(scenario)
            assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
            for branch in branches:
                assert branch.errors == 0
                anchors = {1: secrets[0], 2: secrets[1]}
                guesses, missing = eve_reconstruct(branch.attack.inferred, anchors)
                assert missing == ()
                assert all(guesses[i + 1] == secrets[i] for i in range(4))
                # Rounds 3 and 4 each cost Eve measurements.
                assert len(branch.attack.records) == 3


class TestEveReconstruct:
    def test_both_anchor_classes_resolve(self):
        inferred = [
            (3, 1, "xor_with_round1_secret"),
            (4, 0, "xor_with_round2_secret"),
            (5, 0, "xor_with_round1_secret"),
        ]
        guesses, missing = eve_reconstruct(inferred, {1: 1, 2: 1})
        assert missing == ()
        assert guesses == {1: 1, 2: 1, 3: 0, 4: 1, 5: 1}

    def test_relative_round_can_anchor_its_class(self):
        inferred = [(3, 1, "xor_with_round1_secret"), (5, 0, "xor_with_round1_secret")]
        guesses, missing = eve_reconstruct(inferred, {3: 0})
        assert missing == ()
        assert guesses[1] == 1 and guesses[5] == 1

    def test_unanchored_classes_are_reported(self):
        inferred = [(3, 1, "xor_with_round1_secret"), (4, 0, "xor_with_round2_secret")]
        guesses, missing = eve_reconstruct(inferred, {})
        assert set(missing) == {"odd-class anchor", "even-class anchor"}
        assert guesses == {}

    def test_absolute_meaning_and_announced_precedence(self):
        guesses, missing = eve_reconstruct([(2, 1, "secret")], {2: 0})
        assert guesses == {2: 0}
        assert missing == ()
        guesses, _ = eve_reconstruct([(2, 1, "secret")], {})
        assert guesses == {2: 1}

    @pytest.mark.parametrize("secret", [7, -1, True, 1.0, np.int64(1), None], ids=repr)
    def test_an_announced_secret_is_the_int_0_or_1(self, secret):
        with pytest.raises(ValueError, match="ints 0 or 1"):
            eve_reconstruct([(3, 1, "xor_with_round1_secret")], {1: secret})


class TestDishonestBob:
    def test_substitute_is_delivered_to_charlie(self):
        attack = DishonestBobAttack(np.random.default_rng(3))
        world = tensor(chi_state(), basis_state([(W1, 0), (W2, 0)]))
        world, to_bob, to_charlie = attack.intercept(world, 1, _rngs())
        assert to_bob == W1
        assert to_charlie == "w2p"
        assert "w1p" in world.labels and "w2p" in world.labels

    def test_decode_requires_intercept_first(self):
        with pytest.raises(ValueError, match="before intercept"):
            DishonestBobAttack().bob_decode(chi_state(), 0, W1, _rngs())

    @pytest.mark.parametrize("attack_seed", range(6))
    @pytest.mark.parametrize("q1,q2", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_target_w1_rounds_decode_exactly_and_leak(self, attack_seed, q1, q2):
        plan = RoundPlan(1, SinglePair(q1, q2, W1), alice_hadamard=0)
        branches = enumerate_branches(
            Scenario("revised", (plan,), strategy="dishonest-bob", attack_seed=attack_seed)
        )
        assert len(branches) == 1
        branch = branches[0]
        assert abs(branch.probability - 1.0) < 1e-9
        assert branch.errors == 0
        assert branch.attack.inferred == [(1, q1 ^ q2, "secret")]

    @pytest.mark.parametrize("attack_seed", range(6))
    def test_target_w2_rounds_leak_but_flip_a_coin(self, attack_seed):
        plan = RoundPlan(1, SinglePair(1, 0, W2), alice_hadamard=0)
        branches = enumerate_branches(
            Scenario("revised", (plan,), strategy="dishonest-bob", attack_seed=attack_seed)
        )
        assert len(branches) == 2
        err = sum(b.probability for b in branches if b.errors)
        assert abs(err - 0.5) < 1e-9
        for branch in branches:
            assert branch.attack.inferred == [(1, 1, "secret")]

    @pytest.mark.parametrize("attack_seed", range(6))
    def test_pair_rounds_are_a_blind_bluff(self, attack_seed):
        plan = RoundPlan(1, EntangledPair(1), alice_hadamard=1)
        branches = enumerate_branches(
            Scenario("revised", (plan,), strategy="dishonest-bob", attack_seed=attack_seed)
        )
        err = sum(b.probability for b in branches if b.errors)
        assert abs(err - 0.5) < 1e-9
        for branch in branches:
            assert branch.attack.inferred == []


class TestPersistentProbeDynamics:
    """Exact two-round fingerprints of the coin-flip-variant probes."""

    def _two_round_error(self, strategy, target):
        plans = revised_plans((1, 1), (0, 0), q1_bits=(0, 0), targets=(W1, target))
        branches = enumerate_branches(Scenario("revised", plans, strategy=strategy))
        assert abs(sum(b.probability for b in branches) - 1.0) < 1e-9
        return sum(
            b.probability
            for b in branches
            if b.transcripts[1].recovered != b.transcripts[1].secret
        )

    def test_one_cnot_probe_errs_on_half_the_w1_rounds(self):
        assert abs(self._two_round_error("a1", W1) - 0.5) < 1e-9
        assert self._two_round_error("a1", W2) < 1e-9

    def test_two_cnot_probe_errs_on_half_of_either_target(self):
        assert abs(self._two_round_error("a2-probe", W1) - 0.5) < 1e-9
        assert abs(self._two_round_error("a2-probe", W2) - 0.5) < 1e-9

    def test_sessions_split_into_clean_and_cascading_halves(self):
        # Six mixed rounds: the branch measure concentrates on exactly two
        # error patterns, the all-clear one and one deterministic cascade,
        # each carrying probability one half.
        plans = revised_plans(
            (1,) * 6, (0, 1, 1, 0, 1, 0), q1_bits=(0,) * 6,
            targets=(W1, W1, W1, W2, W1, W1),
        )
        for strategy in ("a1", "a2-probe"):
            buckets = {}
            for b in enumerate_branches(Scenario("revised", plans, strategy=strategy)):
                key = tuple(
                    t.round_index for t in b.transcripts if t.recovered != t.secret
                )
                buckets[key] = buckets.get(key, 0.0) + b.probability
            assert abs(buckets.pop(()) - 0.5) < 1e-9
            assert len(buckets) == 1
            assert abs(next(iter(buckets.values())) - 0.5) < 1e-9


class TestMeasureAndDrop:
    """Measured transit qubits leave the world with their measurement;
    only qubits nobody measured go through ``discard``, which keeps its
    definiteness check."""

    @pytest.fixture
    def discarded(self, monkeypatch):
        labels = []
        real = qsim.discard

        def counting(state, label):
            labels.append(label)
            return real(state, label)

        for module in (qsim, protocol, attacks):
            monkeypatch.setattr(module, "discard", counting, raising=False)
        return labels

    PLANS = (
        RoundPlan(1, EntangledPair(1), alice_hadamard=1),
        RoundPlan(1, SinglePair(1, 0, W1), alice_hadamard=0),
        RoundPlan(1, SinglePair(0, 1, W2), alice_hadamard=0),
    )

    def test_honest_rounds_discard_nothing(self, discarded):
        for plan in self.PLANS:
            world, t = revised_round(chi_state(), plan, 0, _rngs())
            assert world.labels == CARRIER and t.recovered == t.secret
        assert discarded == []

    def test_a_gate2_scenario_discards_nothing(self, discarded, monkeypatch):
        # A cold table, so that every round is played on the statevector path.
        monkeypatch.setattr(harness, "ROUND_TABLE", RoundTable(harness._play_round))
        branches = enumerate_branches(Scenario("original", original_plans((1, 0, 1, 1, 0, 1)), strategy="a2"))
        assert len(branches) == 32 and all(b.errors == 0 for b in branches)
        assert discarded == []

    def test_a_dishonest_round_discards_only_the_kept_substitute(self, discarded):
        for plan in self.PLANS:
            discarded.clear()
            world, _ = revised_round(chi_state(), plan, 0, _rngs(), DishonestBobAttack())
            assert world.labels == CARRIER
            assert discarded == ["w1p"]

    def test_an_entangled_substitute_is_still_refused(self):
        class EntanglingBob(DishonestBobAttack):
            def intercept(self, world, round_index, rngs):
                world, to_bob, to_charlie = super().intercept(world, round_index, rngs)
                return apply_cnot(world, "a", "w1p"), to_bob, to_charlie

        plan = RoundPlan(1, SinglePair(1, 0, W1), alice_hadamard=0)
        with pytest.raises(ValueError, match="'w1p' is not definite"):
            revised_round(chi_state(), plan, 0, _rngs(), EntanglingBob())
