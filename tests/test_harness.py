"""Session driver tests: Monte Carlo reproducibility, enumeration, sweeps."""

import dataclasses
import gc
import inspect
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
import types
from fractions import Fraction

import numpy as np
import pytest

import ghzqss.harness as harness
import ghzqss.replay as replay
from ghzqss.replay import MAX_TABLE_ENTRIES, RoundTable, Script
from ghzqss.attacks import ATTACKS, ChannelAttack, build_attack
from ghzqss.harness import (
    BLOCK_WORDS,
    COMPATIBLE,
    MAX_ENUM_ROUNDS,
    Branch,
    PCG64Stream,
    Scenario,
    SimConfig,
    SimReport,
    derived_seed,
    enumerate_branches,
    original_plans,
    revised_plans,
    run_grid,
    run_simulation,
    stream,
)
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
    chi_state,
    g_state,
    hadamard_layer,
    original_round,
    revised_round,
    session_transcripts,
    transcripts_to_jsonl,
)
from ghzqss.qsim import apply_h, basis_state, discard, equal_up_to_sign, measure, state_from_terms, tensor


class TestSeeding:
    def test_streams_are_reproducible_and_distinct(self):
        a = stream(5, 0).random(8)
        b = stream(5, 0).random(8)
        c = stream(5, 1).random(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derived_seed_is_stable(self):
        assert derived_seed(1, 2, 3) == derived_seed(1, 2, 3)
        assert derived_seed(1, 2, 3) != derived_seed(1, 2, 4)

    # Seeds at the edges of numpy's uint32 words and of its pool of four.
    EDGES = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 96, 2 ** 128 - 1, 2 ** 128 + 7, 2 ** 200 + 3)

    def test_a_stream_is_numpys_spawned_seed_sequence(self):
        rnd = random.Random(33)
        seeds = [*self.EDGES, np.uint64(2 ** 64 - 1), np.int64(7)]
        seeds += [rnd.getrandbits(bits) for bits in (32, 64) for _ in range(500)]
        for seed in seeds:
            for k in range(5):
                got = stream(seed, k).bit_generator
                want = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))).bit_generator
                assert got.state == want.state, (seed, k)
                assert got.random_raw(3).tolist() == want.random_raw(3).tolist(), (seed, k)

    def test_a_derived_seed_is_numpys_first_generated_word(self):
        rnd = random.Random(33)
        cases = [(0,), (0, 0, 0), (1, 2, 3), (2 ** 32, 0, 1), (5, 2 ** 40 + 3, 0), (np.int64(3), 2 ** 96, 2 ** 32 - 1)]
        cases += [tuple(rnd.getrandbits(rnd.choice((0, 8, 32, 33, 64, 130))) for _ in range(rnd.randrange(1, 5)))
                  for _ in range(300)]
        for parts in cases:
            assert derived_seed(*parts) == int(np.random.SeedSequence(entropy=parts).generate_state(1)[0]), parts

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 7])
    def test_a_tapes_coins_are_those_of_default_rng(self, seed):
        tape, want, n = harness._Tape(seed), np.random.default_rng(seed), 3 * BLOCK_WORDS  # past the first block
        assert [tape.bit() for _ in range(n)] == [int(want.integers(0, 2)) for _ in range(n)]

    @pytest.mark.parametrize("negative", [-1, -(2 ** 40), np.int64(-3)], ids=["int", "wide", "numpy"])
    def test_a_negative_seed_raises_as_numpy_does(self, negative):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence(entropy=negative, spawn_key=(0,))
        for make in (
            lambda: stream(negative, 0),
            lambda: stream(0, negative),
            lambda: derived_seed(1, negative),
            lambda: harness._Tape(negative).bit(),
        ):
            with pytest.raises(ValueError, match="non-negative"):
                make()

    def test_numpy_random_stays_unloaded_until_a_stream_is_opened(self):
        # A fresh interpreter: the import and a coin-free enumeration leave
        # numpy.random unloaded, and the first stream loads it.
        child = "\n".join((
            "import sys, ghzqss.cli",
            "from ghzqss.harness import Scenario, enumerate_branches, original_plans, stream",
            "assert 'numpy.random' not in sys.modules, 'import'",
            "branches = enumerate_branches(Scenario('original', original_plans((1, 0, 1, 1, 0, 0)), strategy='a2'))",
            "assert len(branches) == 32 and 'numpy.random' not in sys.modules, 'enumeration'",
            "stream(1, 0)",
            "assert 'numpy.random' in sys.modules, 'stream'",
        ))
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(harness.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr


def _mixed_draws(rnd, n):
    """``n`` scalar draws, "r" for ``random()`` and "c" for ``integers(0, 2)``,
    at a coin share that is itself random."""
    share = rnd.random()
    return ["c" if rnd.random() < share else "r" for _ in range(n)]


def _draw(gen, kind):
    return gen.random() if kind == "r" else gen.integers(0, 2)


# Uses of a stream that a PCG64Stream refuses, and what each raises: a
# call it does not decode is a TypeError, a method it lacks an AttributeError.
FOREIGN = {
    "normal()": (lambda gen: gen.normal(), AttributeError),
    "integers(0,4)": (lambda gen: gen.integers(0, 4), TypeError),
    "random(3)": (lambda gen: gen.random(3), TypeError),
    "integers(size=3)": (lambda gen: gen.integers(0, 2, size=3), TypeError),
    "bit_generator": (lambda gen: gen.bit_generator.random_raw(), AttributeError),
    "integers(low=0,high=2)": (lambda gen: gen.integers(low=0, high=2), TypeError),
    "random(size=None)": (lambda gen: gen.random(size=None), TypeError),
}


class TestPCG64Stream:
    def test_mixed_draws_equal_numpy_across_blocks(self):
        rnd = random.Random(20140905)
        for _ in range(60):
            seed = rnd.randrange(2 ** 64)
            kinds = _mixed_draws(rnd, rnd.randrange(1, 6 * BLOCK_WORDS))
            want = np.random.default_rng(seed)
            got = PCG64Stream(seed)
            assert [_draw(got, k) for k in kinds] == [_draw(want, k) for k in kinds], seed

    def test_the_bit_draw_equals_integers_draw_for_draw(self):
        # "b" draws bit() on the stream and integers(0, 2) on numpy, across
        # block boundaries and with a half-word pending or not.
        rnd = random.Random(20260219)
        draw = {"r": lambda gen: gen.random(), "c": lambda gen: gen.integers(0, 2)}
        for _ in range(60):
            seed = rnd.randrange(2 ** 64)
            mixed = _mixed_draws(rnd, rnd.randrange(1, 6 * BLOCK_WORDS))
            kinds = [k if k == "r" or rnd.random() < 0.5 else "b" for k in mixed]
            want = np.random.default_rng(seed)
            got = PCG64Stream(seed)
            assert [got.bit() if k == "b" else draw[k](got) for k in kinds] == [
                draw["c" if k == "b" else k](want) for k in kinds
            ], seed

    @pytest.mark.parametrize("draw", ["random", "integers", "bit"])
    def test_every_draw_takes_exact_positional_arguments(self, draw):
        # A draw with *args or **kwargs builds its arguments on every call,
        # which CPython 3.11 cannot inline.
        kinds = {p.kind for p in inspect.signature(getattr(PCG64Stream, draw)).parameters.values()}
        assert kinds <= {inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD}, kinds

    @pytest.mark.parametrize("foreign", FOREIGN)
    def test_a_foreign_use_raises_and_draws_nothing(self, foreign):
        call, error = FOREIGN[foreign]
        rnd = random.Random(foreign)
        # Both positions lie inside the second block; after the coin a
        # half-word is pending.
        for prefix in (["r"] * (BLOCK_WORDS + 5), ["r"] * (BLOCK_WORDS + 5) + ["c"]):
            seed = rnd.randrange(2 ** 64)
            tail = ["r", "c"] + _mixed_draws(rnd, 2 * BLOCK_WORDS)
            want = np.random.default_rng(seed)
            got = PCG64Stream(seed)
            assert [_draw(got, k) for k in prefix] == [_draw(want, k) for k in prefix]
            with pytest.raises(error):
                call(got)
            assert [_draw(got, k) for k in tail] == [_draw(want, k) for k in tail], (seed, prefix[-1])


class TestStreamSetUp:
    def test_a_stream_opens_its_generator_at_its_first_word(self, monkeypatch):
        real = harness.pcg64
        opened = []
        monkeypatch.setattr(harness, "pcg64", lambda seed, *key: opened.append(seed) or real(seed, *key))
        rnd = random.Random(16)
        for _ in range(20):
            seed = rnd.randrange(2 ** 64)
            kinds = _mixed_draws(rnd, rnd.randrange(1, 3 * BLOCK_WORDS))
            opened.clear()
            got = PCG64Stream(seed)
            assert opened == []
            want = np.random.default_rng(seed)
            assert [_draw(got, k) for k in kinds] == [_draw(want, k) for k in kinds], seed
            assert opened == [seed]

    def test_a_session_given_its_secrets_opens_no_alice_stream(self, monkeypatch):
        # The alternating variant with every secret given draws nothing
        # from Alice, and a check of every round draws no check stream.
        real = harness.pcg64
        opened = []
        monkeypatch.setattr(harness, "pcg64", lambda seed, k: opened.append(k) or real(seed, k))
        cfg = SimConfig(variant="original", rounds=8, seed=2, secret_bits="01101001", check_fraction=1.0)
        want = _reference_session(cfg)[0]
        opened.clear()
        assert run_simulation(cfg) == want
        assert opened == [harness.STREAM_BOB]


def _alice_reference(cfg):
    """The plans of a session drawn from numpy's own Alice generator: per
    round the secret (``integers(0, 2)``, unless given), then in the
    coin-flip variant the coin (``random() < hadamard_bias``) and for a
    single encoding ``q1`` (``integers(0, 2)``) and the target
    (``random() < 0.5`` for w1)."""
    alice = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(harness.STREAM_ALICE,)))
    parity, plans = 0, []
    for i in range(1, cfg.rounds + 1):
        q = int(alice.integers(0, 2)) if cfg.secret_bits is None else int(cfg.secret_bits[i - 1])
        if cfg.variant == "original":
            plans.append((i, ProductPair(q) if i % 2 else EntangledPair(q), None))
            continue
        coin = int(alice.random() < cfg.hadamard_bias)
        if coin ^ parity:
            plans.append((i, EntangledPair(q), coin))
        else:
            q1 = int(alice.integers(0, 2))
            plans.append((i, SinglePair(q1, q1 ^ q, W1 if alice.random() < 0.5 else W2), coin))
        parity ^= coin
    return plans


class TestAlicePlans:
    def test_a_session_plays_alice_draws_in_the_documented_order(self, monkeypatch):
        played = []

        def spy(table, script, node, plans, attack, first=1):
            played.append([(i, c.mode, c.coin) for i, c in enumerate(plans, first)])
            return loop(table, script, node, plans, attack, first)

        loop = RoundTable.play_rounds
        monkeypatch.setattr(RoundTable, "play_rounds", spy)
        rnd = random.Random(64)
        for variant in ("original", "revised"):
            for seed in range(200):
                bits = "".join(rnd.choice("01") for _ in range(64))
                for kwargs in (dict(hadamard_bias=0.5), dict(hadamard_bias=0.3), dict(secret_bits=bits)):
                    cfg = SimConfig(variant=variant, rounds=64, seed=seed, **kwargs)
                    played.clear()
                    harness._play_session(cfg)
                    assert played == [_alice_reference(cfg)], (variant, seed, kwargs)

    @pytest.mark.parametrize("variant", ["original", "revised"])
    @pytest.mark.parametrize("bias", [0.0, 1.0])
    def test_sessions_at_a_certain_coin_play_alice_draws(self, monkeypatch, variant, bias):
        played = []

        def spy(table, script, node, plans, attack, first=1):
            played.append([(i, c.mode, c.coin) for i, c in enumerate(plans, first)])
            return loop(table, script, node, plans, attack, first)

        loop = RoundTable.play_rounds
        monkeypatch.setattr(RoundTable, "play_rounds", spy)
        for seed in range(40):
            cfg = SimConfig(variant=variant, rounds=64, seed=seed, hadamard_bias=bias)
            played.clear()
            harness._play_session(cfg)
            assert played == [_alice_reference(cfg)], seed
            if variant == "revised":
                assert {coin for _, _, coin in played[0]} == {int(bias)}

    def test_a_session_passes_only_draws_that_inline(self, monkeypatch):
        # A lambda around a draw adds a Python frame per call, and a C-level
        # wrapper (a functools.partial, a map over iter(random, None)) a
        # fresh interpreter frame.  A session passes Alice's stream methods
        # themselves; a given secret reads the string in C and calls no Python.
        passed = []

        def spy(variant, rounds, secret, **draws):
            passed.append(dict(draws, secret=secret))
            return plans(variant, rounds, secret, **draws)

        plans = harness._round_plans
        monkeypatch.setattr(harness, "_round_plans", spy)
        for variant in ("original", "revised"):
            for kwargs in (dict(), dict(hadamard_bias=0.3), dict(secret_bits="0110")):
                passed.clear()
                cfg = SimConfig(variant=variant, rounds=4, seed=1, **kwargs)
                harness._play_session(cfg)
                (draws,) = passed
                assert draws.pop("bias") == cfg.hadamard_bias
                assert set(draws) == {"secret", "coin", "q1", "w1"}
                if "secret_bits" in kwargs:
                    secret = draws.pop("secret")
                    assert type(secret.__self__) is map and secret.__name__ == "__next__", (variant, kwargs)
                for name, draw in draws.items():
                    assert type(draw) is types.MethodType, (variant, kwargs, name, draw)
                    assert type(draw.__self__) is PCG64Stream, (variant, kwargs, name, draw)

    def test_the_class_table_and_the_plan_lookup_agree(self):
        alternating, pairs, singles = harness.PLAN_CLASSES
        classes = [*itertools.chain.from_iterable(alternating), *itertools.chain.from_iterable(pairs)]
        classes += [c for by_q in singles for by_q1 in by_q for by_target in by_q1 for c in by_target]
        assert len({id(c) for c in classes}) == len(classes) == 24
        described = set()
        for c in classes:
            index = 2 if c.coin is None and type(c.mode) is EntangledPair else 1
            assert harness._class_of(RoundPlan(index, c.mode, c.coin)) is c
            described.add((type(c.mode), tuple(vars(c.mode).values()), c.coin))
        assert len(described) == 24


def _leaves(table) -> list:
    return [table] if isinstance(table, harness.PlanClass) else [c for sub in table for c in _leaves(sub)]


@pytest.mark.parametrize("plan_class", _leaves(harness.PLAN_CLASSES), ids=lambda c: f"{c.mode}-{c.coin}")
def test_every_plan_class_is_the_class_of_its_plans(plan_class):
    # Alternating products play in odd rounds and pairs in even ones; a coin-flip class in any.
    mode, coin = plan_class.mode, plan_class.coin
    if coin is None:
        indices = range(2 if type(mode) is EntangledPair else 1, MAX_ENUM_ROUNDS + 1, 2)
    else:
        indices = range(1, MAX_ENUM_ROUNDS + 1)
    for index in indices:
        assert harness._class_of(RoundPlan(index, mode, coin)) is plan_class


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(variant="bogus"), "unknown variant"),
            (dict(variant="revised", strategy="a2"), "not defined"),
            (dict(variant="original", strategy="a1"), "not defined"),
            (dict(variant="original", strategy="a2-probe"), "not defined"),
            (dict(variant="original", strategy="dishonest-bob"), "not defined"),
            (dict(strategy="unheard-of"), "not defined"),
            (dict(rounds=0), "at least 1"),
            (dict(check_fraction=0.0), "check_fraction"),
            (dict(check_fraction=1.2), "check_fraction"),
            (dict(hadamard_bias=-0.1), "hadamard_bias"),
            (dict(hadamard_bias=1.5), "hadamard_bias"),
            (dict(rounds=3, secret_bits="01"), "3 rounds"),
            (dict(rounds=3, secret_bits="01x"), "only 0 and 1"),
            (dict(detect_threshold=float("nan")), "detect_threshold"),
            (dict(detect_threshold=float("inf")), "detect_threshold"),
            (dict(detect_threshold=-1.0), "detect_threshold"),
            (dict(seed=-1), "seed must be at least 0"),
            (dict(seed=1.5), "seed must be an integer"),
            (dict(rounds=2.5), "rounds must be an integer"),
            (dict(seed=True), "seed must be an integer"),
            (dict(rounds=True), "rounds must be an integer"),
            (dict(check_fraction=True), "check_fraction must be a number"),
            (dict(hadamard_bias=True), "hadamard_bias must be a number"),
            (dict(detect_threshold=True), "detect_threshold must be a number"),
            (dict(check_fraction="0.5"), "check_fraction must be a number"),
            (dict(hadamard_bias="0.5"), "hadamard_bias must be a number"),
            (dict(rounds=1, secret_bits=1), "secret_bits must be a string"),
            (dict(rounds=sys.maxsize + 1), "rounds must be at most"),
        ],
    )
    def test_bad_configs_are_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SimConfig(**kwargs)

    def test_numpy_integers_are_kept_as_python_ints(self):
        cfg = SimConfig(rounds=np.int64(8), seed=np.uint32(3))
        assert (type(cfg.rounds), type(cfg.seed)) == (int, int)
        want = json.dumps(run_simulation(SimConfig(rounds=8, seed=3)).to_dict())
        assert json.dumps(run_simulation(cfg).to_dict()) == want

    def test_numpy_floats_are_kept_as_python_floats(self):
        cfg = SimConfig(
            rounds=8, seed=3, check_fraction=np.float32(0.25), hadamard_bias=np.float16(0.5),
            detect_threshold=np.float64(0.0),
        )
        names = ("check_fraction", "hadamard_bias", "detect_threshold")
        assert [type(getattr(cfg, name)) for name in names] == [float] * 3
        want = json.dumps(run_simulation(SimConfig(rounds=8, seed=3)).to_dict())
        assert json.dumps(run_simulation(cfg).to_dict()) == want

    def test_compatibility_table(self):
        assert COMPATIBLE["original"] == ("none", "a2")
        assert COMPATIBLE["revised"] == ("none", "a1", "a2-probe", "dishonest-bob")
        for variant, strategies in COMPATIBLE.items():
            for s in strategies:
                SimConfig(variant=variant, strategy=s)


class TestRunSimulation:
    def test_runs_are_byte_deterministic(self):
        cfg = SimConfig(variant="revised", strategy="dishonest-bob", rounds=60, seed=9)
        outs = []
        for _ in range(2):
            transcripts = []
            report = run_simulation(cfg, transcripts_out=transcripts)
            outs.append((report.to_dict(), transcripts_to_jsonl(transcripts)))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("variant", ["original", "revised"])
    def test_honest_sessions_never_err(self, variant):
        cfg = SimConfig(variant=variant, strategy="none", rounds=400, seed=21)
        report = run_simulation(cfg)
        assert report.honest_error_rate == 0.0
        assert not report.detected
        assert report.eve_accuracy is None
        assert report.rounds_run == 400

    def test_checked_round_count_follows_the_fraction(self):
        for fraction, rounds in ((0.25, 80), (1.0, 31), (0.013, 50)):
            cfg = SimConfig(rounds=rounds, seed=2, check_fraction=fraction)
            report = run_simulation(cfg)
            assert report.checked_rounds == max(1, round(fraction * rounds))

    def test_preset_secrets_are_used(self):
        bits = "0110101001"
        transcripts = []
        run_simulation(SimConfig(rounds=10, seed=4, secret_bits=bits), transcripts)
        assert "".join(str(t.secret) for t in transcripts) == bits

    def test_mode_breakdown_partitions_the_rounds(self):
        report = run_simulation(SimConfig(rounds=300, seed=8))
        assert sum(slot["rounds"] for slot in report.mode_breakdown.values()) == 300
        assert set(report.mode_breakdown) <= {"pair", "single_w1", "single_w2"}
        original = run_simulation(SimConfig(variant="original", rounds=11, seed=8))
        assert original.mode_breakdown["product"]["rounds"] == 6
        assert original.mode_breakdown["pair"]["rounds"] == 5

    def test_hadamard_bias_extremes(self):
        all_single = run_simulation(SimConfig(rounds=50, seed=3, hadamard_bias=0.0))
        assert "pair" not in all_single.mode_breakdown
        # A coin of 1 every round alternates the carrier form, so the
        # modes alternate pair/single rather than staying entangled.
        alternating = run_simulation(SimConfig(rounds=50, seed=3, hadamard_bias=1.0))
        assert alternating.mode_breakdown["pair"]["rounds"] == 25

    def test_full_schedule_reads_everything_without_detection(self):
        cfg = SimConfig(variant="original", strategy="a2", rounds=80, seed=13, check_fraction=0.5)
        report = run_simulation(cfg)
        assert report.honest_error_rate == 0.0
        assert not report.detected
        assert report.eve_accuracy == 1.0

    def test_passive_probes_are_not_scored(self):
        report = run_simulation(SimConfig(strategy="a1", rounds=30, seed=1))
        assert report.eve_accuracy is None
        report = run_simulation(SimConfig(strategy="a2-probe", rounds=30, seed=1))
        assert report.eve_accuracy is None

    def test_eve_is_scored_against_the_announced_rounds(self):
        # Secrets 0, 1, 1.  Rounds 1 and 2 anchor a relative readout, and
        # an announced round is known outright even where the readout is
        # wrong; an absolute readout scores its inferences alone.
        ts = [RoundTranscript(i, "pair", 1, None, q, 0, q, q) for i, q in ((1, 0), (2, 1), (3, 1))]
        relative = types.SimpleNamespace(readout="relative", inferred=[(3, 0, "xor_with_round1_secret")])
        assert harness._score_eve(relative, ts, ()) == 2 / 3
        assert harness._score_eve(relative, ts, (3,)) == 1.0
        absolute = types.SimpleNamespace(readout="absolute", inferred=[(1, 0, "secret")])
        assert harness._score_eve(absolute, ts, (2, 3)) == 1 / 3
        assert harness._score_eve(types.SimpleNamespace(readout=None), ts, (1,)) is None

    def test_dishonest_receiver_profile(self):
        cfg = SimConfig(strategy="dishonest-bob", rounds=900, seed=5, check_fraction=1.0)
        report = run_simulation(cfg)
        breakdown = report.mode_breakdown
        assert breakdown["single_w1"]["error_rate"] == 0.0
        assert abs(breakdown["single_w2"]["error_rate"] - 0.5) < 0.12
        assert abs(breakdown["pair"]["error_rate"] - 0.5) < 0.12
        assert report.detected
        # He names every single-round secret and none of the pair rounds.
        singles = breakdown["single_w1"]["rounds"] + breakdown["single_w2"]["rounds"]
        assert abs(report.eve_accuracy - singles / 900) < 0.12

    def test_detect_threshold_can_tolerate_errors(self):
        cfg = SimConfig(
            strategy="dishonest-bob", rounds=200, seed=5, check_fraction=1.0,
            detect_threshold=0.9,
        )
        report = run_simulation(cfg)
        assert report.honest_error_rate > 0.0
        assert not report.detected


def _live_streams(seed, make=np.random.default_rng):
    """Three streams of ``make``, numpy's own or ``PCG64Stream``s, seeded from ``seed``."""
    return tuple(make(seed + k) for k in range(3))


class TestScript:
    @pytest.mark.parametrize("make", [np.random.default_rng, PCG64Stream], ids=["Generator", "PCG64Stream"])
    def test_live_draws_past_the_prefix_equal_numpy_and_are_logged(self, make):
        prefix = [(1, 1), (0, 0.25)]
        script = Script(_live_streams(40, make))
        script.reset(list(prefix))
        rngs = (script.rngs.bob, script.rngs.charlie, script.rngs.attack)
        assert rngs[0].integers(0, 2) == 1 and rngs[0].random() == 0.25
        want = _live_streams(40)
        pick = random.Random(3)
        expected = []
        for _ in range(300):
            k, coin = pick.randrange(3), pick.random() < 0.5
            got = rngs[k].integers(0, 2) if coin else rngs[k].random()
            value = want[k].integers(0, 2) if coin else want[k].random()
            assert got == value
            expected.append((2 * k + coin, value))
        assert script.log == prefix + expected

    def test_a_prefix_in_another_order_raises(self):
        script = Script(_live_streams(5, PCG64Stream))
        script.reset([(1, 0)])
        with pytest.raises(RuntimeError, match="another order"):
            script.rngs.bob.random()

    @pytest.mark.parametrize(
        "use",
        [
            lambda gen: gen.random(3),
            lambda gen: gen.random(size=2),
            lambda gen: gen.integers(0, 4),
            lambda gen: gen.integers(0, 2, size=3),
            lambda gen: gen.standard_normal(),
        ],
        ids=["random-n", "random-size", "integers-0-4", "integers-size", "other-method"],
    )
    def test_any_other_use_raises_and_logs_nothing(self, use):
        script = Script(_live_streams(9, PCG64Stream))
        want = _live_streams(9)
        assert script.rngs.charlie.random() == want[1].random()
        with pytest.raises(TypeError, match="only random"):
            use(script.rngs.charlie)
        assert [code for code, _ in script.log] == [2]
        # Nothing was drawn either.
        assert script.rngs.charlie.random() == want[1].random()

    def test_sessions_leave_no_reference_cycle(self, table):
        # A script kept alive by a cycle with its taps would leave every
        # session's streams to the cyclic GC, which then runs about four
        # times as often in a sweep of short sessions.
        gc.collect()
        gc.disable()
        try:
            for variant, strategy in PAIRS:
                run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=40, seed=3))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumeration:
    def test_honest_scenario_forks_only_on_pair_rounds(self):
        plans = revised_plans((1, 1, 0, 1), (0, 1, 1, 0), targets=(W1, W1, W2, W1))
        branches = enumerate_branches(Scenario("revised", plans))
        # Rounds 1 and 4 are entangled (coin^parity == 1); Bob's readout
        # forks each of them, singles are deterministic.
        assert len(branches) == 4
        for branch in branches:
            assert abs(branch.probability - 0.25) < 1e-9
            assert branch.errors == 0
            assert branch.world.labels == CARRIER
        assert sum(b.probability for b in branches) == 1.0

    def test_final_world_matches_the_carrier_form(self):
        plans = revised_plans((1, 0), (1, 0), targets=(W1, W2))
        for branch in enumerate_branches(Scenario("revised", plans)):
            assert equal_up_to_sign(branch.world, g_state())  # one coin flip happened

    @pytest.mark.parametrize(
        "variant,strategy,plans",
        [
            ("original", "a2", None),
            ("revised", "a1", None),
            ("revised", "a2-probe", None),
            ("revised", "dishonest-bob", None),
        ],
    )
    def test_branch_probabilities_sum_to_one(self, variant, strategy, plans):
        if variant == "original":
            plans = original_plans((1, 0, 1, 0))
        else:
            plans = revised_plans((1, 1, 0, 1), (0, 1, 1, 0), targets=(W1, W2, W2, W1))
        branches = enumerate_branches(Scenario(variant, plans, strategy=strategy))
        assert sum(b.probability for b in branches) == 1.0

    def test_enumeration_is_exhaustive_for_the_full_schedule(self):
        # Odd rounds decode deterministically under the schedule; round 2
        # forks once (Bob's readout) and even rounds from 4 fork twice,
        # so four rounds give 8 equal branches.
        branches = enumerate_branches(
            Scenario("original", original_plans((1, 1, 0, 1)), strategy="a2")
        )
        assert len(branches) == 8
        for b in branches:
            assert abs(b.probability - 1.0 / 8) < 1e-9

    def test_a_branch_sets_up_its_coin_generator_at_its_first_coin(self, monkeypatch):
        built = []
        real = harness._words  # the generator reads its seed's words when it is set up
        monkeypatch.setattr(harness, "_words", lambda seed, *pad: built.append(seed) or real(seed, *pad))
        plans = revised_plans((1, 1, 0, 1), (0, 1, 1, 0), targets=(W1, W2, W2, W1))
        assert enumerate_branches(Scenario("revised", plans, strategy="a1"))
        assert built == []  # a probe draws no coin
        branches = enumerate_branches(Scenario("revised", plans, strategy="dishonest-bob", attack_seed=5))
        assert len(branches) > 1 and built == [5]  # one generator per enumeration

    def test_round_cap(self):
        plans = original_plans([0] * (MAX_ENUM_ROUNDS + 1))
        with pytest.raises(ValueError, match="capped"):
            Scenario("original", plans)

    def test_a_scenario_keeps_the_plans_it_checked(self):
        plans = list(original_plans((1, 0, 1)))
        scenario = Scenario("original", plans)
        assert hash(scenario) == hash(Scenario("original", original_plans((1, 0, 1))))
        plans.extend(original_plans([0] * MAX_ENUM_ROUNDS))
        assert scenario.plans == tuple(plans[:3])

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Scenario("revised", ())
        bad_index = (RoundPlan(2, EntangledPair(0), alice_hadamard=1),)
        with pytest.raises(ValueError, match="round_index"):
            Scenario("revised", bad_index)
        with pytest.raises(ValueError, match="not defined"):
            Scenario("revised", original_plans((0,)), strategy="a2")
        mismatched = (RoundPlan(1, EntangledPair(0), alice_hadamard=0),)
        with pytest.raises(ValueError, match="against the carrier form"):
            Scenario("revised", mismatched)
        no_coin = (RoundPlan(1, EntangledPair(0)),)
        with pytest.raises(ValueError, match="need alice_hadamard"):
            Scenario("revised", no_coin)
        for coin in (True, 1.0):
            with pytest.raises(ValueError, match="need alice_hadamard 0 or 1"):
                Scenario("revised", (RoundPlan(1, EntangledPair(1), alice_hadamard=coin),))
        wrong_alt = (RoundPlan(1, EntangledPair(0)),)
        with pytest.raises(ValueError, match="alternate"):
            Scenario("original", wrong_alt)
        with pytest.raises(ValueError, match="attack_seed must be at least 0"):
            Scenario("original", original_plans((0,)), attack_seed=-1)
        with pytest.raises(ValueError, match="attack_seed must be an integer"):
            Scenario("original", original_plans((0,)), attack_seed=True)
        # Plans may come from any iterable, checked before the emptiness and round cap.
        plans = original_plans((1, 0))
        assert Scenario("original", (p for p in plans)) == Scenario("original", plans)
        assert Scenario("original", iter(plans)).plans == plans
        with pytest.raises(ValueError, match="at least one"):
            Scenario("revised", (p for p in ()))
        with pytest.raises(ValueError, match="capped"):
            Scenario("original", iter(original_plans([0] * (MAX_ENUM_ROUNDS + 1))))
        with pytest.raises(ValueError, match="round_index"):
            Scenario("revised", (p for p in bad_index))
        # An entry that is not a RoundPlan is named by its position.
        with pytest.raises(ValueError, match="position 1 is not a RoundPlan"):
            Scenario("original", [1])
        with pytest.raises(ValueError, match="position 2 is not a RoundPlan"):
            Scenario("revised", (*revised_plans((0,), (1,)), "pair"))

    def test_a_scenario_keeps_a_numpy_attack_seed_as_an_int(self):
        plans = revised_plans((1, 1, 0, 1), (0, 1, 1, 0), targets=(W1, W2, W2, W1))
        scenario = Scenario("revised", plans, strategy="dishonest-bob", attack_seed=np.int64(5))
        assert type(scenario.attack_seed) is int and scenario.attack_seed == 5
        plain = Scenario("revised", plans, strategy="dishonest-bob", attack_seed=5)
        assert scenario == plain
        assert [_fingerprint(b) for b in enumerate_branches(scenario)] == [
            _fingerprint(b) for b in enumerate_branches(plain)
        ]

    @pytest.mark.parametrize(
        "match,original,revised",
        [
            ("starts at 1", RoundPlan(0, ProductPair(0)), RoundPlan(0, SinglePair(0, 1, W1), alice_hadamard=0)),
            ("target", RoundPlan(1, SinglePair(0, 1, "w3")), RoundPlan(1, SinglePair(0, 1, "w3"), alice_hadamard=0)),
        ],
    )
    def test_every_plan_consumer_checks_the_plan(self, match, original, revised):
        # Plans are not checked when built, so each consumer must check them.
        rngs = Rngs(*(np.random.default_rng(k) for k in range(3)))
        consumers = (
            lambda: original_round(chi_state(), original, 0, rngs),
            lambda: revised_round(chi_state(), revised, 0, rngs),
            lambda: Scenario("original", (original,)),
            lambda: Scenario("revised", (revised,)),
        )
        for consume in consumers:
            with pytest.raises(ValueError, match=match):
                consume()

    @pytest.mark.parametrize(
        "plans",
        [
            (RoundPlan(1, ProductPair(2)),),
            (RoundPlan(1, ProductPair(0)), RoundPlan(2, EntangledPair(-1))),
            (RoundPlan(1, EntangledPair(3), alice_hadamard=1),),
            (RoundPlan(1, SinglePair(0, 2, W1), alice_hadamard=0),),
            # Equal to 0 or 1 but not ints: an interned plan class would
            # carry their type into later sessions' transcripts.
            (RoundPlan(1, ProductPair(True)),),
            (RoundPlan(1, EntangledPair(1.0), alice_hadamard=1),),
            (RoundPlan(1, SinglePair(np.int64(1), 0, W1), alice_hadamard=0),),
        ],
    )
    def test_scenarios_reject_payload_bits_outside_0_and_1(self, plans):
        variant = "revised" if plans[0].alice_hadamard is not None else "original"
        with pytest.raises(ValueError, match="payload bits"):
            Scenario(variant, plans)

    @pytest.mark.parametrize(
        "plans",
        [
            (RoundPlan(1.0, ProductPair(0)),),
            (RoundPlan(True, ProductPair(0)),),
            (RoundPlan(np.int64(1), ProductPair(0)),),
            (RoundPlan(1, ProductPair(0)), RoundPlan(2.0, EntangledPair(1))),
            (RoundPlan(1.0, EntangledPair(1), alice_hadamard=1),),
        ],
    )
    def test_scenarios_reject_a_round_index_that_is_not_an_int(self, plans):
        # Equal to the round's position but not an int: the JSONL
        # transcript would read 1.0 or true, or fail to encode.
        variant = "revised" if plans[0].alice_hadamard is not None else "original"
        with pytest.raises(ValueError, match="round_index"):
            Scenario(variant, plans)

    def test_the_branch_cap_counts_branches(self, monkeypatch):
        scenario = GATE2[45]  # 32 branches, as every Gate-2 scenario
        monkeypatch.setattr(harness, "MAX_ENUM_BRANCHES", 32)
        assert len(enumerate_branches(scenario)) == 32
        monkeypatch.setattr(harness, "MAX_ENUM_BRANCHES", 31)
        with pytest.raises(RuntimeError, match="exceeded 31 branches"):
            enumerate_branches(scenario)

    def test_monte_carlo_agrees_with_exact_probabilities(self):
        # Two-round sessions, coin forced to 1 both rounds: a pair round
        # followed by a single round.  The exact round-2 error rates come
        # from enumeration (averaged over target and payload); sampled
        # frequencies must sit within 3 sigma.
        for strategy, exact in (("a1", 0.25), ("a2-probe", 0.5)):
            total = 0.0
            for q1 in (0, 1):
                for target in (W1, W2):
                    plans = revised_plans(
                        (1, 1), (0, 0), q1_bits=(0, q1), targets=(W1, target)
                    )
                    branches = enumerate_branches(Scenario("revised", plans, strategy=strategy))
                    total += sum(
                        b.probability
                        for b in branches
                        if b.transcripts[1].recovered != b.transcripts[1].secret
                    ) / 4
            assert abs(total - exact) < 1e-9

            n = 400
            errs = 0
            for j in range(n):
                transcripts = []
                run_simulation(
                    SimConfig(
                        strategy=strategy, rounds=2, seed=derived_seed(4242, j),
                        check_fraction=1.0, hadamard_bias=1.0,
                    ),
                    transcripts,
                )
                errs += int(transcripts[1].recovered != transcripts[1].secret)
            sigma = np.sqrt(exact * (1 - exact) / n)
            assert abs(errs / n - exact) <= 3 * sigma


def _alice_plans(variant, rounds):
    """Every plan list Alice can draw in ``rounds`` rounds at the default
    bias, with its probability: each secret, coin, ``q1`` and target she
    draws is a fair bit, and a pair round draws no ``q1`` or target."""
    secrets_of = list(itertools.product((0, 1), repeat=rounds))
    if variant == "original":
        return [(Fraction(1, 2 ** rounds), original_plans(secrets)) for secrets in secrets_of]
    plans = []
    for coins in itertools.product((0, 1), repeat=rounds):
        singles, parity = [], 0
        for i, coin in enumerate(coins):
            if not coin ^ parity:
                singles.append(i)
            parity ^= coin
        weight = Fraction(1, 4 ** (rounds + len(singles)))
        for secrets in secrets_of:
            for steer in itertools.product(itertools.product((0, 1), (W1, W2)), repeat=len(singles)):
                q1_bits, targets = [0] * rounds, [W1] * rounds
                for i, (q1, target) in zip(singles, steer):
                    q1_bits[i], targets[i] = q1, target
                plans.append((weight, revised_plans(coins, secrets, q1_bits, targets)))
    return plans


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestExactDetection:
    """The paper's claims as exact numbers for short sessions (Bagherinezhad
    & Karimipour, PRA 67 044302): P(detected | N rounds, check fraction 1,
    threshold 0), summed in ``Fraction``s over every plan Alice can draw and
    every measurement branch of it, and for dishonest-bob over every coin
    string its attacker can draw."""

    EXACT = {
        ("revised", "a1"): (0, Fraction(1, 8), Fraction(3, 16)),
        ("revised", "a2-probe"): (0, Fraction(1, 4), Fraction(1, 4)),
        ("revised", "none"): (0, 0, 0),
        ("original", "none"): (0, 0, 0),
        ("original", "a2"): (0, 0, 0),
    }
    # The detection laws of a1 and a2-probe at every N (Fibonacci F(1) = F(2) = 1).
    LAWS = {
        ("revised", "a1"): lambda n: Fraction(1, 2) - Fraction(_fibonacci(n + 2), 2 ** (n + 1)),
        ("revised", "a2-probe"): lambda n: Fraction(1, 2) - Fraction(1, 2 ** (n // 2 + 1)),
    }

    @staticmethod
    def _p_detected(variant, strategy, rounds):
        plans = _alice_plans(variant, rounds)
        # Each plan Alice can draw comes once, and their weights sum to 1.
        assert len({p for _, p in plans}) == len(plans) and sum(w for w, _ in plans) == 1
        total = Fraction(0)
        for weight, plan in plans:
            for branch in enumerate_branches(Scenario(variant, plan, strategy=strategy)):
                if check_phase(branch.transcripts, 1.0, None)[1]:
                    total += weight * Fraction(branch.probability)
        return total

    @pytest.mark.parametrize("variant,strategy", list(EXACT), ids=lambda v: v)
    def test_detection_for_up_to_three_rounds(self, variant, strategy):
        got = tuple(self._p_detected(variant, strategy, n) for n in (1, 2, 3))
        assert got == self.EXACT[variant, strategy]
        law = self.LAWS.get((variant, strategy))
        if law is not None:
            assert got == tuple(map(law, (1, 2, 3)))

    def test_dishonest_bob_over_its_coins_for_up_to_two_rounds(self, monkeypatch):
        # A scenario fixes the attacker's coins through ``attack_seed``, so
        # the sum runs over every coin string too: ``_Tape`` draws its coins
        # from a source that hands out the scripted string, each string of
        # m coins weighted 2^-m.  A round draws two coins and a pair round
        # one more, and every scripted coin must be drawn.
        coins = []
        monkeypatch.setattr(harness, "PCG64Stream", lambda seed: types.SimpleNamespace(bit=lambda: coins.pop()))
        got = []
        for rounds in (1, 2):
            total = Fraction(0)
            for weight, plan in _alice_plans("revised", rounds):
                m = 2 * rounds + sum(isinstance(p.mode, EntangledPair) for p in plan)
                for string in itertools.product((0, 1), repeat=m):
                    coins[:] = reversed(string)
                    for branch in enumerate_branches(Scenario("revised", plan, strategy="dishonest-bob")):
                        if check_phase(branch.transcripts, 1.0, None)[1]:
                            total += weight * Fraction(branch.probability) / 2 ** m
                    assert not coins, (plan, string)
            got.append(total)
        assert got == [Fraction(3, 8), Fraction(19, 32)]
        # The law's recurrence over P(undetected | N): 32 u(N+2) = 32 u(N+1) - 7 u(N).
        u = [1, 1 - got[0], 1 - got[1]]
        assert u[1] == Fraction(5, 8) and 32 * u[2] == 32 * u[1] - 7 * u[0]


class TapeDecider:
    """Scripted stand-in for every quantum rng during one replay of a
    scenario, for ``_replay_branches`` only.

    A tape bit of 1 forces outcome 1 (by returning 0.0), a bit of 0 forces
    outcome 0 (by returning 1.0, which no Born weight reaches).  Drawing
    past the scripted prefix extends the tape with zeros.
    """

    def __init__(self, prefix):
        self.consumed = []
        self._prefix = list(prefix)

    def random(self):
        bit = self._prefix[len(self.consumed)] if len(self.consumed) < len(self._prefix) else 0
        self.consumed.append(bit)
        return 0.0 if bit else 1.0


def _replay_branches(scenario):
    """Reference enumerator: replays the whole scenario once per branch.

    A binary counter over one ``TapeDecider`` for the whole session picks
    the next branch, and each replay starts from round 1 with a fresh
    attack, so nothing can leak between branches.
    """
    branches = []
    tape = []
    while True:
        decider = TapeDecider(tape)
        attack = build_attack(scenario.strategy, coins=np.random.default_rng(scenario.attack_seed))
        rngs = Rngs(bob=decider, charlie=decider, attack=decider)
        world, parity = chi_state(), 0
        transcripts = []
        for plan in scenario.plans:
            if scenario.variant == "original":
                if plan.round_index > 1:
                    world = hadamard_layer(world)
                    parity ^= 1
                    if attack is not None:
                        world = attack.sync_hadamard(world)
                world, t = original_round(world, plan, parity, rngs, attack)
            else:
                world, t = revised_round(world, plan, parity, rngs, attack)
                parity ^= plan.alice_hadamard
            transcripts.append(t)
        prob = 1.0
        for t in transcripts:
            for rec in t.records:
                prob *= rec.probability
        if attack is not None:
            for rec in attack.records:
                prob *= rec.probability
        branches.append(Branch(prob, tuple(transcripts), world, attack))
        consumed = decider.consumed
        i = len(consumed) - 1
        while i >= 0 and consumed[i] == 1:
            i -= 1
        if i < 0:
            return branches
        tape = consumed[:i] + [1]


def _fingerprint(branch):
    attack = branch.attack
    return (
        branch.probability,
        [t.records for t in branch.transcripts],
        [(t.to_record(), t.eve_notes) for t in branch.transcripts],
        None if attack is None else (attack.records, attack.inferred),
        branch.world.labels,
        branch.world.amps.tobytes(),
    )


def _random_revised_scenarios(strategy, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        coins, secrets, q1 = (tuple(int(b) for b in rng.integers(0, 2, n)) for _ in range(3))
        targets = tuple(W1 if b else W2 for b in rng.integers(0, 2, n))
        plans = revised_plans(coins, secrets, q1_bits=q1, targets=targets)
        out.append(Scenario("revised", plans, strategy=strategy, attack_seed=int(rng.integers(1 << 31))))
    return out


# Dishonest-receiver scenarios whose forking pair rounds (Bob's lone
# decode measures junk) come before later rounds that draw the
# attacker's coins again.
DISHONEST_FORKING = [
    Scenario("revised", revised_plans(coins, (1, 0, 1, 1), q1_bits=(1, 0, 1, 0), targets=targets),
             strategy="dishonest-bob", attack_seed=seed)
    for coins, targets in (((1, 0, 1, 1), (W1, W2, W2, W1)), ((1, 1, 1, 0), (W2, W2, W1, W2)))
    for seed in (3, 2024)
]

# The Gate-2 enumerations: a2 against every 6-round secret string.
GATE2 = [
    Scenario("original", original_plans(secrets), strategy="a2") for secrets in itertools.product((0, 1), repeat=6)
]

# The Gate-5 pinning scenarios: a pair round, then a single round of each
# q1 and target, against each probe.
GATE5 = [
    Scenario("revised", revised_plans((1, 1), (0, 0), q1_bits=(0, q1), targets=(W1, target)), strategy=strategy)
    for strategy in ("a1", "a2-probe")
    for q1 in (0, 1)
    for target in (W1, W2)
]


class TestForkingWalk:
    def _assert_matches_replay(self, scenario):
        walked = enumerate_branches(scenario)
        replayed = _replay_branches(scenario)
        assert len(walked) == len(replayed)
        for w, r in zip(walked, replayed):
            assert _fingerprint(w) == _fingerprint(r)

    def test_gate2_scenarios_match_the_replay(self):
        for secrets in itertools.product((0, 1), repeat=6):
            self._assert_matches_replay(Scenario("original", original_plans(secrets), strategy="a2"))

    @pytest.mark.parametrize("scenario", DISHONEST_FORKING)
    def test_dishonest_receiver_matches_the_replay(self, scenario):
        self._assert_matches_replay(scenario)

    @pytest.mark.parametrize("strategy", ["none", "a1", "a2-probe", "dishonest-bob"])
    def test_random_revised_scenarios_match_the_replay(self, strategy):
        for scenario in _random_revised_scenarios(strategy, 12, seed=len(strategy)):
            self._assert_matches_replay(scenario)

    def test_honest_original_scenarios_match_the_replay(self):
        for secrets in itertools.product((0, 1), repeat=5):
            self._assert_matches_replay(Scenario("original", original_plans(secrets)))

    def test_a_tape_that_shares_its_coins_is_caught(self, table, monkeypatch):
        class SharingTape(harness._Tape):
            """A tape whose coins carry on from the branch before."""

            __slots__ = ()

            def next_branch(self):
                coins = self.coins
                following = super().next_branch()
                self.coins = coins
                return following

        monkeypatch.setattr(harness, "_Tape", SharingTape)
        for scenario in DISHONEST_FORKING:
            walked = [_fingerprint(b) for b in enumerate_branches(scenario)]
            assert walked != [_fingerprint(b) for b in _replay_branches(scenario)]

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario("original", original_plans((1, 0, 1, 1, 0, 1)), strategy="a2"),
            Scenario("revised", revised_plans((1, 1, 0, 1), (0, 1, 1, 0), targets=(W1, W2, W2, W1)),
                     strategy="a1"),
            DISHONEST_FORKING[0],
        ],
        ids=["a2", "a1", "dishonest-bob"],
    )
    def test_branches_own_their_attack_and_coins(self, scenario):
        branches = enumerate_branches(scenario)
        assert len(branches) > 1
        for owned in (
            [b.attack for b in branches],
            [b.attack.coins for b in branches],
            [b.attack.records for b in branches],
            [b.attack.inferred for b in branches],
            [t for b in branches for t in b.transcripts],
        ):
            assert len({id(x) for x in owned}) == len(owned)

    @pytest.mark.parametrize(
        "scenario", [GATE2[45], GATE5[3], GATE5[6], DISHONEST_FORKING[1]], ids=["a2", "a1", "a2-probe", "dishonest-bob"]
    )
    def test_enumeration_leaves_its_transcripts_unbuilt(self, scenario, table):
        # On a cold table, so the first branch's rounds are misses.
        branches = enumerate_branches(scenario)
        frozen = {id(part) for payload in _leaf_payloads(table) for part in payload[0][7:10]}
        for t in (t for b in branches for t in b.transcripts):
            events, records, notes = t._args[7:10]
            assert type(events) is tuple and type(records) is tuple
            assert {id(events), id(records), id(notes)} <= frozen
        assert [_fingerprint(b) for b in branches] == [_fingerprint(b) for b in _replay_branches(scenario)]

    def test_every_branch_replays_each_round_from_the_table(self, table):
        # A branch plays every round through the table, as a session does:
        # 32 x 6 = 192 table plays per Gate-2 scenario and two per branch
        # of a two-round Gate-5 scenario, all hits once the table is warm.
        for scenario in (*GATE2, *GATE5):
            enumerate_branches(scenario)
        misses = table.misses

        def plays(scenario):
            before = table.hits + table.misses
            branches = enumerate_branches(scenario)
            return len(branches), table.hits + table.misses - before

        assert {plays(scenario) for scenario in GATE2} == {(32, 192)}
        for scenario in GATE5:
            count, played = plays(scenario)
            assert played == 2 * count
        assert table.misses == misses

    def test_an_enumeration_looks_up_its_start_node_once(self, table, monkeypatch):
        lookups, inner = [], RoundTable.node

        def spy(self, world, parity, attack):
            lookups.append(parity)
            return inner(self, world, parity, attack)

        monkeypatch.setattr(RoundTable, "node", spy)
        for scenario in (GATE2[45], GATE5[6], DISHONEST_FORKING[0]):
            lookups.clear()
            assert len(enumerate_branches(scenario)) > 1
            assert lookups == [0], scenario
        for variant, strategy in PAIRS:
            lookups.clear()
            run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=20, seed=2))
            assert lookups == [0], (variant, strategy)

    @pytest.mark.parametrize(
        "scenario", [GATE2[45], GATE5[6], DISHONEST_FORKING[0]], ids=["a2", "a2-probe", "dishonest-bob"]
    )
    def test_an_enumeration_builds_one_tape_and_one_script(self, scenario, monkeypatch):
        built = []

        class CountedTape(harness._Tape):
            __slots__ = ()

            def __init__(self, *args):
                built.append("tape")
                super().__init__(*args)

        class CountedScript(Script):
            __slots__ = ()

            def __init__(self, *args):
                built.append("script")
                super().__init__(*args)

        monkeypatch.setattr(harness, "_Tape", CountedTape)
        monkeypatch.setattr(harness, "Script", CountedScript)
        branches = enumerate_branches(scenario)
        assert len(branches) > 1 and sorted(built) == ["script", "tape"]
        assert [_fingerprint(b) for b in branches] == [_fingerprint(b) for b in _replay_branches(scenario)]

    def test_each_round_is_played_once_per_outcome_history(self, table, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].round_index)
            return original_round(*args, **kwargs)

        monkeypatch.setattr(harness, "original_round", counting)
        scenario = Scenario("original", original_plans((1, 0, 1, 1, 0, 1)), strategy="a2")
        branches = enumerate_branches(scenario)
        # Every round a branch plays goes through the table, which plays
        # a key on the statevector path once per outcome path.  Replaying
        # every branch on the statevector path would take 32 x 6 = 192 calls.
        assert len(branches) == 32
        assert len(calls) == table.misses == 9
        assert calls.count(1) == 1
        calls.clear()
        assert [_fingerprint(b) for b in enumerate_branches(scenario)] == [_fingerprint(b) for b in branches]
        assert calls == []

    @pytest.mark.parametrize("bounds", [(0, 3), (1, 2), (0, 1)])
    def test_a_tape_coin_outside_0_and_2_raises_and_draws_nothing(self, bounds):
        tape = harness._Tape(5)
        with pytest.raises(TypeError, match="only random"):
            tape.integers(*bounds)
        assert tape.coins == 0 and tape._kept == [] and tape._gen._bits is None

    def test_a_tape_bit_is_its_next_kept_coin(self):
        tape, want = harness._Tape(5), np.random.default_rng(5)
        coins = [tape.bit() for _ in range(40)]
        assert coins == [int(want.integers(0, 2)) for _ in range(40)]
        tape.random()
        assert tape.next_branch() and tape.coins == 0
        # The next branch reads the same coins, whichever way it draws them.
        assert [tape.bit() if k % 3 else tape.integers(0, 2) for k in range(40)] == coins
        assert len(tape._kept) == 40

    def test_a_branch_is_immutable_and_counts_its_errors(self):
        branches = enumerate_branches(GATE5[6])
        errors = [sum(t.recovered != t.secret for t in b.transcripts) for b in branches]
        assert [b.errors for b in branches] == errors and 0 < max(errors)
        branch = branches[0]
        for field in ("probability", "transcripts", "world", "attack"):
            with pytest.raises(AttributeError):
                setattr(branch, field, None)
        # The benchmark's negative controls build a changed copy this way.
        halved = dataclasses.replace(branch, probability=branch.probability / 2)
        assert halved.probability == branch.probability / 2 and halved.transcripts is branch.transcripts


class TestPlansBuilders:
    def test_original_plans_alternate(self):
        plans = original_plans((1, 0, 1))
        assert [type(p.mode) for p in plans] == [ProductPair, EntangledPair, ProductPair]
        assert [p.secret for p in plans] == [1, 0, 1]
        assert all(p.alice_hadamard is None for p in plans)

    def test_revised_plans_respect_the_pairing_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            coins = [int(b) for b in rng.integers(0, 2, size=n)]
            secrets = [int(b) for b in rng.integers(0, 2, size=n)]
            plans = revised_plans(coins, secrets)
            Scenario("revised", plans)  # validation would raise on a bad pairing
            parity = 0
            for plan, coin in zip(plans, coins):
                is_pair = isinstance(plan.mode, EntangledPair)
                assert is_pair == bool(coin ^ parity)
                parity ^= coin

    def test_revised_plans_steering(self):
        plans = revised_plans((0, 0), (1, 1), q1_bits=(1, 0), targets=(W2, W1))
        assert isinstance(plans[0].mode, SinglePair)
        assert plans[0].mode.q1 == 1 and plans[0].mode.q2 == 0
        assert plans[0].target == W2 and plans[1].target == W1
        with pytest.raises(ValueError, match="equal length"):
            revised_plans((0, 1), (1,))

    def test_builders_reject_bad_inputs(self):
        with pytest.raises(ValueError, match="payload bits"):
            original_plans([2])
        with pytest.raises(ValueError, match="payload bits"):
            revised_plans((1,), (3,))
        with pytest.raises(ValueError, match="payload bits"):
            revised_plans((0,), (1,), q1_bits=(2,))
        with pytest.raises(ValueError, match="q1_bits has 1 entries for 2 rounds"):
            revised_plans((0, 0), (1, 1), q1_bits=(0,))
        with pytest.raises(ValueError, match="targets has 0 entries for 1 rounds"):
            revised_plans((0,), (1,), targets=())
        with pytest.raises(ValueError, match="target must be"):
            revised_plans((0,), (1,), targets=("w3",))
        # Floats and bools are rejected, not read as a valid bit.
        with pytest.raises(ValueError, match="secrets entries must be integers"):
            original_plans([1.9, 0.4])
        with pytest.raises(ValueError, match="coins entries must be integers"):
            revised_plans((0.6,), (True,))
        with pytest.raises(ValueError, match="q1_bits entries must be integers"):
            revised_plans((0,), (1,), q1_bits=(1.7,))
        for name, build in (
            ("secrets", lambda: original_plans((True, False))),
            ("secrets", lambda: original_plans((0, False))),
            ("coins", lambda: revised_plans((True,), (0,))),
            ("secrets", lambda: revised_plans((1,), (False,))),
            ("q1_bits", lambda: revised_plans((0,), (1,), q1_bits=(True,))),
            ("q1_bits", lambda: revised_plans((0,), (1,), q1_bits=(np.bool_(True),))),
        ):
            with pytest.raises(ValueError, match=f"{name} entries must be integers"):
                build()
        # Any iterable of entries is accepted, and checked alike.
        want = revised_plans((1, 0, 0), (0, 1, 1), q1_bits=(0, 1, 0), targets=(W1, W2, W2))
        steered = ((1, 0, 0), (0, 1, 1), (0, 1, 0), (W1, W2, W2))
        for kind in ((lambda entries: (e for e in entries)), iter):
            coins, secrets, q1_bits, targets = map(kind, steered)
            assert revised_plans(coins, secrets, q1_bits=q1_bits, targets=targets) == want
        assert original_plans(q for q in (1, 0, 1)) == original_plans((1, 0, 1))
        with pytest.raises(ValueError, match="equal length"):
            revised_plans((c for c in (0, 1)), iter((1,)))
        with pytest.raises(ValueError, match="q1_bits has 1 entries for 2 rounds"):
            revised_plans((0, 0), (1, 1), q1_bits=(b for b in (0,)))
        with pytest.raises(ValueError, match=r"secrets entries must be integers, got \(1, 0.5\)"):
            original_plans(q for q in (1, 0.5))


    @pytest.mark.parametrize("bad", [-1, 2])
    def test_script_entries_outside_0_and_1_never_pick_a_class(self, bad):
        # The class table is indexed by entry values, so -1 must not wrap
        # around to the class of 1, nor 2 fail as an IndexError.
        cases = [
            ("payload bits of round 1", lambda: original_plans([bad])),
            ("payload bits of round 3", lambda: original_plans([0, 1, bad])),
            ("alice_hadamard 0 or 1", lambda: revised_plans((bad,), (0,))),
            ("payload bits of round 1", lambda: revised_plans((0,), (bad,))),
            ("payload bits of round 1", lambda: revised_plans((0,), (0,), q1_bits=(bad,))),
            ("payload bits of round 2", lambda: revised_plans((1, 1), (0, 0), q1_bits=(0, bad))),
        ]
        for match, build in cases:
            with pytest.raises(ValueError, match=match):
                build()
        # Entries a pair round does not read stay unread.
        assert revised_plans((1,), (0,), q1_bits=(bad,), targets=("w3",)) == revised_plans((1,), (0,))


class TestRunGrid:
    def test_grid_shape_and_determinism(self):
        reports = run_grid("revised", ["none", "a1"], [20, 30], [0.25], repeats=2, master_seed=7)
        assert len(reports) == 2 * 2 * 1 * 2
        again = run_grid("revised", ["none", "a1"], [20, 30], [0.25], repeats=2, master_seed=7)
        assert [r.to_dict() for r in reports] == [r.to_dict() for r in again]
        combos = {(r.strategy, r.rounds) for r in reports}
        assert combos == set(itertools.product(("none", "a1"), (20, 30)))
        seeds = [r.seed for r in reports]
        assert len(set(seeds)) == len(seeds)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="empty"):
            run_grid("revised", [], [10], [0.5], 1, 0)
        with pytest.raises(ValueError, match="repeats"):
            run_grid("revised", ["none"], [10], [0.5], 0, 0)
        with pytest.raises(ValueError, match="repeats"):
            run_grid("revised", ["none"], [10], [0.5], 1.5, 0)
        with pytest.raises(ValueError, match="not defined"):
            run_grid("original", ["a1"], [10], [0.5], 1, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_grid("revised", ["none"], [10], [0.5], 1, 1.5)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            run_grid("revised", ["none"], [10], [0.5], 1, -1)
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_grid("revised", ["none"], [10], [0.5], 1, True)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            run_grid("revised", ["none"], [10], [0.5], True, 0)
        # A bare string is one value, not a sequence of them.
        with pytest.raises(ValueError, match="strategies must be a sequence"):
            run_grid("revised", "none", [4], [0.5], 1, 0)
        with pytest.raises(ValueError, match="rounds_list must be a sequence"):
            run_grid("revised", ["none"], "4", [0.5], 1, 0)
        with pytest.raises(ValueError, match="check_fractions must be a sequence"):
            run_grid("revised", ["none"], [4], "0.5", 1, 0)


# --------------------------------------------------------------------------
# Round table


def _reference_session(cfg, make_attack=build_attack):
    """Reference for ``run_simulation``: the plain session loop.

    Every round is played by the round functions and the checked count
    is scanned from the events.  Returns the report, the transcripts,
    the attack and the final world.
    """
    alice = stream(cfg.seed, harness.STREAM_ALICE)
    rngs = Rngs(
        bob=stream(cfg.seed, harness.STREAM_BOB),
        charlie=stream(cfg.seed, harness.STREAM_CHARLIE),
        attack=stream(cfg.seed, harness.STREAM_ATTACK),
    )
    attack = make_attack(cfg.strategy, coins=rngs.attack)
    world, parity = chi_state(), 0
    transcripts = []
    for i in range(1, cfg.rounds + 1):
        if cfg.secret_bits is not None:
            secret = int(cfg.secret_bits[i - 1])
        else:
            secret = int(alice.integers(0, 2))
        if cfg.variant == "original":
            mode = ProductPair(secret) if i % 2 == 1 else EntangledPair(secret)
            plan = RoundPlan(i, mode)
            if i > 1:
                world = hadamard_layer(world)
                parity ^= 1
                if attack is not None:
                    world = attack.sync_hadamard(world)
            world, t = original_round(world, plan, parity, rngs, attack)
        else:
            coin = int(alice.random() < cfg.hadamard_bias)
            if coin ^ parity:
                mode = EntangledPair(secret)
            else:
                q1 = int(alice.integers(0, 2))
                target = W1 if alice.random() < 0.5 else W2
                mode = SinglePair(q1, q1 ^ secret, target)
            plan = RoundPlan(i, mode, alice_hadamard=coin)
            world, t = revised_round(world, plan, parity, rngs, attack)
            parity ^= coin
        transcripts.append(t)
    error_rate, detected, _ = check_phase(
        transcripts, cfg.check_fraction, stream(cfg.seed, harness.STREAM_CHECK), cfg.detect_threshold
    )
    checked = [t.round_index for t in transcripts if any(ev.get("event") == "check_announced" for ev in t.events)]
    report = SimReport(
        variant=cfg.variant, strategy=cfg.strategy, rounds=cfg.rounds,
        check_fraction=cfg.check_fraction, seed=cfg.seed, rounds_run=len(transcripts),
        checked_rounds=len(checked), honest_error_rate=error_rate, detected=detected,
        eve_accuracy=harness._score_eve(attack, transcripts, checked),
        mode_breakdown=harness._mode_breakdown(transcripts),
    )
    return report, transcripts, attack, world


def _session_bytes(report, transcripts, attack, world):
    return (
        json.dumps(report.to_dict()),
        transcripts_to_jsonl(transcripts),
        repr([(t.records, t.eve_notes) for t in transcripts]),
        None if attack is None else repr((attack.records, attack.inferred)),
        world.labels,
        world.amps.tobytes(),
    )


def _table_session(cfg, monkeypatch):
    """``run_simulation`` with its attack and final world captured."""
    played = []

    def capture(*args):
        out = inner(*args)
        played.append(out)
        return out

    inner = harness._play_session
    with monkeypatch.context() as m:
        m.setattr(harness, "_play_session", capture)
        transcripts = []
        report = run_simulation(cfg, transcripts)
    world, attack, _ = played[0]
    return report, transcripts, attack, world


PAIRS = [(v, s) for v in ("original", "revised") for s in COMPATIBLE[v]]

# Rounds, seed and plan inputs of the sessions each pair is compared on.
TABLE_SESSIONS = [
    dict(rounds=1, seed=0),
    dict(rounds=2, seed=1),
    dict(rounds=37, seed=2, hadamard_bias=0.3),
    dict(rounds=300, seed=3, hadamard_bias=0.0),
    dict(rounds=250, seed=4, hadamard_bias=1.0),
    dict(rounds=16, seed=5, secret_bits="0110100110010110", check_fraction=1.0),
    dict(rounds=3000, seed=7919),
]


def _tilted(fork):
    """A ``build_attack`` whose attack forks every round at weight 0.64 (a
    measurement of a qubit of its own, with or without its record) or 1/4
    (a four-way coin)."""

    class TiltedProbe(ChannelAttack):
        name = "tilted"

        def intercept(self, world, round_index, rngs):
            if fork == "coin":
                self._notes = {"coin": int(self.coins.integers(0, 4))}
                return world, W1, W2
            world = tensor(world, state_from_terms(["t"], {"0": 0.6, "1": 0.8}))
            rec, world = measure(world, "t", rngs.attack)
            if fork == "recorded":
                self.records.append(rec)
            return discard(world, "t"), W1, W2

    return lambda strategy, coins=None: TiltedProbe(coins)


class _FlippingAttack(ChannelAttack):
    """Leaves the world alone but flips its ``state`` every round, and in
    state 1 draws a coin.  Its notes name the state and the coin, so only
    the state tells its rounds apart."""

    name = "flipping"
    state = 0

    def intercept(self, world, round_index, rngs):
        state = self.state
        self.state = 1 - state
        self._notes = {"state": state, "coin": int(self.coins.integers(0, 2)) if state else None}
        return world, W1, W2


class _CountingAttack(ChannelAttack):
    """Breaks the attack contract on purpose: in its k-th round it measures
    ``draws[k]`` ancillas of its own in ``|+>``, a count kept outside its
    ``state``, so two rounds the round table keys alike draw differently."""

    name = "counting"

    def __init__(self, draws):
        super().__init__()
        self.draws, self.played = draws, 0

    def intercept(self, world, round_index, rngs):
        for _ in range(self.draws[self.played]):
            world = apply_h(tensor(world, basis_state([("x", 0)])), "x")
            rec, world = measure(world, "x", rngs.attack, drop=True)
            self.records.append(rec)
        self.played += 1
        return world, W1, W2


def _leaf_payloads(table):
    """The payload of every leaf the table stores."""
    nodes, payloads = [tree for stored in table._nodes.values() for tree in stored.edges.values()], []
    while nodes:
        node = nodes.pop()
        if node is not None and type(node[0]) is int:
            nodes += node[1:]
        elif node is not None:
            payloads.append(node[1])
    return payloads


def _edit(transcripts):
    """Edit and append to every transcript's events, records and notes."""
    for t in transcripts:
        t.events[0]["event"] = "edited"
        t.events.append({"event": "appended"})
        t.records.append(t.records[0])
        if t.eve_notes is not None:
            t.eve_notes["edited"] = True


@pytest.fixture
def table(monkeypatch):
    fresh = RoundTable(harness._play_round)
    monkeypatch.setattr(harness, "ROUND_TABLE", fresh)
    return fresh


class TestRoundTable:
    @pytest.mark.parametrize("variant,strategy", PAIRS)
    def test_sessions_match_the_statevector_loop_cold_and_warm(self, variant, strategy, table, monkeypatch):
        for kwargs in TABLE_SESSIONS:
            cfg = SimConfig(variant=variant, strategy=strategy, **kwargs)
            want = _session_bytes(*_reference_session(cfg))
            table.clear()
            assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, ("cold", kwargs)
            assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, ("warm", kwargs)
            # A session that asks for no transcripts reports the same from
            # its rows alone.
            table.clear()
            assert json.dumps(run_simulation(cfg).to_dict()) == want[0], ("rows cold", kwargs)
            assert json.dumps(run_simulation(cfg).to_dict()) == want[0], ("rows warm", kwargs)
        assert table.hits > 0 and table.entries <= MAX_TABLE_ENTRIES

    def test_a_table_warmed_by_other_sessions_matches(self, table, monkeypatch):
        for seed in range(3):
            for variant, strategy in PAIRS:
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=400, seed=seed)
                got = _session_bytes(*_table_session(cfg, monkeypatch))
                assert got == _session_bytes(*_reference_session(cfg)), (variant, strategy, seed)
        assert table.hits > 4 * table.misses

    def _mismatches(self, monkeypatch, pairs, rounds=300, seeds=(0, 1)):
        """Pairs whose sessions differ from the reference or fail one of its checks."""
        bad = set()
        for seed in seeds:
            for variant, strategy in pairs:
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=rounds, seed=seed)
                try:
                    got = _session_bytes(*_table_session(cfg, monkeypatch))
                except (AssertionError, RuntimeError, ValueError):
                    got = None
                if got != _session_bytes(*_reference_session(cfg)):
                    bad.add((variant, strategy))
        return bad

    def test_a_key_without_the_amplitude_bytes_is_caught(self, table, monkeypatch):
        monkeypatch.setattr(RoundTable, "_world_key", staticmethod(lambda world: world.labels))
        attacked = {pair for pair in PAIRS if pair[1] != "none"}
        assert self._mismatches(monkeypatch, PAIRS) == attacked
        # An honest world is told apart by the parity alone: those sessions
        # still match the reference under the labels-only key.
        for variant in ("original", "revised"):
            cfg = SimConfig(variant=variant, strategy="none", rounds=300, seed=0)
            assert _session_bytes(*_table_session(cfg, monkeypatch)) == _session_bytes(*_reference_session(cfg))

    def test_replayed_inferences_must_take_the_replayed_round(self, table, monkeypatch):
        def recorded_round(self, mark, round_index):
            n_records, n_inferred = mark
            return tuple(self.records[n_records:]), tuple(self.inferred[n_inferred:]), self.state

        def replay_round(self, round_index, recorded):
            records, inferred, self.state = recorded
            self.records.extend(records)
            self.inferred.extend(inferred)

        monkeypatch.setattr(ChannelAttack, "recorded_round", recorded_round)
        monkeypatch.setattr(ChannelAttack, "replay_round", replay_round)
        pairs = [("original", "a2"), ("revised", "dishonest-bob")]
        assert self._mismatches(monkeypatch, pairs) == set(pairs)

    def _leaks(self, table, monkeypatch, pairs):
        """Pairs where editing the transcripts of a session replayed from the
        table changes the table's payloads, a later session or the
        reference loop."""
        bad = set()
        for variant, strategy in pairs:
            cfg = SimConfig(variant=variant, strategy=strategy, rounds=300, seed=11)
            want = _session_bytes(*_reference_session(cfg))
            run_simulation(cfg)  # records every round of the session
            payloads, misses = repr(_leaf_payloads(table)), table.misses
            _edit(_table_session(cfg, monkeypatch)[1])
            assert table.misses == misses  # every round was replayed
            after = _session_bytes(*_table_session(cfg, monkeypatch)), _session_bytes(*_reference_session(cfg))
            if (repr(_leaf_payloads(table)), *after) != (payloads, want, want):
                bad.add((variant, strategy))
        return bad

    def test_a_replayed_transcript_owns_its_events_records_and_notes(self, table, monkeypatch):
        assert self._leaks(table, monkeypatch, PAIRS) == set()

    def test_a_replay_that_shares_an_events_list_is_caught(self, table, monkeypatch):
        shared, transcribe = {}, harness.session_transcripts

        def sharing(part):
            def transcripts_of(rows):
                transcripts = transcribe(rows)
                for t, args in zip(transcripts, rows):
                    setattr(t, part, shared.setdefault(id(args), getattr(t, part)))
                return transcripts

            return transcripts_of

        monkeypatch.setattr(harness, "session_transcripts", sharing("events"))
        assert self._mismatches(monkeypatch, PAIRS) == set(PAIRS)
        # Sharing any of the three parts lets edits leak into later
        # sessions; only attacked rounds have notes.
        attacked = {pair for pair in PAIRS if pair[1] != "none"}
        for part, expected in (("events", set(PAIRS)), ("records", set(PAIRS)), ("eve_notes", attacked)):
            shared.clear()
            monkeypatch.setattr(harness, "session_transcripts", sharing(part))
            table.clear()
            assert self._leaks(table, monkeypatch, PAIRS) == expected, part

    def test_a_replayed_transcript_equals_the_played_one_before_and_after_it_is_read(self, table, monkeypatch):
        played, built, transcribe = {}, [], harness.session_transcripts

        def capture(inner):
            def play(*args):
                world, t = inner(*args)
                played[args[1].round_index] = t
                return world, t

            return play

        def building(rows):
            built[:] = rows
            return transcribe(rows)

        monkeypatch.setattr(harness, "original_round", capture(original_round))
        monkeypatch.setattr(harness, "revised_round", capture(revised_round))
        monkeypatch.setattr(harness, "session_transcripts", building)
        for variant, strategy in PAIRS:
            table.clear()
            played.clear()
            run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=60, seed=4), [])
            assert played
            for i, eager in played.items():
                views = (
                    repr, RoundTranscript.to_record, lambda t: t == eager, lambda t: eager == t,
                    lambda t: (t.events, t.records, t.eve_notes),
                )
                # Each view read first, then all of them again.
                for first in views:
                    t = session_transcripts(built)[i - 1]
                    assert first(t) == first(eager), (variant, strategy, i)
                    assert [view(t) for view in views] == [view(eager) for view in views], (variant, strategy, i)

    def test_a_check_event_is_the_same_whether_or_not_the_events_were_read(self, table):
        for variant, strategy in PAIRS:
            cfg = SimConfig(variant=variant, strategy=strategy, rounds=40, seed=6)
            run_simulation(cfg)  # records every round the session plays
            sides = []
            for read_first in (False, True):
                transcripts = session_transcripts(harness._play_session(cfg)[2])
                if read_first:
                    for t in transcripts:
                        t.events
                else:
                    assert all(type(t._args[7]) is tuple for t in transcripts)
                check_phase(transcripts, 0.5, stream(cfg.seed, harness.STREAM_CHECK))
                sides.append(transcripts)
            unread, read = sides
            assert sum(t.events[-1]["event"] == "check_announced" for t in read) == 20
            assert unread == read and read == unread, (variant, strategy)
            assert repr(unread) == repr(read)
            assert [t.to_record() for t in unread] == [t.to_record() for t in read]
            assert transcripts_to_jsonl(unread) == transcripts_to_jsonl(read)

    def test_a_miss_below_a_recorded_fork_replays_the_walk_from_the_tree(self, table, monkeypatch):
        # A session that takes the other side of a fork an earlier session
        # recorded misses below it: its statevector play gets the walk's
        # draws back, rebuilt from the tree with the tape's stand-ins.
        rebuilt, reset = [], Script.reset

        def spy(self, drawn):
            rebuilt.extend(drawn)
            reset(self, drawn)

        monkeypatch.setattr(Script, "reset", spy)
        for variant, strategy in PAIRS:
            table.clear()
            for seed in range(3):
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=40, seed=seed)
                want = _session_bytes(*_reference_session(cfg))
                assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, (variant, strategy, seed)
        assert {value for code, value in rebuilt if not code & 1} == {0.0, 1.0}
        assert {value for code, value in rebuilt if code & 1} == {0, 1}

    def test_transcripts_of_one_leaf_share_no_events_after_a_check(self, table):
        run_simulation(SimConfig(strategy="a1", rounds=60, seed=2))
        for payload in _leaf_payloads(table):
            events = payload[0][7]
            first, second = (session_transcripts([payload[0]])[0] for _ in range(2))
            first.add_event({"event": "check_announced", "round": 7, "secret": 0})
            assert first.events is not second.events
            assert first.events[:-1] == second.events == [dict(event) for event in events]
            second.add_event({"event": "check_announced", "round": 7, "secret": 0})
            second.events.append({"event": "appended"})
            assert first.events == second.events[:-1]
            assert payload[0][7] is events and session_transcripts([payload[0]])[0].events == first.events[:-1]

    def test_a_replayed_transcript_holds_its_leafs_args_until_it_writes(self, table, monkeypatch):
        cfg = SimConfig(strategy="a1", rounds=60, seed=2, check_fraction=0.5)
        run_simulation(cfg)  # records every round the session plays
        rows = harness._play_session(cfg)[2]
        transcripts = session_transcripts(rows)
        adopted = list(zip(transcripts, rows))
        assert len(adopted) == 60 and all(t._args is args for t, args in adopted)
        _, _, announced = check_phase(transcripts, 0.5, stream(cfg.seed, harness.STREAM_CHECK))
        assert [t.round_index for t, args in adopted if t._args is args] == sorted(set(range(1, 61)) - set(announced))

        # Two transcripts of one leaf; the first is set field by field and then appended to.
        names = RoundTranscript.__match_args__[1:]
        for payload in _leaf_payloads(table):
            values = ("edited", 1, "w9", 9, 8, 7, 6, [{"event": "set"}], ["set"], {"set": True})
            args, before = payload[0], repr(payload)
            first, second = (session_transcripts([args])[0] for _ in range(2))
            for name, value in zip(names, values):
                setattr(first, name, value)
            assert [getattr(first, name) for name in names] == list(values)
            first.events.append({"event": "appended"})
            first.add_event({"event": "check_announced", "round": 7, "secret": 0})
            assert [event["event"] for event in first.events] == ["set", "appended", "check_announced"]
            assert first.records == ["set"] and first.eve_notes == {"set": True}
            assert second._args is args and payload[0] is args and repr(payload) == before
            # A frozen transcript keeps what is done to the lists and dict it builds on first read.
            third = session_transcripts([args])[0]
            third.events.append({"event": "appended"})
            third.records.append("record")
            if third.eve_notes is not None:
                third.eve_notes["edited"] = True
            assert third.events[-1] == {"event": "appended"} and third.records[-1] == "record"
            assert third.eve_notes is None or third.eve_notes["edited"]
            # It takes a check event in a tuple of its own.
            fourth = session_transcripts([args])[0]
            fourth.add_event({"event": "check_announced", "round": 7, "secret": 0})
            assert fourth._args is not args and fourth.events[-1] == {"event": "check_announced", "round": 7, "secret": 0}
            assert second._args is args and repr(payload) == before
            assert second == session_transcripts([args])[0] and fourth.events[:-1] == second.events

        # A later session replays every round and is still the statevector play's, byte for byte.
        misses = table.misses
        report, transcripts, attack, world = _table_session(cfg, monkeypatch)
        assert table.misses == misses
        reference = _reference_session(cfg)
        assert transcripts == reference[1] and repr(transcripts) == repr(reference[1])
        assert [t.to_record() for t in transcripts] == [t.to_record() for t in reference[1]]
        assert _session_bytes(report, transcripts, attack, world) == _session_bytes(*reference)

    def test_a_constructor_default_reads_as_a_fresh_empty_list(self):
        first, second = (RoundTranscript(1, "single", 0, "w1", 0, 0, 0, 0) for _ in range(2))
        assert first.events == first.records == [] and first.eve_notes is None
        assert first.events is not second.events and first.records is not second.records
        first.events.append({"event": "appended"})
        first.records.append("record")
        assert (first.events, first.records) == ([{"event": "appended"}], ["record"])
        assert second.events == second.records == []

    @pytest.mark.parametrize("variant,strategy", PAIRS)
    def test_the_mode_tally_reads_a_sessions_rows(self, variant, strategy, table):
        for rounds, seed in ((1, 0), (4, 1), (32, 2), (500, 3)):
            cfg = SimConfig(variant=variant, strategy=strategy, rounds=rounds, seed=seed)
            rows = harness._play_session(cfg)[2]
            # Per round, read through the transcript's properties and keyed in order of first appearance.
            want = {}
            for t in session_transcripts(rows):
                slot = want.setdefault(f"single_{t.target}" if t.mode == "single" else t.mode, [0, 0])
                slot[0] += 1
                slot[1] += t.recovered != t.secret
            want = [(key, {"rounds": n, "errors": e, "error_rate": e / n}) for key, (n, e) in want.items()]
            assert list(harness._mode_breakdown(rows).items()) == want, (rounds, seed)

    def test_an_attack_state_the_world_does_not_show_is_keyed(self, table, monkeypatch):
        def make(strategy, coins=None):
            return _FlippingAttack(coins)

        monkeypatch.setattr(harness, "build_attack", make)
        for variant, strategy in (("original", "a2"), ("revised", "a1")):
            for seed in range(2):
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=200, seed=seed, hadamard_bias=0.3)
                want = _session_bytes(*_reference_session(cfg, make))
                for run in ("first", "second"):
                    assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, (variant, seed, run)
        assert table.hits > table.misses

    def test_a_round_is_keyed_on_parity_and_attack_state_beyond_its_world(self):
        # A round that reads the carrier parity and the attack's state but
        # leaves the world alone gets one recording per pair of them.
        def play_round(world, plan, parity, rngs, attack):
            notes = {"parity": parity, "state": attack.state}
            return world, parity, RoundTranscript(1, plan.mode_name, None, None, plan.secret, 0, 0, 0, eve_notes=notes)

        table = RoundTable(play_round)
        world, attack = chi_state(), ChannelAttack()
        plan = harness._class_of(RoundPlan(1, ProductPair(0)))
        script = Script(tuple(np.random.default_rng(k) for k in range(3)))
        for _ in range(2):  # recorded, then replayed
            for parity, state in itertools.product((0, 1), repeat=2):
                attack.state = state
                start = table.node(world, parity, attack)
                after, (row,) = table.play_rounds(script, start, [plan], attack)
                assert after.world is world and after.parity == parity and attack.state == state
                assert session_transcripts([row])[0].eve_notes == {"parity": parity, "state": state}
        assert (table.entries, table.misses, table.hits) == (4, 4, 4)

    @pytest.mark.parametrize("variant,strategy", PAIRS)
    def test_each_round_leads_to_the_node_of_its_world_and_attack_state(self, variant, strategy, table, monkeypatch):
        cfg = SimConfig(variant=variant, strategy=strategy, rounds=60, seed=3, hadamard_bias=0.3)
        # The world the reference loop reaches after each round.
        worlds, module = [], sys.modules[__name__]
        for name in ("original_round", "revised_round"):
            def playing(*args, inner=getattr(module, name)):
                world, t = inner(*args)
                worlds.append((world.labels, world.amps.tobytes()))
                return world, t

            monkeypatch.setattr(module, name, playing)
        _reference_session(cfg)
        assert len(worlds) == cfg.rounds
        seen, inner = [], RoundTable.play_rounds

        def spy(self, script, node, plans, attack, first=1):
            rows = []
            for i, plan in enumerate(plans, first):  # one round at a time, from the node the round before led to
                node, played = inner(self, script, node, [plan], attack, i)
                rows += played
                state = None if attack is None else attack.state
                seen.append((node.state == state, (node.world.labels, node.world.amps.tobytes())))
            return node, rows

        monkeypatch.setattr(RoundTable, "play_rounds", spy)
        for run in ("cold", "warm"):
            seen.clear()
            misses = table.misses
            run_simulation(cfg)
            assert [same for same, _ in seen] == [True] * cfg.rounds, run
            assert [world for _, world in seen] == worlds, run
        assert table.misses == misses  # the warm session replays every round

    @pytest.mark.parametrize("strategy", [name for name, cls in ATTACKS.items() if cls is not None])
    def test_a_warm_session_reads_the_attack_state_only_at_its_start(self, strategy, table, monkeypatch):
        reads = []

        class Counted(ATTACKS[strategy]):
            @property
            def state(self):
                reads.append(1)
                return self.__dict__.get("_state", ATTACKS[strategy].state)

            @state.setter
            def state(self, value):
                self._state = value

        monkeypatch.setattr(harness, "build_attack", lambda strategy, coins=None: Counted(coins))
        cfg = SimConfig(variant=ATTACKS[strategy].variant, strategy=strategy, rounds=200, seed=5)
        want = _session_bytes(*_table_session(cfg, monkeypatch))  # records every round
        assert len(reads) > 1  # each miss reads it
        reads.clear()
        misses = table.misses
        assert _session_bytes(*_table_session(cfg, monkeypatch)) == want
        assert table.misses == misses and len(reads) == 1

    @pytest.mark.parametrize("fork", ["recorded", "unrecorded", "coin"])
    def test_a_fork_at_another_weight_is_never_stored(self, fork, table, monkeypatch):
        monkeypatch.setattr(harness, "build_attack", _tilted(fork))
        if fork == "coin":
            error, match = TypeError, "only random"
        else:
            error, match = RuntimeError, "other than at a recorded Born weight of 1/2"
        # On a cold table, then on a full one, which leaves every play unstored.
        for bound in (MAX_TABLE_ENTRIES, 0):
            monkeypatch.setattr(replay, "MAX_TABLE_ENTRIES", bound)
            for seed in range(4):
                cfg = SimConfig(strategy="a1", rounds=200, seed=seed, hadamard_bias=0.3)
                with pytest.raises(error, match=match):
                    run_simulation(cfg)
            assert (table.entries, table.hits) == (0, 0) and not any(node.edges for node in table._nodes.values()), bound

    @pytest.mark.parametrize("fork", ["recorded", "unrecorded"])
    def test_an_enumeration_that_forks_at_another_weight_raises(self, fork, table, monkeypatch):
        monkeypatch.setattr(harness, "build_attack", _tilted(fork))
        scenario = Scenario("revised", revised_plans((1, 0), (0, 1)), strategy="a1")
        with pytest.raises(RuntimeError, match="other than at a recorded Born weight of 1/2"):
            enumerate_branches(scenario)
        assert (table.entries, table.hits) == (0, 0) and not any(node.edges for node in table._nodes.values())

    def test_entries_never_exceed_the_bound(self, table, monkeypatch):
        monkeypatch.setattr(replay, "MAX_TABLE_ENTRIES", 5)
        for seed in range(2):
            for variant, strategy in PAIRS:
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=200, seed=seed)
                got = _session_bytes(*_table_session(cfg, monkeypatch))
                assert got == _session_bytes(*_reference_session(cfg))
                assert table.entries <= 5
        assert table.entries == 5 and table.hits > 0

    def test_sessions_in_threads_share_one_table(self, table, monkeypatch):
        def rounds_bytes(world, attack, transcripts):
            attack_part = None if attack is None else repr((attack.records, attack.inferred))
            return transcripts_to_jsonl(transcripts), attack_part, world.amps.tobytes()

        # Every session runs twice: with transcripts built from its rows, and
        # with its rows alone, which give the report's figures.
        cfgs = [SimConfig(variant=v, strategy=s, rounds=120, seed=seed) for seed in range(3) for v, s in PAIRS]
        inputs = [(cfg, transcribe) for cfg in cfgs for transcribe in (True, False)]
        want = []
        for cfg in cfgs:
            r, transcripts, attack, world = _reference_session(cfg)
            transcribed = rounds_bytes(world, attack, transcripts)
            figures = repr((r.honest_error_rate, r.detected, r.checked_rounds, r.eve_accuracy, r.mode_breakdown))
            want += [transcribed, (figures, *transcribed[1:])]
        got = {}

        def work(first):
            for i in range(first, len(inputs), 4):
                cfg, transcribe = inputs[i]
                world, attack, rows = harness._play_session(cfg)
                if transcribe:
                    rows = session_transcripts(rows)
                rate, detected, checked = check_phase(
                    rows, cfg.check_fraction, stream(cfg.seed, harness.STREAM_CHECK), cfg.detect_threshold
                )
                got[i] = rounds_bytes(world, attack, rows if transcribe else [])
                if not transcribe:
                    eve = harness._score_eve(attack, rows, checked)
                    figures = repr((rate, detected, len(checked), eve, harness._mode_breakdown(rows)))
                    got[i] = (figures, *got[i][1:])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert [got.get(i) for i in range(len(inputs))] == want
        assert table.hits > 0

    def test_sessions_make_no_scalar_numpy_draw(self, table, monkeypatch):
        class RawOnly:
            """A bit generator that hands out raw words and nothing else: no
            numpy ``Generator`` can be built on it."""

            __slots__ = ("random_raw",)

            def __init__(self, bits):
                self.random_raw = bits.random_raw

        cfgs = [SimConfig(variant=variant, strategy=strategy, rounds=500, seed=11) for variant, strategy in PAIRS]
        # The reference draws through numpy, so it runs before the patch.
        wants = [_session_bytes(*_reference_session(cfg)) for cfg in cfgs]
        real, wrapped = harness.pcg64, set()

        def raw_only(seed, *key):
            if key == (harness.STREAM_CHECK,):
                return real(seed, *key)
            wrapped.add(key)
            return RawOnly(real(seed, *key))

        monkeypatch.setattr(harness, "pcg64", raw_only)
        for cfg, want in zip(cfgs, wants):
            assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, ("cold", cfg.variant, cfg.strategy)
            assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, ("warm", cfg.variant, cfg.strategy)
        assert table.hits > 0 and {(k,) for k in (harness.STREAM_ALICE, harness.STREAM_BOB, harness.STREAM_ATTACK)} <= wrapped

    def test_sessions_set_up_only_the_streams_they_draw(self, table, monkeypatch):
        real = harness.pcg64
        opened = []
        monkeypatch.setattr(harness, "pcg64", lambda seed, k: opened.append(k) or real(seed, k))
        sessions = [dict(rounds=1, seed=0), dict(rounds=5, seed=1), dict(rounds=24, seed=2), dict(rounds=300, seed=3)]
        seen = {}
        for variant, strategy in PAIRS:
            for fraction in (0.25, 1.0):
                streams = seen[variant, strategy, fraction] = set()
                for kwargs in sessions:
                    cfg = SimConfig(variant=variant, strategy=strategy, check_fraction=fraction, **kwargs)
                    want = _session_bytes(*_reference_session(cfg))
                    table.clear()
                    for temperature in ("cold", "warm"):
                        opened.clear()
                        assert _session_bytes(*_table_session(cfg, monkeypatch)) == want, (temperature, cfg)
                        assert opened[0] == harness.STREAM_ALICE and len(set(opened)) == len(opened), opened
                        streams.update(opened)
        for (variant, strategy, fraction), streams in seen.items():
            if fraction == 1.0:
                assert harness.STREAM_CHECK not in streams, (variant, strategy)
            if strategy == "none":
                assert harness.STREAM_ATTACK not in streams, variant
            if (variant, strategy) == ("original", "none"):
                assert harness.STREAM_CHARLIE not in streams
        # Every stream is still set up where it is drawn.
        assert set.union(*seen.values()) == set(range(5))

    def test_a_warm_session_builds_no_numpy_generator_for_its_streams(self, table, monkeypatch):
        # A session stream decodes its bit generator's raw words itself;
        # only the check stream, drawn as a sample, is a numpy Generator.
        real, built = np.random.Generator, []
        monkeypatch.setattr(np.random, "Generator", lambda bits: built.append(bits) or real(bits))
        for variant, strategy in PAIRS:
            for fraction, generators in ((1.0, 0), (0.25, 1)):
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=40, seed=6, check_fraction=fraction)
                want = run_simulation(cfg)  # warms the table
                built.clear()
                assert run_simulation(cfg) == want
                assert len(built) == generators, (variant, strategy, fraction)

    @pytest.mark.parametrize("variant,strategy", PAIRS)
    def test_a_warm_session_builds_no_plan_and_transcripts_only_on_request(
        self, variant, strategy, table, monkeypatch
    ):
        built = {RoundPlan: 0, RoundTranscript: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        transcribe = harness.session_transcripts

        def counting_transcripts(rows):
            transcripts = transcribe(rows)
            built[RoundTranscript] += len(transcripts)
            return transcripts

        monkeypatch.setattr(harness, "session_transcripts", counting_transcripts)
        cfg = SimConfig(variant=variant, strategy=strategy, rounds=500, seed=3)
        run_simulation(cfg)  # records every round the session plays
        for transcripts in (None, []):
            built.update({RoundPlan: 0, RoundTranscript: 0})
            misses = table.misses
            run_simulation(cfg, transcripts)
            assert table.misses == misses  # every round is replayed
            assert built[RoundPlan] == 0
            assert built[RoundTranscript] == (0 if transcripts is None else 500)

    def test_a_cold_session_without_transcripts_keeps_only_its_rows(self, table, monkeypatch):
        played = []

        def capture(inner):
            def play(*args):
                world, t = inner(*args)
                played.append(t)
                return world, t

            return play

        def session(cfg):
            world, attack, rows = inner_session(cfg)
            leaves = {id(payload[0]) for payload in _leaf_payloads(table)}
            assert all(type(row) is tuple and id(row) in leaves for row in rows)
            return world, attack, rows

        inner_session = harness._play_session
        monkeypatch.setattr(harness, "original_round", capture(original_round))
        monkeypatch.setattr(harness, "revised_round", capture(revised_round))
        monkeypatch.setattr(harness, "_play_session", session)
        for variant, strategy in PAIRS:
            table.clear()
            played.clear()
            report = run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=200, seed=5, check_fraction=1.0))
            assert report.checked_rounds == 200
            assert len(played) == table.misses > 0
            assert not any(ev["event"] == "check_announced" for t in played for ev in t.events), (variant, strategy)

    def test_cold_statevector_plays_keep_the_trace_contract(self, table, monkeypatch):
        # The benchmark's tracer wraps ``harness.original_round`` and
        # ``harness.revised_round`` and reads the plan at args[1], the
        # attack at args[4] and the transcript at result[1].
        calls = []

        def wrap(inner):
            def traced(*args, **kwargs):
                result = inner(*args, **kwargs)
                calls.append((args, kwargs, result))
                return result

            return traced

        monkeypatch.setattr(harness, "original_round", wrap(original_round))
        monkeypatch.setattr(harness, "revised_round", wrap(revised_round))
        for transcripts in (None, []):
            for variant, strategy in PAIRS:
                table.clear()
                calls.clear()
                run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=300, seed=9), transcripts)
                assert len(calls) == table.misses > 0, (variant, strategy)
                attacks = {id(args[4]) for args, _, _ in calls}
                assert len(attacks) == 1  # the session's own attack
                for args, kwargs, result in calls:
                    assert not kwargs and len(args) == 5
                    assert type(args[1]) is RoundPlan
                    assert getattr(args[4], "name", "none") == strategy
                    assert type(result[1]) is RoundTranscript and result[1].round_index == args[1].round_index

    def test_enumeration_on_a_warm_table_matches_a_cold_one(self, table):
        scenarios = [
            Scenario("original", original_plans((1, 0, 1, 1, 0)), strategy="a2"),
            *DISHONEST_FORKING[:2],
            *_random_revised_scenarios("a2-probe", 4, seed=8),
        ]
        cold = []
        for scenario in scenarios:
            table.clear()
            cold.append([_fingerprint(b) for b in enumerate_branches(scenario)])
        table.clear()
        for variant, strategy in PAIRS:
            run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=300, seed=6))
        for scenario in scenarios:
            enumerate_branches(scenario)
        misses = table.misses
        warm = [[_fingerprint(b) for b in enumerate_branches(scenario)] for scenario in reversed(scenarios)]
        assert warm[::-1] == cold
        assert table.misses == misses  # every round of the second pass is replayed

    def test_every_leaf_weighs_the_born_weights_it_recorded(self, table):
        for variant, strategy in PAIRS:
            for seed, bias in ((0, 0.5), (1, 0.3)):
                run_simulation(SimConfig(variant=variant, strategy=strategy, rounds=300, seed=seed, hadamard_bias=bias))
        for scenario in (*GATE2, *GATE5, *DISHONEST_FORKING):
            enumerate_branches(scenario)
        weights = set()
        # Each stored tree with the number of random() forks on the path to it.
        trees = [(tree, 0) for stored in table._nodes.values() for tree in stored.edges.values()]
        while trees:
            tree, forks = trees.pop()
            if tree is None:
                continue
            if type(tree[0]) is int:
                trees += [(sub, forks + (tree[0] & 1 == 0)) for sub in tree[1:]]
                continue
            payload = tree[1]
            t, recorded = session_transcripts([payload[0]])[0], payload[1]
            weight = math.prod(r.probability for r in (*t.records, *(recorded[0] if recorded else ())))
            assert weight == 0.5 ** forks
            weights.add(weight)
        assert {1.0, 0.5, 0.25} <= weights

    def test_an_unstored_enumeration_weighs_its_branches_alike(self, table, monkeypatch):
        monkeypatch.setattr(replay, "MAX_TABLE_ENTRIES", 0)
        for scenario in (GATE2[45], GATE5[6], DISHONEST_FORKING[0]):
            walked = [_fingerprint(b) for b in enumerate_branches(scenario)]
            assert walked == [_fingerprint(b) for b in _replay_branches(scenario)]
        assert (table.entries, table.hits) == (0, 0) and table.misses > 0
        assert not any(node.edges for node in table._nodes.values())

    def test_every_round_counts_once_as_a_hit_or_a_miss_and_a_miss_replays_nothing(self, table, monkeypatch):
        # What happens in each round, in order: a miss, a replay onto the attack, its row.
        events = []
        play_rounds, record, replay_round = RoundTable.play_rounds, RoundTable._record, ChannelAttack.replay_round

        def playing(self, script, node, plans, attack, first=1):
            rows = []
            for i, plan in enumerate(plans, first):  # one round at a time, to mark each row
                node, played = play_rounds(self, script, node, [plan], attack, i)
                events.append("row")
                rows += played
            return node, rows

        def recording(self, *args):
            events.append("miss")
            return record(self, *args)

        def replaying(self, round_index, recorded):
            events.append("replay")
            replay_round(self, round_index, recorded)

        monkeypatch.setattr(RoundTable, "play_rounds", playing)
        monkeypatch.setattr(RoundTable, "_record", recording)
        monkeypatch.setattr(ChannelAttack, "replay_round", replaying)
        honest = [Scenario("original", original_plans((0, 1, 1))), Scenario("revised", revised_plans((1, 0), (0, 1)))]
        table.clear()
        for warm in (False, True):
            misses = table.misses
            for variant, strategy in PAIRS:
                cfg = SimConfig(variant=variant, strategy=strategy, rounds=120, seed=8)
                before = table.hits + table.misses
                run_simulation(cfg)
                assert table.hits + table.misses - before == cfg.rounds, (warm, variant, strategy)
            for scenario in (*honest, GATE2[5], GATE5[2], GATE5[5], DISHONEST_FORKING[1]):
                before = table.hits + table.misses
                branches = enumerate_branches(scenario)
                assert table.hits + table.misses - before == len(branches) * len(scenario.plans), (warm, scenario)
            assert (table.misses == misses) == warm
        assert (events.count("miss"), events.count("row")) == (table.misses, table.hits + table.misses)
        # A miss leaves its round applied to the attack by the play; only a hit replays it.
        assert "replay" in events and ("miss", "replay") not in set(itertools.pairwise(events))

    def test_a_round_that_raises_still_counts_the_hits_before_it(self, table, monkeypatch):
        cfg = SimConfig(variant="original", strategy="a2", rounds=100, seed=3)
        run_simulation(cfg)  # records every round the session plays
        replay_round = ChannelAttack.replay_round

        def raising(self, round_index, recorded):
            if round_index == 50:
                raise KeyError("round 50")
            replay_round(self, round_index, recorded)

        monkeypatch.setattr(ChannelAttack, "replay_round", raising)
        before, misses = table.hits + table.misses, table.misses
        with pytest.raises(KeyError, match="round 50"):
            run_simulation(cfg)
        # Rounds 1 to 50 were hits; round 50 raised as it replayed onto the attack.
        assert table.hits + table.misses - before == 50 and table.misses == misses

    @pytest.mark.parametrize("variant,strategy", PAIRS)
    def test_a_warm_sessions_rows_are_its_leaves_args(self, variant, strategy, table, monkeypatch):
        # A session keeps one plan class and one row per round, and a row is
        # the args tuple its leaf stores, by reference.
        cfg = SimConfig(variant=variant, strategy=strategy, rounds=300, seed=7, hadamard_bias=0.3)
        run_simulation(cfg)  # records every round the session plays
        seen, inner = [], RoundTable.play_rounds

        def spy(self, script, node, plans, attack, first=1):
            end, rows = inner(self, script, node, plans, attack, first)
            seen.append((plans, rows))
            return end, rows

        monkeypatch.setattr(RoundTable, "play_rounds", spy)
        misses = table.misses
        run_simulation(cfg)
        assert table.misses == misses  # every round was replayed
        ((plans, rows),) = seen
        assert len(plans) == len(rows) == 300
        assert all(type(plan_class) is harness.PlanClass for plan_class in plans)
        payloads = {id(payload[0]): payload[0] for payload in _leaf_payloads(table)}
        assert all(payloads.get(id(row)) is row for row in rows)

    # Each single-encoding class that targets w1 or w2, at coin 0 from chi:
    # its honest decode draws nothing, so only the attack's draws fork.
    SINGLES = [harness._class_of(RoundPlan(1, SinglePair(0, 0, target), 0)) for target in (W1, W2)]

    def test_a_round_that_draws_less_than_its_recording_raises(self, table):
        attack = _CountingAttack(draws=(1, 0))
        tape = harness._Tape(0)
        tape.bits[:] = [0, 1]  # the first round's ancilla reads 0, the walk of the second takes 1
        script = Script((tape,) * 3)
        start = table.node(chi_state(), 0, attack)
        table.play_rounds(script, start, [self.SINGLES[0]], attack)
        # The walk draws the recorded fork, misses below it, and the
        # statevector play then draws nothing.
        with pytest.raises(RuntimeError, match="drew less than its recording: the round table key misses state"):
            table.play_rounds(script, start, [self.SINGLES[0]], attack, 2)

    @pytest.mark.parametrize("first,second", [(1, 0), (0, 1)], ids=["ends-at-a-fork", "goes-past-a-leaf"])
    def test_a_round_that_forks_unlike_its_recording_raises(self, first, second, table, monkeypatch):
        # Session A stores two trees: its second round draws ``first`` times.
        monkeypatch.setattr(replay, "MAX_TABLE_ENTRIES", 2)
        tape = harness._Tape(0)
        tape.bits[:] = [1]  # the one ancilla, A's or B's, reads 1
        script = Script((tape,) * 3)
        a = _CountingAttack(draws=(0, first))
        start = table.node(chi_state(), 0, a)
        node, _ = table.play_rounds(script, start, [self.SINGLES[0]], a)
        table.play_rounds(script, node, [self.SINGLES[0]], a, 2)
        assert table.entries == 2
        # Session B plays another class at the start node of the full table,
        # so its leaf names an unstored node with the key A stored.
        b = _CountingAttack(draws=(0, second))
        unstored, _ = table.play_rounds(script, table.node(chi_state(), 0, b), [self.SINGLES[1]], b)
        assert unstored is not node and table._node(unstored) is node and not unstored.edges
        # B's next round misses there, draws ``second`` times and grows A's tree.
        with pytest.raises(RuntimeError, match="forked unlike its recording: the round table key misses state"):
            table.play_rounds(script, unstored, [self.SINGLES[0]], b, 2)
