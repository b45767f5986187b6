"""Simulator kernel tests.

The gate checks compare ``apply_h`` / ``apply_cnot`` against dense
unitaries assembled independently with ``np.kron``, so a bug in the
index-table kernels cannot hide behind itself.  ``TestReferenceKernels``
keeps the earlier reshape-based kernels as a bit-for-bit reference.
"""

import numpy as np
import pytest

import ghzqss.qsim as qsim
from ghzqss.qsim import (
    ATOL,
    MAX_QUBITS,
    MeasurementRecord,
    PureState,
    apply_cnot,
    apply_h,
    basis_state,
    deviation_up_to_sign,
    discard,
    equal_up_to_sign,
    ghz_carrier,
    measure,
    prepare_pair_qbar,
    probability_of_one,
    reorder,
    state_from_terms,
    tensor,
)

I2 = np.eye(2)
X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
P0 = np.array([[1.0, 0.0], [0.0, 0.0]])
P1 = np.array([[0.0, 0.0], [0.0, 1.0]])


class _NoDraw:
    """Measurement rng that must never be consulted."""

    def random(self):
        raise AssertionError("rng consulted for a deterministic measurement")


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _h_matrix(n, k):
    return _kron_chain([H2 if i == k else I2 for i in range(n)])


def _cnot_matrix(n, kc, kt):
    term0 = _kron_chain([P0 if i == kc else I2 for i in range(n)])
    term1 = _kron_chain([P1 if i == kc else (X2 if i == kt else I2) for i in range(n)])
    return term0 + term1


def _labels(n):
    return tuple(f"q{i}" for i in range(n))


def _random_state(rng, n):
    amps = rng.normal(size=2**n)
    amps /= np.sqrt(np.dot(amps, amps))
    return state_from_terms(_labels(n), {format(i, f"0{n}b"): a for i, a in enumerate(amps)})


def _bit_of(index, n, k):
    return (index >> (n - 1 - k)) & 1


class TestGateOracles:
    def test_hadamard_matches_kron_matrix(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n))
            st = _random_state(rng, n)
            got = apply_h(st, f"q{k}")
            want = _h_matrix(n, k) @ st.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)

    def test_cnot_matches_kron_matrix(self):
        rng = np.random.default_rng(202)
        for _ in range(120):
            n = int(rng.integers(2, 7))
            kc, kt = rng.choice(n, size=2, replace=False)
            st = _random_state(rng, n)
            got = apply_cnot(st, f"q{kc}", f"q{kt}")
            want = _cnot_matrix(n, int(kc), int(kt)) @ st.amps
            np.testing.assert_allclose(got.amps, want, atol=1e-12)

    def test_hadamard_is_an_involution(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n))
            st = _random_state(rng, n)
            back = apply_h(apply_h(st, f"q{k}"), f"q{k}")
            np.testing.assert_allclose(back.amps, st.amps, atol=1e-12)

    def test_cnot_is_an_involution(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            kc, kt = rng.choice(n, size=2, replace=False)
            st = _random_state(rng, n)
            back = apply_cnot(apply_cnot(st, f"q{kc}", f"q{kt}"), f"q{kc}", f"q{kt}")
            np.testing.assert_allclose(back.amps, st.amps, atol=1e-12)

    def test_random_circuits_preserve_norm(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            st = _random_state(rng, n)
            for _ in range(10):
                if rng.random() < 0.5:
                    st = apply_h(st, f"q{rng.integers(0, n)}")
                else:
                    kc, kt = rng.choice(n, size=2, replace=False)
                    st = apply_cnot(st, f"q{kc}", f"q{kt}")
            assert abs(np.dot(st.amps, st.amps) - 1.0) < 1e-12

    def test_cnot_rejects_equal_control_and_target(self):
        st = _random_state(np.random.default_rng(1), 2)
        with pytest.raises(ValueError, match="must differ"):
            apply_cnot(st, "q0", "q0")

    def test_unknown_label_raises(self):
        st = _random_state(np.random.default_rng(2), 2)
        with pytest.raises(KeyError):
            apply_h(st, "nope")
        with pytest.raises(KeyError):
            probability_of_one(st, "nope")


class TestMeasurement:
    def test_probability_matches_amplitude_sum(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n))
            st = _random_state(rng, n)
            mask = np.array([_bit_of(i, n, k) for i in range(2**n)], dtype=bool)
            want = float(np.sum(st.amps[mask] ** 2))
            assert abs(probability_of_one(st, f"q{k}") - want) < 1e-12

    def test_measure_collapses_and_renormalizes(self):
        rng = np.random.default_rng(707)
        draws = np.random.default_rng(708)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(0, n))
            st = _random_state(rng, n)
            p1 = probability_of_one(st, f"q{k}")
            rec, post = measure(st, f"q{k}", draws)
            assert rec.qubit == f"q{k}"
            assert rec.outcome in (0, 1)
            want_p = p1 if rec.outcome == 1 else 1.0 - p1
            assert abs(rec.probability - want_p) < 1e-12
            assert abs(np.dot(post.amps, post.amps) - 1.0) < 1e-12
            p_after = probability_of_one(post, f"q{k}")
            assert abs(p_after - rec.outcome) < 1e-12

    def test_chained_records_multiply_to_basis_weight(self):
        # Measuring every qubit in sequence realizes one basis index; the
        # product of the record probabilities must equal that index's
        # squared amplitude in the original state.
        rng = np.random.default_rng(808)
        draws = np.random.default_rng(809)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            st = _random_state(rng, n)
            post = st
            prob = 1.0
            index = 0
            for k in range(n):
                rec, post = measure(post, f"q{k}", draws)
                prob *= rec.probability
                index = (index << 1) | rec.outcome
            assert abs(prob - st.amps[index] ** 2) < 1e-12

    def test_degenerate_measurement_never_consults_rng(self):
        # Definite qubits must be read out without burning a draw, or
        # transcripts would stop being reproducible across attack setups.
        rec, _ = measure(basis_state([("a", 0)]), "a", _NoDraw())
        assert (rec.outcome, rec.probability) == (0, 1.0)
        rec, _ = measure(basis_state([("a", 1)]), "a", _NoDraw())
        assert (rec.outcome, rec.probability) == (1, 1.0)
        # Entangled yet definite on a third qubit.
        st = tensor(ghz_carrier(("x", "y", "z")), basis_state([("w", 1)]))
        rec, _ = measure(st, "w", _NoDraw())
        assert rec.outcome == 1

    def test_measurement_frequencies_follow_born_rule(self):
        st = state_from_terms(("a",), {"0": 0.6, "1": 0.8})
        rng = np.random.default_rng(42)
        n = 4000
        ones = sum(measure(st, "a", rng)[0].outcome for _ in range(n))
        p_hat = ones / n
        sigma = np.sqrt(0.64 * 0.36 / n)
        assert abs(p_hat - 0.64) < 4 * sigma


class TestConstructors:
    def test_basis_state_orders_most_significant_first(self):
        st = basis_state([("a", 1), ("b", 0), ("c", 1)])
        assert st.labels == ("a", "b", "c")
        assert st.amps[0b101] == 1.0
        assert np.sum(np.abs(st.amps)) == 1.0

    def test_basis_state_rejects_bad_bits_and_empty(self):
        with pytest.raises(ValueError, match="0 or 1"):
            basis_state([("a", 2)])
        with pytest.raises(ValueError, match="at least one"):
            basis_state([])

    @pytest.mark.parametrize("bit", [1.0, True, np.int64(1), None], ids=["float", "bool", "numpy-int", "None"])
    def test_basis_state_takes_only_the_ints_0_and_1(self, bit):
        with pytest.raises(ValueError, match="int 0 or 1"):
            basis_state([("a", 0), ("b", bit)])

    def test_nan_amplitudes_are_rejected(self):
        with pytest.raises(ValueError, match="norm nan"):
            state_from_terms(["a"], {"0": float("nan")})
        for amps in ([np.nan, 0.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="norm nan"):
                qsim._make(("a",), np.array(amps))

    def test_state_from_terms_requires_normalized_input(self):
        with pytest.raises(ValueError, match="normalized"):
            state_from_terms(("a", "b"), {"00": 0.5, "11": 0.5})

    def test_state_from_terms_rejects_bad_bitstrings(self):
        with pytest.raises(ValueError, match="bad bitstring"):
            state_from_terms(("a", "b"), {"0": 1.0})
        with pytest.raises(ValueError, match="bad bitstring"):
            state_from_terms(("a",), {"2": 1.0})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            state_from_terms(("a", "a"), {"00": 1.0})

    def test_ghz_carrier_form(self):
        st = ghz_carrier()
        assert st.labels == ("a", "b", "c")
        np.testing.assert_allclose(st.amps[[0, 7]], 1.0 / np.sqrt(2.0))
        assert np.all(st.amps[1:7] == 0.0)
        with pytest.raises(ValueError, match="three"):
            ghz_carrier(("a", "b"))

    @pytest.mark.parametrize("q", [0, 1])
    def test_pair_encoding_has_constant_xor(self, q):
        st = prepare_pair_qbar(q)
        for idx in np.nonzero(st.amps)[0]:
            assert (_bit_of(idx, 2, 0) ^ _bit_of(idx, 2, 1)) == q

    def test_pair_encoding_rejects_bad_payload(self):
        for q in (2, True, 1.0):  # the int 0 or 1 only, as for basis_state
            with pytest.raises(ValueError, match="payload"):
                prepare_pair_qbar(q)

    def test_amplitudes_are_frozen(self):
        st = ghz_carrier()
        with pytest.raises(ValueError):
            st.amps[0] = 0.5


class TestTensorDiscardReorder:
    def test_tensor_matches_kron(self):
        rng = np.random.default_rng(909)
        for _ in range(100):
            nl = int(rng.integers(1, 4))
            nr = int(rng.integers(1, 4))
            left = _random_state(rng, nl)
            r_amps = rng.normal(size=2**nr)
            r_amps /= np.sqrt(np.dot(r_amps, r_amps))
            right = state_from_terms(
                tuple(f"r{i}" for i in range(nr)),
                {format(i, f"0{nr}b"): a for i, a in enumerate(r_amps)},
            )
            joint = tensor(left, right)
            assert joint.labels == left.labels + right.labels
            np.testing.assert_allclose(joint.amps, np.kron(left.amps, right.amps), atol=1e-15)

    def test_tensor_rejects_label_collision(self):
        with pytest.raises(ValueError, match="collision"):
            tensor(basis_state([("a", 0)]), basis_state([("a", 1)]))

    def test_tensor_enforces_register_cap(self):
        left = basis_state([(f"x{i}", 0) for i in range(7)])
        right = basis_state([(f"y{i}", 0) for i in range(MAX_QUBITS - 6)])
        with pytest.raises(ValueError, match="cap"):
            tensor(left, right)

    def test_discard_removes_definite_qubit(self):
        rng = np.random.default_rng(111)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            st = _random_state(rng, n)
            joint = tensor(st, basis_state([("flag", 1)]))
            out = discard(joint, "flag")
            assert out.labels == st.labels
            np.testing.assert_allclose(out.amps, st.amps, atol=1e-12)

    def test_discard_after_measurement(self):
        rng = np.random.default_rng(112)
        st = _random_state(rng, 3)
        rec, post = measure(st, "q1", np.random.default_rng(5))
        out = discard(post, "q1")
        assert out.labels == ("q0", "q2")
        assert abs(np.dot(out.amps, out.amps) - 1.0) < 1e-12

    def test_discard_rejects_superposed_qubit(self):
        st = apply_h(basis_state([("a", 0), ("b", 0)]), "a")
        with pytest.raises(ValueError, match="not definite"):
            discard(st, "a")

    def test_discard_rejects_entangled_qubit(self):
        bell = apply_cnot(apply_h(basis_state([("a", 0), ("b", 0)]), "a"), "a", "b")
        with pytest.raises(ValueError, match="not definite"):
            discard(bell, "b")

    def test_discard_rejects_last_qubit(self):
        with pytest.raises(ValueError, match="last qubit"):
            discard(basis_state([("a", 0)]), "a")

    def test_reorder_permutes_amplitudes(self):
        rng = np.random.default_rng(113)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            st = _random_state(rng, n)
            perm = list(rng.permutation(n))
            new_labels = tuple(f"q{p}" for p in perm)
            out = reorder(st, new_labels)
            assert out.labels == new_labels
            for idx in range(2**n):
                src = 0
                for pos, p in enumerate(perm):
                    src |= _bit_of(idx, n, pos) << (n - 1 - p)
                assert out.amps[idx] == st.amps[src]
            back = reorder(out, st.labels)
            np.testing.assert_array_equal(back.amps, st.amps)

    def test_reorder_rejects_wrong_label_set(self):
        st = basis_state([("a", 0), ("b", 1)])
        with pytest.raises(ValueError, match="reorder"):
            reorder(st, ("a", "c"))
        with pytest.raises(ValueError, match="reorder"):
            reorder(st, ("a",))


class TestComparison:
    def test_global_sign_is_ignored(self):
        rng = np.random.default_rng(114)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            st = _random_state(rng, n)
            flipped = state_from_terms(
                st.labels, {format(i, f"0{n}b"): -a for i, a in enumerate(st.amps)}
            )
            assert equal_up_to_sign(st, flipped)
            assert deviation_up_to_sign(st, flipped) < 1e-15

    def test_states_are_equal_when_labels_and_amplitudes_are(self):
        assert ghz_carrier() == ghz_carrier()
        assert ghz_carrier() != ghz_carrier(("a", "b", "d"))
        # Equal up to sign is not equal.
        st = ghz_carrier()
        flipped = state_from_terms(st.labels, {"000": -st.amps[0], "111": -st.amps[7]})
        assert equal_up_to_sign(st, flipped) and st != flipped
        assert basis_state([("a", 0)]) != basis_state([("a", 1)])
        assert ghz_carrier() != ghz_carrier().labels
        with pytest.raises(TypeError, match="unhashable"):
            hash(ghz_carrier())

    def test_comparison_reorders_axes(self):
        st = tensor(basis_state([("a", 1)]), prepare_pair_qbar(1, ("x", "y")))
        shuffled = reorder(st, ("y", "a", "x"))
        assert equal_up_to_sign(st, shuffled)

    def test_matching_label_orders_skip_the_reorder(self, monkeypatch):
        real_reorder = qsim.reorder

        def guarded(state, labels):
            if tuple(labels) == state.labels:
                raise AssertionError("reorder called on matching label orders")
            return real_reorder(state, labels)

        monkeypatch.setattr(qsim, "reorder", guarded)
        st = ghz_carrier(("a", "b", "c"))
        assert deviation_up_to_sign(st, st) == 0.0
        assert equal_up_to_sign(st, reorder(st, ("c", "a", "b")))

    def test_deviation_equals_the_reordering_path(self):
        # Skipping the reorder must not change a single bit of the value.
        rng = np.random.default_rng(115)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = _random_state(rng, n)
            b = _random_state(rng, n)
            aligned = reorder(b, a.labels)
            want = min(
                float(np.max(np.abs(a.amps - aligned.amps))),
                float(np.max(np.abs(a.amps + aligned.amps))),
            )
            assert deviation_up_to_sign(a, b) == want
            assert deviation_up_to_sign(a, a) == 0.0

    def test_label_set_mismatch_raises(self):
        with pytest.raises(ValueError, match="label sets differ"):
            deviation_up_to_sign(basis_state([("a", 0)]), basis_state([("b", 0)]))

    def test_deviation_is_a_max_norm(self):
        a = state_from_terms(("x",), {"0": 1.0})
        b = state_from_terms(("x",), {"0": np.sqrt(1 - 1e-8), "1": 1e-4})
        dev = deviation_up_to_sign(a, b)
        assert 0 < dev < 2e-4
        assert not equal_up_to_sign(a, b)
        assert equal_up_to_sign(a, b, atol=1e-3)


# Reshape-based kernels: each qubit axis is viewed as (before, 2, after)
# and the gates are written as strided slice arithmetic.  Sampled draws and
# exact branch probabilities depend on the last bit of every amplitude and
# probability, so the table-driven kernels must reproduce these exactly.


def _ref_split(amps, n, k):
    return amps.reshape(1 << k, 2, 1 << (n - k - 1))


def _ref_h(amps, n, k):
    v = _ref_split(amps, n, k)
    s = 1.0 / np.sqrt(2.0)
    out = np.empty_like(amps)
    o = out.reshape(v.shape)
    o[:, 0] = (v[:, 0] + v[:, 1]) * s
    o[:, 1] = (v[:, 0] - v[:, 1]) * s
    return out


def _ref_cnot(amps, n, kc, kt):
    i, j = (kc, kt) if kc < kt else (kt, kc)
    out = amps.copy()
    v = out.reshape(1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - j - 1))
    if kc < kt:
        tmp = v[:, 1, :, 0, :].copy()
        v[:, 1, :, 0, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = tmp
    else:
        tmp = v[:, 0, :, 1, :].copy()
        v[:, 0, :, 1, :] = v[:, 1, :, 1, :]
        v[:, 1, :, 1, :] = tmp
    return out


def _ref_probability_of_one(amps, n, k):
    hi = _ref_split(amps, n, k)[:, 1]
    return float(np.einsum("ij,ij->", hi, hi))


def _ref_measure(amps, n, k, rng):
    p1 = _ref_probability_of_one(amps, n, k)
    if p1 < ATOL:
        outcome, prob = 0, 1.0
    elif 1.0 - p1 < ATOL:
        outcome, prob = 1, 1.0
    else:
        if abs(p1 - 0.5) < ATOL:
            p1 = 0.5
        outcome = 1 if rng.random() < p1 else 0
        prob = p1 if outcome == 1 else 1.0 - p1
    v = _ref_split(amps, n, k)
    out = np.zeros_like(amps)
    out.reshape(v.shape)[:, outcome] = v[:, outcome] / np.sqrt(prob)
    return outcome, float(prob), out


def _ref_discard(amps, n, k):
    value = 1 if _ref_probability_of_one(amps, n, k) > 0.5 else 0
    kept = np.array(_ref_split(amps, n, k)[:, value]).reshape(-1)
    kept /= np.sqrt(np.dot(kept, kept))
    return kept


class _Draw:
    """Measurement rng that returns one fixed value and counts its draws."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


class TestReferenceKernels:
    @staticmethod
    def _states(rng, n):
        """Random real states, plus collapsed ones whose zeros exercise signed-zero paths."""
        states = [_random_state(rng, n) for _ in range(4)]
        for st in list(states[:2]):
            k = int(rng.integers(0, n))
            states.append(measure(st, f"q{k}", rng)[1])
        return states

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gates_match_reference_bytes(self, n):
        rng = np.random.default_rng(900 + n)
        for st in self._states(rng, n):
            for k in range(n):
                got = apply_h(st, f"q{k}").amps
                assert got.tobytes() == _ref_h(st.amps, n, k).tobytes()
            for kc in range(n):
                for kt in range(n):
                    if kc != kt:
                        got = apply_cnot(st, f"q{kc}", f"q{kt}").amps
                        assert got.tobytes() == _ref_cnot(st.amps, n, kc, kt).tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_measurement_matches_reference_exactly(self, n):
        rng = np.random.default_rng(950 + n)
        for st in self._states(rng, n):
            for k in range(n):
                p1 = _ref_probability_of_one(st.amps, n, k)
                assert probability_of_one(st, f"q{k}") == p1
                # A draw equal to the reference probability sits on the
                # outcome boundary, so any last-bit drift flips the outcome.
                for u in (float(rng.random()), p1):
                    rec, post = measure(st, f"q{k}", _Draw(u))
                    outcome, prob, amps = _ref_measure(st.amps, n, k, _Draw(u))
                    assert (rec.outcome, rec.probability) == (outcome, prob)
                    assert post.amps.tobytes() == amps.tobytes()
                    if n > 1:
                        got = discard(post, f"q{k}").amps
                        assert got.tobytes() == _ref_discard(amps, n, k).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_measure_and_drop_matches_reference_then_discard(self, n):
        rng = np.random.default_rng(970 + n)
        for st in self._states(rng, n):
            for k in range(n):
                label = f"q{k}"
                for u in (float(rng.random()), _ref_probability_of_one(st.amps, n, k)):
                    ref_draw, draw = _Draw(u), _Draw(u)
                    outcome, prob, amps = _ref_measure(st.amps, n, k, ref_draw)
                    want = discard(PureState(st.labels, amps), label)
                    rec, got = measure(st, label, draw, drop=True)
                    assert rec == MeasurementRecord(label, outcome, prob)
                    assert got.labels == want.labels
                    assert got.amps.tobytes() == want.amps.tobytes()
                    assert draw.calls == ref_draw.calls

    def test_dropping_the_last_qubit_raises_before_any_draw(self):
        st = apply_h(basis_state([("q0", 0)]), "q0")
        with pytest.raises(ValueError, match="last qubit"):
            measure(st, "q0", _NoDraw(), drop=True)


def test_measurement_record_is_immutable():
    rec = MeasurementRecord("a", 1, 0.5)
    with pytest.raises(AttributeError):
        rec.outcome = 0


def test_pure_state_axis_lookup():
    st = basis_state([("a", 0), ("b", 0)])
    assert st.axis("b") == 1
    assert st.num_qubits == 2
    assert isinstance(st, PureState)
    assert ATOL == 1e-12
