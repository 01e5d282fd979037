"""Tests for fragment tensor construction and physicality projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as rk
from repro.apps.qaoa import near_clifford_qaoa
from repro.circuits import Circuit, gates, random_clifford_circuit
from repro.core import SuperSim, cut_circuit, find_cuts
from repro.core.evaluator import (
    AffineVariantData,
    FragmentData,
    FragmentEvaluator,
    VariantData,
)
from repro.core.tomography import (
    _conditioned_signed_vector,
    _snap,
    _snap_vector,
    build_conditioned_fragment_tensor,
    build_fragment_tensor,
    build_sparse_fragment_tensor,
    project_physical,
)
from repro.errors import ReproError, SupportTooLargeError
from repro.stabilizer import StabilizerSimulator
from repro.stabilizer.tableau import MAX_ENUMERATED_RANK, AffineOutcomeDistribution
from repro.statevector import StatevectorSimulator

SV = StatevectorSimulator()
STAB = StabilizerSimulator()


def evaluated_fragments(circuit, shots=None, rng=None):
    cc = cut_circuit(circuit, find_cuts(circuit))
    evaluator = FragmentEvaluator(shots=shots, rng=rng)
    return cc, [evaluator.evaluate(f) for f in cc.fragments]


def t_mid_circuit():
    c = Circuit(2)
    c.append(gates.H, 0).append(gates.CX, 0, 1)
    c.append(gates.T, 1)
    c.append(gates.H, 1)
    return c


class TestSnap:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.9, 1.0), (1.0, 1.0), (0.3, 0.0), (0.0, 0.0), (-0.4, 0.0),
         (-0.8, -1.0), (0.51, 1.0), (-0.51, -1.0)],
    )
    def test_values(self, value, expected):
        assert _snap(value) == expected


class TestFragmentTensor:
    def test_identity_slice_is_probability_distribution(self):
        """T[I..., I...] marginalises to the variant's output distribution."""
        circuit = t_mid_circuit()
        cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            identity_index = (0,) * (
                len(fragment.quantum_inputs) + len(fragment.quantum_outputs)
            )
            vec = tensor[identity_index]
            assert np.all(vec >= -1e-9)
            # total probability: 2 per quantum input (I = r0 + r1 has trace 2)
            expected_total = 2.0 ** len(fragment.quantum_inputs)
            assert np.isclose(vec.sum(), expected_total, atol=1e-9)

    def test_pauli_entries_bounded(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            bound = 2.0 ** len(fragment.quantum_inputs) + 1e-9
            assert np.all(np.abs(tensor) <= bound)

    def test_sparse_matches_dense(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            dense = build_fragment_tensor(frag_data, kept)
            sparse = build_sparse_fragment_tensor(frag_data, kept)
            for combo, vec in sparse.items():
                dense_vec = dense[combo]
                for x, v in vec.items():
                    assert np.isclose(v, dense_vec[x], atol=1e-9)
                # entries absent from the sparse dict must be zero
                present = set(vec)
                for x in range(len(dense_vec)):
                    if x not in present:
                        assert abs(dense_vec[x]) < 1e-9

    def test_clifford_fragment_entries_snap_invariant(self):
        """On exact Clifford data, snapping must be a no-op."""
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        clifford = [d for d in data if d.fragment.is_clifford]
        assert clifford
        for frag_data in clifford:
            kept = [lq for _oq, lq in frag_data.fragment.circuit_outputs]
            plain = build_fragment_tensor(frag_data, kept, snap_clifford=False)
            snapped = build_fragment_tensor(frag_data, kept, snap_clifford=True)
            assert np.allclose(plain, snapped, atol=1e-9)


class TestPhysicalityProjection:
    def test_exact_data_unchanged(self):
        """Exact fragment models are already physical: projection is identity."""
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit)
        for frag_data in data:
            fragment = frag_data.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            projected = project_physical(tensor, qi, qo)
            assert np.allclose(projected, tensor, atol=1e-8)

    def test_idempotent(self):
        circuit = t_mid_circuit()
        _cc, data = evaluated_fragments(circuit, shots=200, rng=0)
        for frag_data in data:
            fragment = frag_data.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            tensor = build_fragment_tensor(frag_data, kept)
            once = project_physical(tensor, qi, qo)
            twice = project_physical(once, qi, qo)
            assert np.allclose(once, twice, atol=1e-8)

    def test_projection_moves_toward_truth_on_noisy_data(self):
        rng = np.random.default_rng(5)
        circuit = t_mid_circuit()
        cc_exact, exact_data = evaluated_fragments(circuit)
        _cc, noisy_data = evaluated_fragments(circuit, shots=150, rng=rng)
        for exact, noisy in zip(exact_data, noisy_data):
            fragment = noisy.fragment
            qi = len(fragment.quantum_inputs)
            qo = len(fragment.quantum_outputs)
            if qi + qo == 0:
                continue
            kept = [lq for _oq, lq in fragment.circuit_outputs]
            truth = build_fragment_tensor(exact, kept)
            raw = build_fragment_tensor(noisy, kept)
            fixed = project_physical(raw, qi, qo)
            # Frobenius distance to the true tensor must not grow much
            assert np.linalg.norm(fixed - truth) <= np.linalg.norm(raw - truth) + 1e-6


# -- closed-form exact Clifford readout ------------------------------------------


class EnumeratedVariantData(AffineVariantData):
    """The oracle: read an affine variant out through its enumerated joint."""

    signed_outcomes = VariantData.signed_outcomes


def readouts(variant, kept, out, mask, snap):
    """(vec, weight) exactly as the dense tomography path folds them."""
    vec, weight = _conditioned_signed_vector(variant, kept, [], [], out, mask, True)
    if snap and mask:
        vec = _snap_vector(vec, weight)
    return vec, weight


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def all_masks(qo):
    return [[j for j in range(qo) if m >> j & 1] for m in range(1 << qo)]


def correlated_clifford(n, rng):
    """H on some qubits, X on some, then a CX network: Z outcomes that are
    linear functions of a few free bits, so measured-Pauli signs are often
    non-constant functions of the kept bits."""
    c = Circuit(n)
    for q in range(n):
        if rng.random() < 0.5:
            c.append(gates.H, q)
        if rng.random() < 0.3:
            c.append(gates.X, q)
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        a, b = rng.choice(n, 2, replace=False)
        c.append(gates.CX, int(a), int(b))
    return c


def clifford_splits():
    """(affine form, kept columns, measured columns) of a random Clifford."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, 10))
        seed = draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        if draw(st.booleans()):
            circuit = random_clifford_circuit(n, draw(st.integers(0, 6)), rng)
        else:
            circuit = correlated_clifford(n, rng)
        affine = STAB.affine_distribution(circuit)
        cols = [int(c) for c in rng.permutation(n)]
        qo = draw(st.integers(0, min(3, n)))
        n_kept = draw(st.integers(0, n - qo))
        return affine, cols[qo : qo + n_kept], cols[:qo]

    return build()


class TestClosedFormReadout:
    @given(clifford_splits(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_enumerated_joint(self, split, snap):
        affine, kept, out = split
        closed = AffineVariantData(affine)
        oracle = EnumeratedVariantData(affine)
        for mask in all_masks(len(out)):
            keys, _signed, _probs = affine.signed_marginal(
                kept, [out[j] for j in mask]
            )
            assert np.all(np.diff(keys) > 0)
            vec, weight = readouts(closed, kept, out, mask, snap)
            want_vec, want_weight = readouts(oracle, kept, out, mask, snap)
            assert_bit_identical(vec, want_vec)
            assert_bit_identical(weight, want_weight)

    def test_pauli_undetermined_by_kept_bits(self):
        """Z on an independent |+> qubit: zero vector, non-zero weight."""
        c = Circuit(2)
        c.append(gates.H, 0).append(gates.H, 1)
        affine = STAB.affine_distribution(c)
        for variant in (AffineVariantData(affine), EnumeratedVariantData(affine)):
            vec, weight = readouts(variant, [0], [1], [0], snap=False)
            assert_bit_identical(vec, np.zeros(2))
            assert_bit_identical(weight, np.full(2, 0.5))

    def test_pauli_determined_by_kept_bits(self):
        """Z on one half of a Bell pair is fixed by the other half's bit."""
        c = Circuit(2)
        c.append(gates.H, 0).append(gates.CX, 0, 1)
        affine = STAB.affine_distribution(c)
        vec, weight = readouts(AffineVariantData(affine), [0], [1], [0], snap=False)
        assert_bit_identical(vec, np.array([0.5, -0.5]))
        assert_bit_identical(weight, np.full(2, 0.5))

    def test_no_kept_bits(self):
        c = Circuit(2)
        c.append(gates.H, 0).append(gates.CX, 0, 1)
        affine = STAB.affine_distribution(c)
        for out, mask, want in (([0, 1], [0, 1], 1.0), ([0], [0], 0.0), ([1], [], 1.0)):
            vec, weight = readouts(AffineVariantData(affine), [], out, mask, snap=True)
            oracle = readouts(EnumeratedVariantData(affine), [], out, mask, snap=True)
            assert_bit_identical(vec, np.array([want]))
            assert_bit_identical(weight, np.array([1.0]))
            assert_bit_identical(vec, oracle[0])

    def test_deterministic_rank_zero_outcome(self):
        c = Circuit(3)
        c.append(gates.X, 0).append(gates.X, 2)
        affine = STAB.affine_distribution(c)
        keys, signed, probs = affine.signed_marginal([0, 1], [2])
        assert keys.tolist() == [0b10]
        assert signed.tolist() == [-1.0]
        assert probs.tolist() == [1.0]
        vec, weight = readouts(AffineVariantData(affine), [0, 1], [2], [0], snap=True)
        assert_bit_identical(vec, np.array([0.0, 0.0, -1.0, 0.0]))
        assert_bit_identical(weight, np.array([0.0, 0.0, 1.0, 0.0]))


class TestEveryPathReadsClosedForm:
    """Sparse and conditioned tensors match the enumerated path bit for bit."""

    @pytest.mark.parametrize("snap", [False, True])
    def test_sparse_and_conditioned_tensors(self, snap):
        _cc, data = evaluated_fragments(near_clifford_qaoa(10, num_t=1, rng=3))
        clifford = [d for d in data if d.fragment.is_clifford]
        assert clifford
        for closed in clifford:
            oracle = FragmentData(
                closed.fragment,
                {k: EnumeratedVariantData(v.affine) for k, v in closed.results.items()},
            )
            kept = [lq for _oq, lq in closed.fragment.circuit_outputs]
            got = build_sparse_fragment_tensor(closed, kept, snap_clifford=snap)
            want = build_sparse_fragment_tensor(oracle, kept, snap_clifford=snap)
            assert got.keys() == want.keys()
            for combo in got:
                assert np.array_equal(got[combo].keys, want[combo].keys)
                assert_bit_identical(got[combo].vals, want[combo].vals)
            fixed = {kept[0]: 1, kept[-1]: 0}
            window = kept[1:-1]
            assert_bit_identical(
                build_conditioned_fragment_tensor(closed, window, fixed, snap),
                build_conditioned_fragment_tensor(oracle, window, fixed, snap),
            )


def qaoa22_draw():
    return near_clifford_qaoa(22, rounds=1, num_t=1, rng=2340252344307787547)


class TestQaoa22ExactTomography:
    def test_dense_tomography_lists_no_joint(self, monkeypatch):
        circuit = qaoa22_draw()
        cc, data = evaluated_fragments(circuit)
        assert any(isinstance(v, AffineVariantData) for d in data for v in d.results.values())

        def spy(self, rows):
            raise AssertionError("dense exact tomography enumerated a joint")

        monkeypatch.setattr(AffineOutcomeDistribution, "marginal_distribution", spy)
        before = rk.counters_snapshot()["gf2_matmul"][0]
        for frag_data in data:
            kept = [lq for _oq, lq in frag_data.fragment.circuit_outputs]
            build_fragment_tensor(frag_data, kept)
        assert rk.counters_snapshot()["gf2_matmul"][0] == before

    def test_run_bit_identical_to_enumerated_path(self, monkeypatch):
        circuit = qaoa22_draw()
        closed = SuperSim().run(circuit).distribution
        monkeypatch.setattr(
            AffineVariantData, "signed_outcomes", VariantData.signed_outcomes
        )
        oracle = SuperSim().run(circuit).distribution
        assert np.array_equal(closed.keys_array, oracle.keys_array)
        assert_bit_identical(closed.values_array, oracle.values_array)


class TestSupportTooLarge:
    def test_typed_error_on_oversized_supports(self):
        affine = AffineOutcomeDistribution(np.eye(30, dtype=bool), np.zeros(30, bool))
        rows = list(range(30))
        for call in (
            lambda: affine.to_distribution(),
            lambda: affine.marginal_distribution(rows),
            lambda: affine.signed_marginal(rows, []),
        ):
            with pytest.raises(SupportTooLargeError) as info:
                call()
            assert isinstance(info.value, ValueError)
            assert isinstance(info.value, ReproError)
            assert info.value.rank > info.value.limit
        assert MAX_ENUMERATED_RANK < 30
