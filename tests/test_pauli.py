import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqe import pauli
from dqe.errors import ConfigError, InvalidInstanceError, ResourceLimitError

from oracles import count_violations


class TestBuilders:
    def test_heisenberg_2_open(self, heis2, spec2):
        assert heis2.num_terms == 3
        assert {t.string.factors for t in heis2.terms} == {"XX", "YY", "ZZ"}
        assert all(t.coefficient == 1.0 for t in heis2.terms)
        assert spec2.lambda0 == pytest.approx(-3.0, abs=1e-10)
        assert spec2.degeneracy == 1  # singlet

    def test_heisenberg_3_term_count(self, heis3):
        assert heis3.num_terms == 6
        assert heis3.kappa == pytest.approx(6.0)

    def test_heisenberg_2_periodic_doubles(self):
        ham = pauli.build_heisenberg_chain(2, periodic=True)
        spec = pauli.diagonalize(ham)
        assert spec.lambda0 == pytest.approx(-6.0, abs=1e-9)

    def test_heisenberg_too_small(self):
        with pytest.raises(InvalidInstanceError):
            pauli.build_heisenberg_chain(1)

    def test_maxsat_single_clause(self, maxsat_single):
        mat = pauli.to_dense(maxsat_single)
        assert np.allclose(np.diag(mat).real, [0, 0, 0, 1], atol=1e-12)
        spec = pauli.diagonalize(maxsat_single)
        assert spec.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert spec.degeneracy == 3

    def test_maxsat_unsatisfiable(self):
        ham = pauli.build_maxsat(1, [((0,), "0"), ((0,), "1")])
        spec = pauli.diagonalize(ham)
        assert spec.lambda0 == pytest.approx(1.0, abs=1e-12)
        assert spec.degeneracy == 2

    def test_maxsat_three_vars_degeneracy(self):
        clauses = [((0, 1), "11"), ((1, 2), "11")]
        ham = pauli.build_maxsat(3, clauses)
        spec = pauli.diagonalize(ham)
        satisfying = sum(
            1
            for b in range(8)
            if count_violations(clauses, format(b, "03b")) == 0
        )
        assert spec.lambda0 == pytest.approx(0.0, abs=1e-12)
        assert spec.degeneracy == satisfying == 5

    def test_maxsat_validation(self):
        with pytest.raises(InvalidInstanceError):
            pauli.build_maxsat(2, [((0, 5), "11")])
        with pytest.raises(InvalidInstanceError):
            pauli.build_maxsat(2, [((0, 1), "1")])
        with pytest.raises(InvalidInstanceError):
            pauli.build_maxsat(2, [((0, 0), "11")])

    def test_maxsat_energy_counts_violations(self, rng):
        # exhaustive: diagonal of H equals the violated-clause count per bitstring
        num_vars = 6
        clauses = []
        for _ in range(7):
            k = int(rng.integers(1, 4))
            subset = tuple(sorted(rng.choice(num_vars, size=k, replace=False).tolist()))
            bits = "".join(str(b) for b in rng.integers(0, 2, size=k))
            clauses.append((subset, bits))
        ham = pauli.build_maxsat(num_vars, clauses)
        diag = np.diag(pauli.to_dense(ham)).real
        for b in range(1 << num_vars):
            bits = format(b, f"0{num_vars}b")  # qubit 0 is the most significant bit
            assert diag[b] == pytest.approx(count_violations(clauses, bits), abs=1e-9)


class TestDense:
    def test_single_z(self):
        ham = pauli.PauliHamiltonian(1, (pauli.PauliTerm(1.0, pauli.PauliString("Z")),))
        assert np.allclose(pauli.to_dense(ham), np.diag([1.0, -1.0]))

    def test_xx_antidiagonal(self):
        ham = pauli.PauliHamiltonian(2, (pauli.PauliTerm(1.0, pauli.PauliString("XX")),))
        assert np.allclose(pauli.to_dense(ham), np.fliplr(np.eye(4)))

    def test_qubit0_most_significant(self):
        ham = pauli.PauliHamiltonian(2, (pauli.PauliTerm(1.0, pauli.PauliString("ZI")),))
        assert np.allclose(np.diag(pauli.to_dense(ham)).real, [1, 1, -1, -1])

    def test_heisenberg2_eigenvalues(self, heis2):
        evals = np.linalg.eigvalsh(pauli.to_dense(heis2))
        assert np.allclose(evals, [-3, 1, 1, 1], atol=1e-10)

    def test_hermitian_all_builders(self, heis3, maxsat_single):
        for ham in (heis3, maxsat_single):
            mat = pauli.to_dense(ham)
            assert np.abs(mat - mat.conj().T).max() <= 1e-12

    def test_dense_limit(self, monkeypatch):
        monkeypatch.setenv("DQE_DENSE_LIMIT", "3")
        ham = pauli.build_heisenberg_chain(4)
        with pytest.raises(ResourceLimitError):
            pauli.to_dense(ham)
        monkeypatch.setenv("DQE_DENSE_LIMIT", "junk")
        with pytest.raises(ConfigError):
            pauli.to_dense(ham)

    def test_pauli_matrices(self):
        y = pauli.PauliString("Y").to_matrix()
        assert np.allclose(y, np.array([[0, -1j], [1j, 0]]))
        xyz = pauli.PauliString("XYZ").to_matrix()
        ref = np.kron(
            np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])),
            np.diag([1, -1]),
        )
        assert np.abs(xyz - ref).max() <= 1e-12


class TestSpectralData:
    def test_single_qubit_z(self, ham_z):
        spec = pauli.diagonalize(ham_z)
        assert spec.lambda0 == -1.0
        assert spec.lambda1 == 1.0
        assert spec.degeneracy == 1
        assert np.allclose(spec.ground_projector, np.diag([0.0, 1.0]))

    def test_heisenberg2(self, spec2):
        assert spec2.lambda1 == pytest.approx(1.0, abs=1e-10)
        assert spec2.gap == pytest.approx(4.0, abs=1e-10)
        assert spec2.norm == pytest.approx(3.0, abs=1e-10)

    def test_projector_invariants(self, heis3, spec3):
        pi0 = spec3.ground_projector
        assert np.abs(pi0 @ pi0 - pi0).max() <= 1e-10
        assert np.abs(pi0 - pi0.conj().T).max() <= 1e-10
        assert np.trace(pi0).real == pytest.approx(spec3.degeneracy, abs=1e-8)
        mat = pauli.to_dense(heis3)
        resid = np.abs(mat @ pi0 - spec3.lambda0 * pi0).max()
        assert resid <= 1e-8 * spec3.norm
        assert np.abs(pi0 @ mat @ pi0 - spec3.lambda0 * pi0).max() <= 1e-8 * spec3.norm

    def test_fully_degenerate_spectrum(self):
        # H proportional to the identity has no second distinct eigenvalue
        ham = pauli.build_maxsat(1, [((0,), "0"), ((0,), "1")])
        spec = pauli.diagonalize(ham)
        assert spec.gap == 0.0
        assert spec.lambda1 == spec.lambda0

    def test_eigenvalues_real_and_sorted(self, spec4):
        assert np.all(np.diff(spec4.eigenvalues) >= -1e-10)


class TestJson:
    def test_round_trip(self, heis3):
        text = pauli.hamiltonian_to_json(heis3)
        back = pauli.hamiltonian_from_json(text)
        assert back.num_qubits == heis3.num_qubits
        assert back.kappa == pytest.approx(heis3.kappa)
        assert np.abs(pauli.to_dense(back) - pauli.to_dense(heis3)).max() <= 1e-14

    def test_error_messages_name_fields(self):
        with pytest.raises(ConfigError, match="num_qubits"):
            pauli.hamiltonian_from_json(json.dumps({"terms": []}))
        with pytest.raises(ConfigError, match="terms"):
            pauli.hamiltonian_from_json(json.dumps({"num_qubits": 2}))
        bad = {"num_qubits": 2, "terms": [{"coeff": "x", "paulis": "XX"}]}
        with pytest.raises(ConfigError, match=r"terms\[0\]"):
            pauli.hamiltonian_from_json(json.dumps(bad))
        with pytest.raises(ConfigError, match="invalid JSON"):
            pauli.hamiltonian_from_json("{nope")


class TestIndexTable:
    def test_partition(self):
        table = pauli.support_index_table(4, (1, 2))
        flat = np.sort(table.ravel())
        assert np.array_equal(flat, np.arange(16))

    def test_column_encodes_support_bits(self):
        table = pauli.support_index_table(3, (0,))
        # qubit 0 is the most significant bit of the 3-bit index
        assert np.all(table[:, 0] < 4)
        assert np.all(table[:, 1] >= 4)


def _ham(n, *terms):
    return pauli.PauliHamiltonian(
        n, tuple(pauli.PauliTerm(c, pauli.PauliString(f)) for f, c in terms)
    )


@st.composite
def pauli_hamiltonians(draw):
    """1..8 terms of any weight (the identity string included) on 1..6
    qubits; coefficients from a few exact values, so terms can cancel and
    levels can coincide, or from a continuous range."""
    n = draw(st.integers(1, 6))
    coeff = st.one_of(
        st.sampled_from((1.0, -1.0, 0.5, -0.5, 2.0)),
        st.floats(0.05, 2.0).map(lambda c: -c),
        st.floats(0.05, 2.0),
    )
    factors = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(factors, coeff), min_size=1, max_size=8))
    return _ham(n, *terms)


# the open XX+YY chain on 6 qubits
_XY6 = _ham(6, *[("I" * i + p + p + "I" * (4 - i), 1.0) for i in range(5) for p in "XY"])


class TestJsonRoundTrip:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(ham=pauli_hamiltonians())
    def test_round_trip(self, ham):
        back = pauli.hamiltonian_from_json(pauli.hamiltonian_to_json(ham))
        assert back == ham


class TestBlockEigensolver:
    """``eigh_blocks`` on ``block_labels`` against one full complex eigh.

    The block routine is called directly, so every size takes the block
    path whatever ``_BLOCK_MIN_DIM`` is.
    """

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(ham=pauli_hamiltonians())
    # odd-Y terms: a complex H
    @example(ham=_ham(3, ("YII", 0.7), ("XZI", -0.4), ("ZYX", 0.3), ("IIZ", 1.1)))
    # exact XX+YY cancellation: the chain splits into its Sz sectors, and
    # Heisenberg-5's ground doublet spans the two sectors of size 10
    @example(ham=pauli.build_heisenberg_chain(4))
    @example(ham=pauli.build_heisenberg_chain(5))
    @example(ham=_XY6)
    # an all-Z (diagonal) H: every block has size 1, and the Neel pair is a
    # ground doublet across two of them
    @example(ham=_ham(4, ("ZZII", 1.0), ("IZZI", 1.0), ("IIZZ", 1.0)))
    # an identity-only H: fully degenerate
    @example(ham=_ham(3, ("III", 0.5)))
    def test_matches_full_eigh(self, ham):
        mat = pauli.to_dense(ham)
        d = mat.shape[0]
        ref_w, ref_v = np.linalg.eigh(mat)
        norm = float(np.abs(ref_w).max())
        tol = 1e-12 * max(1.0, norm)

        w, v = pauli.eigh_blocks(mat, pauli.block_labels(mat))
        assert v.dtype == (np.complex128 if mat.imag.any() else np.float64)
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(w - ref_w).max() <= tol
        assert np.abs(v.conj().T @ v - np.eye(d)).max() <= 1e-12
        assert np.abs(mat @ v - v * w).max() <= tol

        # the SpectralData built from the block path, with the same rule
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pauli, "_BLOCK_MIN_DIM", 1)
            spec = pauli.diagonalize(ham)
        ndeg = int(np.count_nonzero(ref_w <= ref_w[0] + 1e-9 * max(1.0, norm)))
        assert spec.degeneracy == ndeg
        assert spec.lambda0 == pytest.approx(ref_w[0], abs=tol)
        assert spec.lambda1 == pytest.approx(ref_w[ndeg] if ndeg < d else ref_w[0], abs=tol)
        ref_p = ref_v[:, :ndeg] @ ref_v[:, :ndeg].conj().T
        # the projector moves by about roundoff over the gap to the next level
        gap = ref_w[ndeg] - ref_w[ndeg - 1] if ndeg < d else 1.0
        assert np.abs(spec.ground_projector - ref_p).max() <= tol / gap

    def test_heisenberg_blocks_are_sz_sectors(self):
        mat = pauli.to_dense(pauli.build_heisenberg_chain(6))
        sizes = np.sort(np.bincount(pauli.block_labels(mat)))
        assert sizes.tolist() == [1, 1, 6, 6, 15, 15, 20]
