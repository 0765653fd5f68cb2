import numpy as np
import pytest

from dqe import agsp, instrument as im, pauli
from dqe.errors import DegenerateInstanceError, ParameterError

import oracles
from oracles import embed, mixture_kraus


def _trace_norm(mat):
    return float(np.abs(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)).sum())


class TestLinear:
    def test_single_z(self, ham_z):
        spec = pauli.diagonalize(ham_z)
        a = agsp.agsp_linear(ham_z, spec)
        assert np.allclose(a.operator, np.diag([0.0, 1.0]))
        assert a.params.sqrt_gamma == pytest.approx(1.0)
        assert a.params.sqrt_delta == pytest.approx(0.0)
        measured = agsp.verify_agsp(a.operator, spec.ground_projector)
        assert measured.sqrt_gamma == pytest.approx(1.0, abs=1e-10)
        assert measured.sqrt_delta == pytest.approx(0.0, abs=1e-10)
        assert measured.epsilon == pytest.approx(0.0, abs=1e-10)

    def test_heisenberg2_values(self, heis2, spec2):
        a = agsp.agsp_linear(heis2, spec2)
        assert a.params.sqrt_gamma == pytest.approx(1.0, abs=1e-12)
        assert a.params.sqrt_delta == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_maxsat_values(self, maxsat_single):
        spec = pauli.diagonalize(maxsat_single)
        a = agsp.agsp_linear(maxsat_single, spec)
        assert a.params.sqrt_gamma == pytest.approx(0.5, abs=1e-12)
        assert a.params.sqrt_delta == pytest.approx(0.0, abs=1e-12)

    def test_measured_matches_claimed_everywhere(self, heis2, heis3, maxsat_single):
        for ham in (heis2, heis3, maxsat_single):
            spec = pauli.diagonalize(ham)
            a = agsp.agsp_linear(ham, spec)
            measured = agsp.verify_agsp(a.operator, spec.ground_projector)
            assert measured.sqrt_gamma == pytest.approx(a.params.sqrt_gamma, abs=1e-9)
            assert measured.sqrt_delta == pytest.approx(a.params.sqrt_delta, abs=1e-9)
            assert measured.epsilon <= 1e-9

    def test_local_factors_are_projectors(self, heis3):
        spec = pauli.diagonalize(heis3)
        a = agsp.agsp_linear(heis3, spec)
        total = np.zeros_like(a.operator)
        for f in im.term_instruments(heis3, "sum"):
            k = embed(f.k_local, f.support, 3)
            assert np.linalg.norm(k, 2) <= 1.0 + 1e-12
            assert np.abs(k @ k - k).max() <= 1e-10  # Pauli factors are projectors
            total += f.weight * k
        assert np.abs(total - a.operator).max() <= 1e-12

    def test_kappa_zero_rejected(self):
        ham = pauli.PauliHamiltonian(1, ())
        with pytest.raises(DegenerateInstanceError):
            agsp.agsp_linear(ham, pauli.diagonalize(ham))


class TestProduct:
    def test_single_term_square(self, ham_z):
        spec = pauli.diagonalize(ham_z)
        a = oracles.agsp_product(ham_z, 0.3, spec)
        factor = 0.7 * np.eye(2) + 0.3 * np.diag([0.0, 1.0])
        assert np.abs(a.operator - factor @ factor).max() <= 1e-12

    def test_quadratic_approach_to_linear_combination(self, heis2, spec2):
        lin = agsp.agsp_linear(heis2, spec2).operator
        m = heis2.num_terms
        norms = {}
        for eps in (1e-2, 1e-3):
            prod = oracles.agsp_product(heis2, eps, spec2).operator
            approx = (1 - eps) ** (2 * m) * np.eye(4) + 2 * eps * (1 - eps) ** (
                2 * m - 1
            ) * lin
            norms[eps] = np.linalg.norm(prod - approx, 2)
        ratio = norms[1e-2] / norms[1e-3]
        assert 70 < ratio < 130  # quadratic in eps

    def test_measured_epsilon_quadratic(self, heis3, spec3):
        eps_measured = {}
        for eps in (1e-2, 1e-3):
            a = oracles.agsp_product(heis3, eps, spec3)
            eps_measured[eps] = agsp.verify_agsp(a.operator, spec3.ground_projector).epsilon
        ratio = eps_measured[1e-2] / max(eps_measured[1e-3], 1e-300)
        assert 50 < ratio < 200

    def test_small_eps_limit_is_identity(self, heis2, spec2):
        a = oracles.agsp_product(heis2, 1e-9, spec2)
        assert np.abs(a.operator - np.eye(4)).max() <= 1e-7

    def test_hermitian_and_subunit(self, heis3, spec3):
        a = oracles.agsp_product(heis3, 0.3, spec3)
        assert np.abs(a.operator - a.operator.conj().T).max() <= 1e-12
        assert np.linalg.norm(a.operator, 2) <= 1.0 + 1e-12

    def test_eps_range(self, heis2, spec2):
        with pytest.raises(ParameterError):
            oracles.agsp_product(heis2, 0.0, spec2)
        with pytest.raises(ParameterError):
            oracles.agsp_product(heis2, 1.0, spec2)


class TestMixture:
    def test_single_term(self, ham_z):
        ops = mixture_kraus(ham_z, 0.3)
        assert len(ops) == 1
        expected = 0.7 * np.eye(2) + 0.3 * np.diag([0.0, 1.0])
        assert np.abs(ops[0] - expected).max() <= 1e-12

    def test_completeness_defect_bound(self, heis2):
        for eps in (0.05, 0.2):
            ops = mixture_kraus(heis2, eps)
            total = sum(a.conj().T @ a for a in ops)
            defect = np.linalg.norm(total - np.eye(4), 2)
            assert defect <= 2 * eps + eps**2 + 1e-12

    def test_2m_fold_application_quadratic(self, heis2, spec2, rng):
        m = heis2.num_terms
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.outer(psi, psi.conj())
        rho /= np.trace(rho).real
        errs = {}
        for eps in (1e-2, 1e-3):
            ops = mixture_kraus(heis2, eps)
            state = rho
            for _ in range(2 * m):
                state = sum(a @ state @ a.conj().T for a in ops)
            kp = oracles.agsp_product(heis2, eps, spec2).operator
            errs[eps] = _trace_norm(state - kp @ rho @ kp.conj().T)
        assert 50 < errs[1e-2] / max(errs[1e-3], 1e-300) < 200


class TestChebyshev:
    def test_degree_one_on_z(self, ham_z):
        spec = pauli.diagonalize(ham_z)
        a = agsp.agsp_chebyshev(spec, 1)
        ground = np.array([0.0, 1.0])
        assert np.abs(a.operator @ ground - ground).max() <= 1e-12
        excited_value = a.operator[0, 0].real
        assert abs(excited_value) < 1.0

    def test_bound_holds_and_monotone(self, spec2):
        measured = []
        for ell in range(1, 7):
            a = agsp.agsp_chebyshev(spec2, ell)
            params = agsp.verify_agsp(a.operator, spec2.ground_projector)
            bound = 2 * np.exp(-2 * ell * np.sqrt(spec2.gap / (spec2.norm - spec2.lambda0)))
            assert params.sqrt_delta <= bound + 1e-12
            measured.append(params.sqrt_delta)
        assert all(b < a for a, b in zip(measured, measured[1:]))

    def test_degenerate_ground_space(self, maxsat_single):
        # N = 3 ground states: the filter must keep the full ground block
        spec = pauli.diagonalize(maxsat_single)
        a = agsp.agsp_chebyshev(spec, 3)
        pi0 = spec.ground_projector
        assert np.abs(a.operator @ pi0 - pi0).max() <= 1e-9
        params = agsp.verify_agsp(a.operator, pi0)
        bound = 2 * np.exp(-2 * 3 * np.sqrt(spec.gap / (spec.norm - spec.lambda0)))
        assert params.sqrt_delta <= bound + 1e-12

    def test_fixes_ground_exactly(self, heis3, spec3):
        a = agsp.agsp_chebyshev(spec3, 4)
        pi0 = spec3.ground_projector
        assert np.abs(a.operator @ pi0 - pi0).max() <= 1e-9

    def test_gapless_rejected(self):
        ham = pauli.build_maxsat(1, [((0,), "0"), ((0,), "1")])
        with pytest.raises(DegenerateInstanceError):
            agsp.agsp_chebyshev(pauli.diagonalize(ham), 2)

    def test_term_count_metadata(self, spec3, heis3):
        a = agsp.agsp_chebyshev(spec3, 3, num_terms=heis3.num_terms)
        est = a.metadata["term_count_estimate"]
        assert est == pytest.approx((np.e / 3) ** 3 * heis3.num_terms**3)


class TestVerify:
    def test_exact_projector(self, spec3):
        params = agsp.verify_agsp(spec3.ground_projector, spec3.ground_projector)
        assert params.delta == pytest.approx(0.0, abs=1e-12)
        assert params.gamma == pytest.approx(1.0, abs=1e-12)
        assert params.epsilon == pytest.approx(0.0, abs=1e-10)

    def test_idempotent_after_block_projection(self, heis3, spec3):
        a = oracles.agsp_product(heis3, 0.1, spec3)
        pi0 = spec3.ground_projector
        first = agsp.verify_agsp(a.operator, pi0)
        _, _, _, pi = agsp._select_block(a.operator, pi0)
        k_projected = pi @ a.operator @ pi + (np.eye(8) - pi) @ a.operator @ (np.eye(8) - pi)
        second = agsp.verify_agsp(k_projected, pi0)
        assert second.epsilon == pytest.approx(first.epsilon, abs=1e-10)

    def test_requires_hermitian(self, rng):
        k = rng.normal(size=(4, 4))
        with pytest.raises(ParameterError):
            agsp.verify_agsp(k, np.eye(4))
