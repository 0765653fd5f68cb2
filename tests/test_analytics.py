import numpy as np
import pytest

from dqe import agsp, analytics as an, instrument as im, pauli, stopping, trajectory
from dqe.errors import IllConditionedError, ParameterError

from oracles import dense_stopped_general, global_run_success_probs, markov_expected_absorption


def _weak_global(ham, eps, spectral=None):
    spectral = spectral if spectral is not None else pauli.diagonalize(ham)
    a = agsp.agsp_linear(ham, spectral)
    inst = im.make_instrument(a.operator, eps, im.Resampler.global_mixed(ham.dimension))
    t0, t1 = im.sweep_transfer_global(inst)
    return inst, t0, t1, spectral


def _local_sweep(ham, eps, spectral=None, weighting="max"):
    spectral = spectral if spectral is not None else pauli.diagonalize(ham)
    a = agsp.agsp_linear(ham, spectral)
    if weighting == "max":
        amax = max(abs(t.coefficient) for t in ham.terms)
        weights = [abs(t.coefficient) / amax for t in ham.terms]
    else:
        weights = [f.weight for f in a.local_factors]
    insts = [
        im.make_instrument(
            f.embed(w * f.k_local), eps, im.Resampler.local_mixed(f.support), support=f.support
        )
        for w, f in zip(weights, a.local_factors)
    ]
    t0, t1 = im.sweep_transfer_product(insts, ham.num_qubits)
    return t0, t1, spectral


class TestGlobalFormulas:
    def test_projector_state(self):
        pi = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        for n in (1, 3, 10):
            rho = an.expected_state_global(pi, n)
            assert np.abs(rho - pi / 2).max() <= 1e-12

    def test_diag_example(self):
        k = np.diag([1.0, 0.5]).astype(complex)
        rho = an.expected_state_global(k, 2)
        assert np.allclose(np.diag(rho).real, [1 / 1.0625, 0.0625 / 1.0625])

    def test_log_space_large_n(self):
        k = np.diag([0.9, 0.3]).astype(complex)
        rho = an.expected_state_global(k, 2000)  # would underflow in linear space
        assert np.allclose(np.diag(rho).real, [1.0, 0.0], atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_tau_projector_remark(self):
        # D/N + n - 1 for a projector AGSP, and the Markov oracle agrees
        k = np.diag([1.0, 0.0]).astype(complex)
        tau = an.expected_tau_global(k, 3)
        assert tau == pytest.approx(4.0, abs=1e-12)
        oracle = markov_expected_absorption(global_run_success_probs(k, 3))
        assert tau == pytest.approx(oracle, abs=1e-12)

    def test_tau_diag_and_zero(self):
        k = np.diag([1.0, 0.5]).astype(complex)
        assert an.expected_tau_global(k, 1) == pytest.approx(1.6, abs=1e-14)
        assert an.expected_tau_global(k, 0) == 0.0

    def test_tau_markov_cross_check(self, heis3, spec3):
        inst, _, _, _ = _weak_global(heis3, 0.5, spec3)
        for n in (1, 2, 5):
            tau = an.expected_tau_global(inst.e0, n)
            oracle = markov_expected_absorption(global_run_success_probs(inst.e0, n))
            assert tau == pytest.approx(oracle, rel=1e-10)

    def test_tau_upper_bound_dominates(self, heis3, spec3):
        inst, _, _, _ = _weak_global(heis3, 0.5, spec3)
        params = agsp.verify_agsp(inst.e0, spec3.ground_projector)
        for n in (1, 3, 6):
            tau = an.expected_tau_global(inst.e0, n)
            bound = an.tau_upper_bound(params, spec3.dimension, spec3.degeneracy, n)
            assert tau <= bound + 1e-9


class TestGeneralFormulas:
    def test_reduces_to_global(self, heis2, heis3, spec2, spec3):
        # both corollaries, including the Gamma = 1 chain of length 2
        rho0 = None
        for ham, spec in ((heis2, spec2), (heis3, spec3)):
            inst, t0, t1, _ = _weak_global(ham, 0.5, spec)
            d = ham.dimension
            rho0 = np.eye(d) / d
            for n in (1, 2, 6):
                state_g = an.expected_state_general(t0, t1, rho0, n)
                state_ref = an.expected_state_global(inst.e0, n)
                assert np.abs(state_g - state_ref).max() <= 1e-8
                tau_g = an.expected_tau_general(t0, t1, rho0, n)
                tau_ref = an.expected_tau_global(inst.e0, n)
                assert tau_g == pytest.approx(tau_ref, rel=1e-8)

    def test_single_qubit_local_equals_global(self, ham_z):
        spec = pauli.diagonalize(ham_z)
        a = agsp.agsp_linear(ham_z, spec)
        k = 0.8 * a.operator  # keep ||E0|| < 1 so tau is regular
        g = im.make_instrument(k, 0.6, im.Resampler.global_mixed(2))
        l = im.make_instrument(k, 0.6, im.Resampler.local_mixed((0,)), support=(0,))
        rho0 = np.eye(2) / 2
        tg0, tg1 = im.sweep_transfer_global(g)
        tl0 = im.transfer_of_instrument_success(l)
        tl1 = im.transfer_of_instrument_failure(l, 1)
        for n in (1, 4):
            sa = an.expected_state_general(tg0, tg1, rho0, n)
            sb = an.expected_state_general(tl0, tl1, rho0, n)
            assert np.abs(sa - sb).max() <= 1e-9
            ta = an.expected_tau_general(tg0, tg1, rho0, n)
            tb = an.expected_tau_general(tl0, tl1, rho0, n)
            assert ta == pytest.approx(tb, rel=1e-9)

    def test_local_expected_state_normalized(self, heis2, heis3):
        for ham in (heis2, heis3):
            t0, t1, _ = _local_sweep(ham, 0.2)
            rho0 = np.eye(ham.dimension) / ham.dimension
            for n in (1, 4):
                (res,) = an.expected_stopped_general(t0, t1, rho0, [n])
                assert res.trace_defect <= 1e-8

    def test_trace_preservation_identities(self, heis3, spec3):
        # <<1| E0^n W^{-1} = <<1| and <<1| E1 (1-E0)^{-1} = <<1|
        _, t0, t1, _ = _weak_global(heis3, 0.5, spec3)
        d2 = t0.matrix.shape[0]
        row = im.trace_row(8)
        n = 4
        t0n, g_n, _ = an.geometric_sums(t0.matrix, n)
        w = np.eye(d2) - t1.matrix @ g_n
        lhs = np.linalg.solve(w.T, (row @ t0n))
        assert np.abs(lhs - row).max() <= 1e-8
        # <<1| E1 (1 - E0)^{-1} = <<1|: solve the transposed system
        lhs2 = np.linalg.solve((np.eye(d2) - t0.matrix).T, row @ t1.matrix)
        assert np.abs(lhs2 - row).max() <= 1e-8

    def test_martingale_sequence_probability(self, heis3, spec3):
        # <<1| E0^n W^{-1} E1 (1-E0)^{-1} E0^n W^{-1} |rho0>> = 1
        for eps, resampler in ((0.5, "global"), (0.2, "local")):
            if resampler == "global":
                _, t0, t1, _ = _weak_global(heis3, eps, spec3)
            else:
                t0, t1, _ = _local_sweep(heis3, eps, spec3)
            n = 3
            d2 = t0.matrix.shape[0]
            rho0 = np.eye(8) / 8
            t0n, g_n, _ = an.geometric_sums(t0.matrix, n)
            w = np.eye(d2) - t1.matrix @ g_n
            x = t0n @ np.linalg.solve(w, im.vec(rho0))
            y = t0n @ np.linalg.solve(w, t1.matrix @ np.linalg.solve(np.eye(d2) - t0.matrix, x))
            row = im.trace_row(8)
            assert float((row @ y).real) == pytest.approx(1.0, abs=1e-7)

    def test_second_path_resolvent_form(self, heis3, spec3):
        # the corollary's (1 - E0 - E1 + E1 E0^n)^{-1} form, where regular,
        # agrees with the partial-sum W evaluation
        _, t0, t1, _ = _weak_global(heis3, 0.5, spec3)
        rho0 = np.eye(8) / 8
        n = 3
        d2 = t0.matrix.shape[0]
        t0n = np.linalg.matrix_power(t0.matrix, n)
        m = np.eye(d2) - t0.matrix - t1.matrix + t1.matrix @ t0n
        x = np.linalg.solve(m, im.vec(rho0))
        direct = im.unvec(t0n @ (x - t0.matrix @ x))
        packaged = an.expected_state_general(t0, t1, rho0, n)
        assert np.abs(direct - packaged).max() <= 1e-9

    def test_failure_recovery_precondition(self):
        # projector AGSP + identity resampling absorbs: the theorem's
        # condition tr(E0 o R(rho)) > 0 fails and must raise
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = im.make_instrument(p, 1.0, im.Resampler.identity())
        t0 = im.transfer_of_instrument_success(inst)
        t1 = im.transfer_of_instrument_failure(inst, 1)
        rho0 = np.eye(2) / 2
        with pytest.raises(ParameterError):
            an.expected_state_general(t0, t1, rho0, 2)

    def test_numerically_singular_raises(self, heis4, spec4):
        # E(tau) beyond float64 conditioning is refused, not silently wrong
        t0, t1, _ = _local_sweep(heis4, 0.02, spec4)
        rho0 = np.eye(16) / 16
        with pytest.raises(IllConditionedError):
            an.expected_tau_general(t0, t1, rho0, 300)


class TestGeometricSums:
    def test_matches_naive_partial_sums(self, rng):
        t0 = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        t0 *= 0.9 / np.abs(np.linalg.eigvals(t0)).max()
        for n in range(10):
            power = np.eye(9, dtype=complex)
            g = np.zeros((9, 9), dtype=complex)
            h = np.zeros((9, 9), dtype=complex)
            for j in range(n):
                g += power
                h += (j + 1) * power
                power = power @ t0
            p_n, g_n, h_n = an.geometric_sums(t0, n)
            scale = max(1.0, np.abs(h).max())
            assert np.abs(p_n - power).max() <= 1e-12
            assert np.abs(g_n - g).max() <= 1e-12 * scale
            assert np.abs(h_n - h).max() <= 1e-12 * scale

    def test_fused_equals_wrappers(self, heis3, spec3):
        t0, t1, _ = _local_sweep(heis3, 0.2, spec3)
        rho0 = np.eye(8) / 8
        for n in (1, 3, 4):
            (res,) = an.expected_stopped_general(t0, t1, rho0, [n])
            assert np.array_equal(res.state, an.expected_state_general(t0, t1, rho0, n))
            assert res.tau == an.expected_tau_general(t0, t1, rho0, n)


def _engine_transfers(ham, resampler, eps):
    rc = trajectory.RunConfig(
        ham,
        agsp_mode="product-sweep",
        schedule=stopping.EpsilonSchedule.constant(eps),
        resampler=resampler,
        rule=stopping.FirstRunOfZeros(1),
    )
    engine = trajectory.TrajectoryEngine(rc)
    t0, t1 = engine.sweep_transfers(eps)
    return t0, t1, engine


class TestStoppedWalk:
    TABLES = ([*range(1, 10)], [7], [2, 7, 8], [4, 1, 4])

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_matches_dense_reference(self, heis3, resampler):
        t0, t1, _ = _engine_transfers(heis3, resampler, 0.3)
        rho0 = np.eye(8) / 8
        refs = {n: dense_stopped_general(t0.matrix, t1.matrix, rho0, n) for n in range(1, 10)}
        for ns in self.TABLES:
            table = an.expected_stopped_general(t0, t1, rho0, ns)
            assert [r.n for r in table] == ns
            for res in table:
                state, tau = refs[res.n]
                assert np.abs(res.state - state).max() <= 1e-10 * np.abs(state).max()
                assert res.tau == pytest.approx(tau, rel=1e-10)

    def test_entry_matches_single_call(self, heis3):
        # a table entry and the one-n call take the same steps to S_n
        t0, t1, _ = _engine_transfers(heis3, "local", 0.3)
        rho0 = np.eye(8) / 8
        for ns in self.TABLES:
            for res in an.expected_stopped_general(t0, t1, rho0, ns):
                (one,) = an.expected_stopped_general(t0, t1, rho0, [res.n])
                assert np.array_equal(res.state, one.state)
                assert res.tau == one.tau
                assert res.trace_defect == one.trace_defect

    def test_short_run_rejected_before_any_work(self):
        # the transfers are not even matrices: the check must come first
        with pytest.raises(ParameterError):
            an.expected_stopped_general(None, None, None, [3, 0])

    def test_trace_normalised_witness(self):
        # rcond of W falls about as 1/E(tau): at n = 8, 9 the raw state's
        # trace is off by ~1e-5..1e-4 and its raw overlap falls with n
        terms = (("ZIX", -1.406), ("IYI", 0.932), ("YZI", 0.435))
        ham = pauli.PauliHamiltonian(
            3, tuple(pauli.PauliTerm(c, pauli.PauliString(s)) for s, c in terms)
        )
        t0, t1, engine = _engine_transfers(ham, "local", 0.5)
        table = an.expected_stopped_general(t0, t1, np.eye(8) / 8, range(1, 10))
        overlaps = [float(np.trace(engine.pi0 @ r.state).real) for r in table]
        assert all(b > a for a, b in zip(overlaps, overlaps[1:]))
        expected = [0.9999024, 0.9999559, 0.9999644, 0.9999658, 0.9999660]
        assert overlaps[4:] == pytest.approx(expected, abs=1e-6)
        assert table[-1].trace_defect > 1e-6


class TestScheduleOracle:
    def test_constant_schedule_reduces(self, heis2, spec2):
        t0, t1, _ = _local_sweep(heis2, 0.1, spec2)
        rho0 = np.eye(4) / 4
        n = 4
        ref = an.expected_state_general(t0, t1, rho0, n)
        sched = an.expected_state_schedule([t0] * n, [t1] * n, rho0)
        assert np.abs(ref - sched).max() <= 1e-10

    def test_schedule_state_normalized(self, heis2, spec2):
        a = agsp.agsp_linear(heis2, spec2)
        rho0 = np.eye(4) / 4
        t0s, t1s = [], []
        for j in range(1, 5):
            eps_j = 0.0625 / j
            insts = [
                im.make_instrument(
                    f.embed(f.weight * f.k_local), eps_j, im.Resampler.global_mixed(4), support=f.support
                )
                for f in a.local_factors
            ]
            t0, t1 = im.sweep_transfer_product(insts, 2)
            t0s.append(t0)
            t1s.append(t1)
        rho = an.expected_state_schedule(t0s, t1s, rho0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


class TestBounds:
    def test_overlap_lower_bound_cases(self):
        params = agsp.AgspParams(delta=0.0, gamma=1.0, epsilon=0.05)
        assert an.overlap_lower_bound(params, 4, 1, 3).value == pytest.approx(0.95)
        heis_params = agsp.AgspParams(delta=1.0 / 9.0, gamma=1.0, epsilon=0.0)
        expected = 1.0 - 4.0 * (1.0 / 9.0) ** 8
        assert an.overlap_lower_bound(heis_params, 4, 1, 8).value == pytest.approx(expected)
        n0 = an.overlap_lower_bound(heis_params, 4, 1, 0)
        assert n0.value == pytest.approx(max(0.0, 1.0 - 4.0))
        vac = an.overlap_lower_bound(agsp.AgspParams(0.5, 0.5, 0.0), 4, 1, 3)
        assert vac.vacuous and vac.value == 0.0

    def test_bound_dominance(self, heis2, heis3, spec2, spec3):
        for ham, spec in ((heis2, spec2), (heis3, spec3)):
            for eps in (0.5, 1.0):
                inst, _, _, _ = _weak_global(ham, eps, spec)
                params = agsp.verify_agsp(inst.e0, spec.ground_projector)
                for n in range(1, 9):
                    exact = an.expected_overlap_global(inst.e0, spec.ground_projector, n)
                    bound = an.overlap_lower_bound(params, spec.dimension, spec.degeneracy, n)
                    assert exact >= bound.value - 1e-9

    def test_depth_estimate(self):
        params = agsp.AgspParams(delta=1.0 / 9.0, gamma=1.0, epsilon=0.0)
        assert an.depth_estimate(params, 4, 1, 1e-3) == 4
        assert an.depth_estimate(params, 4, 1, 5.0) == 0
        with pytest.raises(ParameterError):
            an.depth_estimate(agsp.AgspParams(0.5, 0.5, 0.0), 4, 1, 1e-3)

    def test_depth_grows_linearly_in_qubits(self):
        params = agsp.AgspParams(delta=1.0 / 9.0, gamma=1.0, epsilon=0.0)
        depths = [an.depth_estimate(params, 2**n, 1, 1e-6) for n in (4, 8, 12)]
        assert depths[0] <= depths[1] <= depths[2]
        # log D growth: 8 extra qubits add 8 log(2)/log(9) to the exact value,
        # so the integer depths differ by that within ceil rounding
        assert abs(depths[2] - depths[0] - 8 * np.log(2) / np.log(9)) <= 1.0

    def test_fixed_point_bound_remarks(self):
        one = agsp.AgspParams(delta=0.3, gamma=1.0, epsilon=0.0)
        assert an.fixed_point_overlap_bound(one, 16, 1) == pytest.approx(1.0)
        equal = agsp.AgspParams(delta=0.4, gamma=0.4, epsilon=0.0)
        assert an.fixed_point_overlap_bound(equal, 16, 2) == pytest.approx(2 / 16)
        near = agsp.AgspParams(delta=0.5, gamma=1.0 - 1e-3, epsilon=0.0)
        value = an.fixed_point_overlap_bound(near, 16, 1)
        assert value >= 1.0 - 1e-3 / 0.5 * 16 - 1e-9
