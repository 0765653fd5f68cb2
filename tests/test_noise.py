import itertools
from dataclasses import replace

import numpy as np
import pytest

from dqe import agsp, analytics as an, circuits, instrument as im, noise as nz, pauli
from dqe import stopping as st, trajectory as tj
from dqe.errors import InvalidNoiseError

import oracles
from oracles import (
    DenseTransfer,
    apply_on_axes,
    column_stacked,
    dense_noisy_sweep_success_transfer,
    dense_noisy_term_instrument,
    dense_sweep_transfer_product,
    embed,
    fixed_point_iterate,
    global_channel,
    in_pauli_basis,
    iterative_free_decay_overlaps,
    noisy_kraus,
    pauli_basis,
    trace_row,
    vec,
)


class TestDepolarizingTomography:
    def test_zero_noise_is_exact(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XX"))
        ni = nz.noisy_term_instrument(term, 0.2, 1.0, nz.DepolarizingPerGate(0.0, 0.0))
        kraus0, _ = noisy_kraus(ni, tol=1e-12)
        assert len(kraus0) == 1
        assert ni.delta_measured <= 1e-12
        e0 = 0.8 * np.eye(4) + 0.2 * im.TermInstrument(term, 1.0).k_local
        assert np.abs(np.kron(kraus0[0].conj(), kraus0[0]) - np.kron(e0.conj(), e0)).max() <= 1e-10

    @pytest.mark.parametrize("rates", [(0.0, 0.0), (1e-4, 1e-4), (1e-2, 1e-2), (1e-3, 5e-3)])
    @pytest.mark.parametrize(
        "factors,coefficient,weight",
        [
            ("XX", 1.0, 1.0),
            ("YY", 1.0, 1.0),
            ("ZZ", 1.0, 1.0),
            ("XY", 1.0, 1.0),  # odd Y: complex Kraus operators
            ("ZZ", -0.7, 1.0),
            ("XX", 1.0, 0.5),
            ("XYZ", 1.0, 1.0),
            ("ZZZZ", 1.0, 1.0),
        ],
    )
    def test_matches_dense_simulation(self, factors, coefficient, weight, rates):
        self._check_against_dense(factors, coefficient, weight, rates)

    def test_weight_five_matches_dense_simulation(self):
        # one case: the dense reference takes about 30 s at weight 5
        self._check_against_dense("XYZZX", 1.0, 1.0, (1e-3, 5e-3))

    def test_column_blocks_match_one_block(self, monkeypatch):
        # a weight-k term evolves its 4^k input columns in blocks past k = 5
        term = pauli.PauliTerm(1.0, pauli.PauliString("XYZ"))
        circ = circuits.measurement_circuit(term, 0.3, 1.0)
        model = nz.DepolarizingPerGate(1e-3, 5e-3)
        whole = nz.noisy_circuit_branches(circ, model)
        monkeypatch.setattr(nz, "_TOMOGRAPHY_COLUMNS", 7)
        for got, want in zip(nz.noisy_circuit_branches(circ, model), whole):
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("factors", ["XX", "XIYZ"])
    def test_stacks_match_tensordot_chain(self, factors, monkeypatch):
        # the gates write into two alternating stacks; a CNOT from data
        # qubit 0 to the ancilla acts on non-adjacent axes
        term = pauli.PauliTerm(0.8, pauli.PauliString(factors))
        circ = circuits.measurement_circuit(term, 0.3, 0.9)
        model = nz.DepolarizingPerGate(1e-3, 5e-3)
        fast = nz.noisy_circuit_branches(circ, model)

        def chain(blocks, x, sector):
            xt = x.reshape((4,) * sector.num_qubits + x.shape[1:])
            for b in blocks:
                xt = apply_on_axes(b.op, b.qubits, xt)
            return xt.reshape(x.shape)

        monkeypatch.setattr(nz, "apply_blocks", chain)
        for got, want in zip(fast, nz.noisy_circuit_branches(circ, model)):
            assert np.abs(got - want).max() <= 1e-14

    @staticmethod
    def _check_against_dense(factors, coefficient, weight, rates):
        # the local Pauli-transfer stack against the matrix-unit simulation
        term = pauli.PauliTerm(coefficient, pauli.PauliString(factors))
        model = nz.DepolarizingPerGate(*rates)
        ni = nz.noisy_term_instrument(term, 0.3, weight, model)
        ref0, ref1, ref_delta = dense_noisy_term_instrument(term, 0.3, weight, model)
        for got, want in ((ni.success_transfer, ref0), (ni.failure_transfer, ref1)):
            assert np.abs(got - im.pauli_transfer(want)).max() <= 1e-12
        assert abs(ni.delta_measured - ref_delta) <= 1e-12

    def test_term_of_large_register(self):
        # tomography runs on the term's support: the clean reference of a
        # 40-qubit chain's term is its local Kraus operator
        term = pauli.build_heisenberg_chain(40).terms[-1]
        ni = nz.noisy_term_instrument(term, 0.2, 1.0, nz.DepolarizingPerGate(0.0, 0.0))
        assert ni.support == term.string.support
        assert ni.delta_measured <= 1e-12

    def test_delta_scales_with_rate(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XX"))
        d1 = nz.noisy_term_instrument(term, 0.2, 1.0, nz.DepolarizingPerGate(1e-4, 1e-4))
        d2 = nz.noisy_term_instrument(term, 0.2, 1.0, nz.DepolarizingPerGate(2e-4, 2e-4))
        assert 1e-5 < d1.delta_measured < 1e-2
        assert d2.delta_measured / d1.delta_measured == pytest.approx(2.0, rel=0.1)

    def test_completeness(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XY"))
        ni = nz.noisy_term_instrument(term, 0.2, 0.5, nz.DepolarizingPerGate(1e-3, 1e-3))
        # trace preservation: the identity row of R_0 + R_1 is e_0
        total = ni.success_transfer + ni.failure_transfer
        assert np.abs(total[0] - np.eye(16)[0]).max() <= 1e-12
        kraus0, kraus1 = noisy_kraus(ni)
        comp = sum(a.conj().T @ a for a in kraus0) + sum(a.conj().T @ a for a in kraus1)
        assert np.abs(comp - np.eye(4)).max() <= 1e-8

    def test_trace_defect_raises(self, monkeypatch):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XX"))
        branches = nz.noisy_circuit_branches

        def leaky(circ, model):
            r0, r1 = branches(circ, model)
            return r0, 0.99 * r1

        monkeypatch.setattr(nz, "noisy_circuit_branches", leaky)
        with pytest.raises(InvalidNoiseError):
            nz.noisy_term_instrument(term, 0.2, 1.0, nz.DepolarizingPerGate(1e-3, 1e-3))

    def test_sweep_distance_within_term_sum(self, heis3):
        # the perturbed sweep transfer stays within the sum of per-term
        # perturbations (each term enters the sweep twice)
        eps = 0.2
        model = nz.DepolarizingPerGate(1e-4, 1e-4)
        weights = im.term_weights(heis3, "max")
        noisy = [
            nz.noisy_term_instrument(t, eps, w, model)
            for t, w in zip(heis3.terms, weights)
        ]
        d = heis3.dimension
        clean_t = []
        noisy_t = []
        for t, w, ni in zip(heis3.terms, weights, noisy):
            table = pauli.support_index_table(3, t.string.support)
            e0 = (1 - eps) * np.eye(d) + eps * w * (
                np.eye(d) - t.sign * t.string.to_matrix()
            ) / 2.0
            clean_t.append(np.kron(e0.conj(), e0))
            embedded = []
            for a in noisy_kraus(ni)[0]:
                full = np.zeros((d, d), dtype=complex)
                for r in range(table.shape[0]):
                    full[np.ix_(table[r], table[r])] = a
                embedded.append(full)
            noisy_t.append(sum(np.kron(a.conj(), a) for a in embedded))
        order = list(range(len(clean_t))) + list(range(len(clean_t) - 1, -1, -1))
        prod_clean = np.eye(d * d, dtype=complex)
        prod_noisy = np.eye(d * d, dtype=complex)
        for v in order:
            prod_clean = clean_t[v] @ prod_clean
            prod_noisy = noisy_t[v] @ prod_noisy
        dist = np.linalg.norm(prod_noisy - prod_clean, 2)
        budget = 2 * sum(ni.delta_measured for ni in noisy)
        assert dist <= budget + 1e-12


def _sampler_channel(term, eps, model):
    """sum over every error pattern of prob x the branch transfers the
    sampler applies: the clean pair when no gate fails, else the pattern's
    cached operators.  Gates with rate 0 only ever take the identity."""
    errors = nz.GateErrors(term, eps, 1.0, model, real=term.string.is_real)
    clean = im.TermInstrument(term, 1.0).kraus(eps)
    choices = [range(4 ** len(q)) if p > 0.0 else range(1) for q, p in zip(errors.qubits, errors.rates)]
    d = 1 << len(term.string.support)
    acc = np.zeros((2, d * d, d * d), dtype=complex)
    total = 0.0
    for paulis in itertools.product(*choices):
        prob = 1.0
        for p, q, s in zip(errors.rates, errors.qubits, paulis):
            prob *= p / (4 ** len(q) - 1) if s else 1.0 - p
        pattern = tuple((g, s) for g, s in enumerate(paulis) if s)
        ops = errors.branch_operators(pattern)[:2] if pattern else clean
        for b in (0, 1):
            # kron(conj(K), K) without np.kron's per-call overhead
            k = ops[b]
            acc[b] += prob * (k.conj()[:, None, :, None] * k[None, :, None, :]).reshape(d * d, d * d)
        total += prob
    return [in_pauli_basis(a) for a in acc], total, len(list(itertools.product(*choices)))


class TestGateErrors:
    @pytest.mark.parametrize(
        "factors,rates,patterns",
        [("Z", (0.05, 0.05), 16384), ("XX", (0.05, 0.0), 16384), ("YY", (0.05, 0.0), 16384),
         ("ZZ", (0.0, 0.05), 65536)],
    )
    def test_patterns_sum_to_the_tomographed_channel(self, factors, rates, patterns):
        term = pauli.PauliTerm(1.0, pauli.PauliString(factors))
        model = nz.DepolarizingPerGate(*rates)
        (r0, r1), total, count = _sampler_channel(term, 0.3, model)
        assert count == patterns
        assert total == pytest.approx(1.0, abs=1e-12)
        ni = nz.noisy_term_instrument(term, 0.3, 1.0, model)
        assert np.abs(r0 - ni.success_transfer).max() <= 1e-12
        assert np.abs(r1 - ni.failure_transfer).max() <= 1e-12

    @pytest.mark.parametrize("factors", ["XX", "YY", "ZZ"])
    def test_single_error_operators_are_real(self, factors):
        term = pauli.PauliTerm(1.0, pauli.PauliString(factors))
        errors = nz.GateErrors(term, 0.3, 1.0, nz.DepolarizingPerGate(1e-3, 1e-3), real=False)
        for g, q in enumerate(errors.qubits):
            for s in range(1, 4 ** len(q)):
                for k in errors.branch_operators(((g, s),))[:2]:
                    assert np.abs(k.imag).max() <= 1e-14

    def test_hazard_and_drawn_patterns(self):
        # draw_pattern follows P(pattern | some gate fails): the first failing
        # gate and the number of failing gates, against their exact laws
        term = pauli.PauliTerm(1.0, pauli.PauliString("XX"))
        errors = nz.GateErrors(term, 0.3, 1.0, nz.DepolarizingPerGate(0.02, 0.05), real=True)
        rates = np.array(errors.rates)
        survive = np.cumprod(np.concatenate(([1.0], 1.0 - rates)))
        p_any = 1.0 - survive[-1]
        assert errors.hazard == pytest.approx(-np.log(survive[-1]), rel=1e-14)
        first = survive[:-1] * rates / p_any
        draws = 20000
        rng = np.random.default_rng(11)
        patterns = [errors.draw_pattern(rng) for _ in range(draws)]
        seen = np.bincount([pat[0][0] for pat in patterns], minlength=len(rates)) / draws
        assert np.abs(seen - first).max() <= 5 * np.sqrt(first.max() / draws)
        sizes = np.array([len(pat) for pat in patterns])
        assert sizes.mean() == pytest.approx(rates.sum() / p_any, abs=5 * sizes.std() / np.sqrt(draws))
        for pat in patterns[:200]:
            gates = [g for g, _ in pat]
            assert gates == sorted(set(gates))
            assert all(1 <= s < 4 ** len(errors.qubits[g]) for g, s in pat)


class TestChannelPerturbation:
    def _clean_instrument(self):
        k = np.diag([0.9, 0.85, 0.3, 0.2]).astype(complex)
        return oracles.make_instrument(k, 1.0, "global")

    def test_zero_delta_identity(self):
        inst = self._clean_instrument()
        pert = oracles.perturb_instrument(inst, oracles.ChannelPerturbation(0.0, seed=3))
        assert np.abs(pert.e0 - inst.e0).max() <= 1e-15

    def test_perturbed_completeness_and_size(self):
        inst = self._clean_instrument()
        for delta in (1e-3, 1e-2):
            pert = oracles.perturb_instrument(inst, oracles.ChannelPerturbation(delta, seed=5))
            comp = pert.e0.conj().T @ pert.e0 + pert.e1.conj().T @ pert.e1
            assert np.abs(comp - np.eye(4)).max() <= 1e-8
            measured = oracles.transfer_delta(inst, pert)
            assert measured == pytest.approx(delta, rel=0.2)

    def test_perturbed_local_instrument_declares_no_support(self):
        # the direction acts on the instrument's own qubit, so the perturbed
        # pair keeps its support and the sweep equals the padded reference
        k = np.diag([0.9, 0.3]).astype(complex)
        inst = oracles.make_instrument(k, 0.5, "global", support=(1,))
        pert = oracles.perturb_instrument(inst, oracles.ChannelPerturbation(1e-2, seed=2))
        assert pert.support == (1,) and pert.e0.shape == (2, 2)
        assert np.abs(pert.e0 - inst.e0).max() > 1e-4
        t0, _ = im.sweep_transfer_product([pert], 2)
        full = embed(pert.e0 @ pert.e0, (1,), 2)
        assert np.abs(column_stacked(t0) - np.kron(full.conj(), full)).max() <= 1e-13

    def test_norm_guard(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = oracles.make_instrument(p, 1.0, "global")
        with pytest.raises(InvalidNoiseError):
            oracles.perturb_instrument(inst, oracles.ChannelPerturbation(0.3, seed=1))


class TestBounds:
    def test_asymptotic_examples(self):
        params = agsp.AgspParams.from_sqrt(sqrt_delta=1.0 / 3.0, sqrt_gamma=1.0, epsilon=0.0)
        clean = nz.resilience_bound_asymptotic(params, 0.0)
        assert clean.value == pytest.approx(1.0) and not clean.vacuous
        noisy = nz.resilience_bound_asymptotic(params, 0.05)
        assert noisy.value == pytest.approx(1.0 - 0.1 / (2.0 / 3.0 - 0.1))
        at_threshold = nz.resilience_bound_asymptotic(params, 1.0 / 3.0 + 1e-12)
        assert at_threshold.vacuous and at_threshold.value == 0.0

    def test_fixed_point_examples(self):
        params = agsp.AgspParams(delta=0.3, gamma=1.0, epsilon=0.0)
        assert oracles.fixed_point_resilience_bound(params, 0.01, 4, 1) == pytest.approx(0.96)
        clean = agsp.AgspParams(delta=0.3, gamma=0.9, epsilon=0.0)
        assert oracles.fixed_point_resilience_bound(clean, 0.0, 8, 2) == pytest.approx(
            an.fixed_point_overlap_bound(clean, 8, 2), abs=0.2
        )

    def test_perturbed_fixed_points_meet_bound(self, rng):
        # random Kraus-direction perturbations at delta in {1e-3, 1e-2}
        vals = np.array([0.97, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        k = (q * vals) @ q.conj().T
        pi = q[:, :1] @ q[:, :1].conj().T
        params = agsp.verify_agsp(k, pi)
        inst = oracles.make_instrument(k, 1.0, "global")
        for delta in (1e-3, 1e-2):
            for seed in (0, 1, 2):
                pert = oracles.perturb_instrument(inst, oracles.ChannelPerturbation(delta, seed=seed))
                channel = global_channel(pert.e0)
                rho = fixed_point_iterate(channel, tol=1e-12)
                overlap = float(np.trace(pi @ rho).real)
                # ||E' - E||_1 <= 4 ||E0' - E0||, a valid rate for the theorem
                delta_eff = 4.0 * float(np.linalg.norm(pert.e0 - inst.e0, 2))
                bound = oracles.fixed_point_resilience_bound(params, delta_eff, 8, 1)
                assert overlap >= bound - 1e-9


class TestFreeDecay:
    def test_monotone_toward_mixed(self, spec3):
        series = nz.free_decay_overlaps(spec3, 1e-3, 300)
        assert series[0] == pytest.approx(1.0, abs=1e-9)
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
        floor = spec3.degeneracy / spec3.dimension
        assert series[-1] >= floor - 1e-9
        assert series[-1] < series[0]

    @pytest.mark.parametrize("n", [3, 5])
    def test_closed_form_matches_iteration(self, n):
        spec = pauli.diagonalize(pauli.build_heisenberg_chain(n))
        for p in (0.0, 1e-4, 1e-3, 0.75, 1.0):
            closed = nz.free_decay_overlaps(spec, p, 2400)
            assert closed.shape == (2401,)
            assert np.abs(closed - iterative_free_decay_overlaps(spec, p, 2400)).max() <= 1e-12


class TestNoisyOracle:
    def test_success_transfer_matches_dense_reference(self, heis3):
        cfg = tj.RunConfig(
            heis3,
            schedule=st.EpsilonSchedule.constant(0.2),
            rule=st.FirstRunOfZeros(3),
            noise=nz.DepolarizingPerGate(1e-3, 1e-3),
        )
        eng = tj.TrajectoryEngine(cfg)
        local = column_stacked(nz.noisy_sweep_success_transfer(eng))
        assert np.abs(local - dense_noisy_sweep_success_transfer(eng)).max() <= 1e-13

    def test_sweep_apply_and_adjoint_match_dense(self, heis3, rng):
        cfg = tj.RunConfig(
            heis3,
            schedule=st.EpsilonSchedule.constant(0.3),
            rule=st.FirstRunOfZeros(3),
            noise=nz.DepolarizingPerGate(1e-3, 1e-3),
        )
        eng = tj.TrajectoryEngine(cfg)
        dense = dense_noisy_sweep_success_transfer(eng)
        x = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        # the stack and the sweep's output in the Pauli-transfer basis
        b = pauli_basis(3)

        def walk(steps, branch):
            return b @ im.sweep_walk([(steps, branch)], b.conj().T @ x, im.PauliSector(3))[0]

        steps = nz._noisy_steps(eng)
        fwd, adj = walk(steps, im.MicroStep.success), walk(steps, im.MicroStep.success_adjoint)
        assert np.abs(fwd - dense @ x).max() <= 1e-13
        assert np.abs(adj - dense.conj().T @ x).max() <= 1e-13
        # depolarizing leaves the sweep self-adjoint; random Kraus operators
        # on the same supports do not, so the adjoint is checked there too
        ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in eng.terms]
        ops = [a / np.linalg.norm(a, 2) for a in ops]
        steps = [
            im.MicroStep(in_pauli_basis(np.kron(a.conj(), a)), None, t.support, "global")
            for a, t in zip(ops, eng.terms)
        ]
        dense = np.eye(64, dtype=complex)
        for v in list(range(6)) + list(range(5, -1, -1)):
            full = embed(ops[v], eng.terms[v].support, 3)
            dense = np.kron(full.conj(), full) @ dense
        fwd, adj = walk(steps, im.MicroStep.success), walk(steps, im.MicroStep.success_adjoint)
        assert np.abs(fwd - dense @ x).max() <= 1e-13
        assert np.abs(adj - dense.conj().T @ x).max() <= 1e-13
        assert np.abs(fwd - adj).max() > 1e-3 * np.abs(fwd).max()

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p", [0.0, 1e-4, 1e-3])
    def test_matrix_free_delta_matches_dense_norm(self, n, p):
        cfg = tj.RunConfig(
            pauli.build_heisenberg_chain(n),
            schedule=st.EpsilonSchedule.constant(0.4),
            rule=st.Secretary(60),
            noise=nz.DepolarizingPerGate(p, p),
        )
        eng = tj.TrajectoryEngine(cfg)
        k = eng.sweep_success_kraus(0.4)
        dense = float(np.linalg.norm(dense_noisy_sweep_success_transfer(eng) - np.kron(k.conj(), k), 2))
        assert nz.noisy_sweep_delta(eng) == pytest.approx(dense, rel=1e-10, abs=1e-14)

    def test_matrix_free_delta_non_normal(self, heis3, rng):
        # random Kraus sets make the noisy sweep non-normal, so the adjoint
        # passes to ARPACK are checked too
        cfg = tj.RunConfig(
            heis3,
            schedule=st.EpsilonSchedule.constant(0.4),
            rule=st.Secretary(60),
            noise=nz.DepolarizingPerGate(1e-3, 1e-3),
        )
        eng = tj.TrajectoryEngine(cfg)

        def contraction(d):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return a / np.linalg.norm(a, 2)

        eng.noisy_instruments = [
            replace(ni, success_transfer=im.pauli_transfer([contraction(4), contraction(4) / 2]))
            for ni in eng.noisy_instruments
        ]
        clean, _ = dense_sweep_transfer_product(eng.instruments_at(0.4), 3)
        dense = float(np.linalg.norm(dense_noisy_sweep_success_transfer(eng) - clean, 2))
        assert nz.noisy_sweep_delta(eng) == pytest.approx(dense, rel=1e-10)

    def test_monte_carlo_matches_noisy_transfer(self, heis3, spec3):
        self._monte_carlo_against_exact(heis3, spec3, 1e-4, 1500)

    def test_monte_carlo_tells_noise_from_clean(self, heis3, spec3):
        # at 1e-4 the exact noisy overlap (0.99475) is within the band of the
        # clean one (0.99675); at 5e-3 it is 0.898, which 800 trajectories
        # resolve from the clean overlap by about 12 stderr
        stats, ex_ov, rho0 = self._monte_carlo_against_exact(heis3, spec3, 5e-3, 800)
        clean_cfg = tj.RunConfig(heis3, schedule=st.EpsilonSchedule.constant(0.2), rule=st.FirstRunOfZeros(3))
        eng = tj.TrajectoryEngine(clean_cfg)
        (clean,) = an.expected_stopped_general(*eng.sweep_transfers(0.2), rho0, [3])
        clean_ov = float(np.trace(spec3.ground_projector @ clean.state).real)
        assert abs(ex_ov - clean_ov) >= 10 * stats.stderr_overlap

    @staticmethod
    def _monte_carlo_against_exact(heis3, spec3, p, num_trajectories):
        # end-to-end: sampled Pauli error events vs the exact channel built
        # from the tomography's success transfers R_0
        cfg = tj.RunConfig(
            heis3,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.constant(0.2),
            resampler="global",
            rule=st.FirstRunOfZeros(3),
            seed=5,
            weighting="max",
            noise=nz.DepolarizingPerGate(p, p),
        )
        eng = tj.TrajectoryEngine(cfg)
        stats = tj.run_ensemble(cfg, num_trajectories, engine=eng)
        d = 8
        micro = []
        for ni, t in zip(eng.noisy_instruments, eng.terms):
            table = t.table
            t0m = np.zeros((d * d, d * d), dtype=complex)
            for a in noisy_kraus(ni)[0]:
                full = np.zeros((d, d), dtype=complex)
                for r in range(table.shape[0]):
                    full[np.ix_(table[r], table[r])] = a
                t0m += np.kron(full.conj(), full)
            t1m = np.outer(vec(np.eye(d) / d), trace_row(d).conj()) @ (
                np.eye(d * d) - t0m
            )
            micro.append((t0m, t1m))
        order = list(range(6)) + list(range(5, -1, -1))
        full_t = np.eye(d * d, dtype=complex)
        succ = np.eye(d * d, dtype=complex)
        for v in order:
            full_t = (micro[v][0] + micro[v][1]) @ full_t
            succ = micro[v][0] @ succ
        rho0 = np.eye(d) / d
        t0, t1 = DenseTransfer(succ), DenseTransfer(full_t - succ)
        ex_state = an.expected_state_general(t0, t1, rho0, 3)
        ex_ov = float(np.trace(spec3.ground_projector @ ex_state).real)
        ex_tau = an.expected_tau_general(t0, t1, rho0, 3)
        assert abs(stats.mean_overlap - ex_ov) <= 3 * stats.stderr_overlap
        assert abs(stats.mean_tau - ex_tau) <= 3 * stats.stderr_tau
        return stats, ex_ov, rho0


class TestSharedTomography:
    def test_one_tomography_per_distinct_term(self, monkeypatch):
        ham = pauli.build_heisenberg_chain(5)
        model = nz.DepolarizingPerGate(1e-3, 1e-3)
        cfg = tj.RunConfig(
            ham, schedule=st.EpsilonSchedule.constant(0.4), rule=st.Secretary(60), noise=model
        )
        calls = []
        tomography = nz.noisy_term_instrument

        def counting(*args):
            calls.append(args[0])
            return tomography(*args)

        monkeypatch.setattr(nz, "noisy_term_instrument", counting)
        eng = tj.TrajectoryEngine(cfg)
        # the sampler needs no tomography; the oracle's first use runs it
        assert calls == []
        instruments = eng.noisy_instruments
        assert eng.noisy_instruments is instruments
        monkeypatch.undo()
        # XX, YY and ZZ bonds with equal coefficients: three distinct circuits
        assert len(calls) == 3
        for t, ni in zip(eng.terms, instruments):
            ref = nz.noisy_term_instrument(t.term, 0.4, t.weight, model)
            assert ni.support == ref.support == t.support
            assert ni.delta_measured == ref.delta_measured
            assert np.array_equal(ni.success_transfer, ref.success_transfer)
            assert np.array_equal(ni.failure_transfer, ref.failure_transfer)


class TestNoisyTrajectories:
    def test_zero_noise_matches_clean_bitwise(self, heis2):
        rule = st.FirstRunOfZeros(3)
        base = dict(
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.constant(0.2),
            resampler="global",
            rule=rule,
            seed=31,
            weighting="max",
        )
        clean = tj.RunConfig(heis2, **base)
        noisy = tj.RunConfig(heis2, noise=nz.DepolarizingPerGate(0.0, 0.0), **base)
        rec_c = tj.run_trajectory(tj.TrajectoryEngine(clean))
        rec_n = tj.run_trajectory(tj.TrajectoryEngine(noisy))
        assert rec_c.stop_step == rec_n.stop_step
        assert rec_c.final_overlap == pytest.approx(rec_n.final_overlap, abs=1e-12)
        assert rec_c.final_energy == pytest.approx(rec_n.final_energy, abs=1e-12)

    def test_zero_noise_experiment_equals_clean(self, heis2):
        report = nz.run_resilience_experiment(
            heis2,
            nz.DepolarizingPerGate(0.0, 0.0),
            runtimes=(30, 60),
            eps=0.2,
            num_trajectories=25,
            seed=3,
        )
        assert report.delta_measured <= 1e-10
        for cap, noisy_ov in zip(report.runtimes, report.overlaps):
            cfg = tj.RunConfig(
                heis2,
                agsp_mode="product-sweep",
                schedule=st.EpsilonSchedule.constant(0.2),
                resampler="global",
                rule=st.Secretary(cap),
                seed=3,
                weighting="max",
            )
            clean = tj.run_ensemble(cfg, 25)
            assert noisy_ov == pytest.approx(clean.mean_overlap, abs=1e-10)

    def test_experiment_builds_one_engine(self, heis2, monkeypatch):
        builds = []
        init = tj.TrajectoryEngine.__init__

        def counting(self, cfg, *args):
            builds.append(cfg)
            init(self, cfg, *args)

        monkeypatch.setattr(tj.TrajectoryEngine, "__init__", counting)
        report = nz.run_resilience_experiment(
            heis2, nz.DepolarizingPerGate(1e-3, 1e-3), runtimes=(20, 40, 80),
            eps=0.3, num_trajectories=3, seed=2,
        )
        assert len(builds) == 1
        assert len(report.overlaps) == 3

    def test_noise_degrades_smoothly(self, heis2):
        # the overlap deficit roughly doubles when the rate doubles
        rule = st.FirstRunOfZeros(6)
        overlaps = {}
        for p in (2e-3, 4e-3):
            cfg = tj.RunConfig(
                heis2,
                agsp_mode="product-sweep",
                schedule=st.EpsilonSchedule.constant(0.3),
                resampler="global",
                rule=rule,
                seed=7,
                weighting="max",
                noise=nz.DepolarizingPerGate(p, p),
            )
            stats = tj.run_ensemble(cfg, 1200, engine=tj.TrajectoryEngine(cfg))
            overlaps[p] = (stats.mean_overlap, stats.stderr_overlap)
        d1 = 1.0 - overlaps[2e-3][0]
        d2 = 1.0 - overlaps[4e-3][0]
        err = 3 * (overlaps[2e-3][1] + overlaps[4e-3][1])
        assert d2 > d1 - err
        assert d2 / max(d1, 1e-12) == pytest.approx(2.0, abs=1.0)
