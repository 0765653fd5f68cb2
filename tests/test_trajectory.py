import copy
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from dqe import analytics as an, instrument as im, noise as nz, pauli, stopping as st
from dqe import trajectory as tj
from dqe.errors import ConfigError, InvalidNoiseError

import oracles
from oracles import global_run_success_probs, longest_zero_run, markov_expected_absorption


def _cfg(ham, **kw):
    base = dict(
        agsp_mode="linear-global",
        schedule=st.EpsilonSchedule.constant(0.5),
        resampler="global",
        rule=st.FirstRunOfZeros(3),
        seed=7,
    )
    base.update(kw)
    return tj.RunConfig(ham, **base)


class TestDeterminism:
    def test_identical_records(self, heis2):
        cfg = _cfg(heis2, record_series=True)
        engine = tj.TrajectoryEngine(cfg)
        a = tj.run_trajectory(engine)
        b = tj.run_trajectory(engine)
        assert a.stop_step == b.stop_step
        assert a.final_overlap == b.final_overlap
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.series, b.series)

    def test_ensemble_seed_reproducible(self, heis2):
        cfg = _cfg(heis2)
        s1 = tj.run_ensemble(cfg, 50)
        s2 = tj.run_ensemble(cfg, 50)
        assert s1 == s2

    def test_parallel_matches_serial(self, heis2):
        cfg = _cfg(heis2)
        serial = tj.run_ensemble(cfg, 40, parallelism=1)
        parallel = tj.run_ensemble(cfg, 40, parallelism=2)
        assert serial == parallel

    def test_engine_rebound_to_run_fields(self, heis2):
        # an engine built for another seed and rule runs the given config's
        cfg = _cfg(heis2, agsp_mode="product-sweep", resampler="local", seed=3)
        other = _cfg(heis2, agsp_mode="product-sweep", resampler="local", seed=9,
                     rule=st.Secretary(40), max_steps=500)
        engine = tj.TrajectoryEngine(other)
        stats, rows = tj.run_ensemble(cfg, 30, engine=engine, return_records=True)
        fresh, fresh_rows = tj.run_ensemble(cfg, 30, return_records=True)
        assert stats == fresh and rows == fresh_rows
        assert engine.cfg is other
        assert engine.rebind(other) is engine

    @pytest.mark.parametrize("field,value", [
        ("schedule", st.EpsilonSchedule.constant(0.3)),
        ("resampler", "global"),
        ("weighting", "sum"),
        ("agsp_mode", "mixture-random"),
    ])
    def test_engine_for_other_operators_refused(self, heis2, field, value):
        base = dict(agsp_mode="product-sweep", resampler="local")
        engine = tj.TrajectoryEngine(_cfg(heis2, **base))
        with pytest.raises(ConfigError):
            tj.run_ensemble(_cfg(heis2, **{**base, field: value}), 5, engine=engine)

    def test_single_trajectory_ensemble(self, heis2):
        cfg = _cfg(heis2)
        stats, rows = tj.run_ensemble(cfg, 1, return_records=True)
        assert stats.num_trajectories == 1
        assert stats.mean_overlap == rows[0][4]
        assert stats.stderr_overlap == 0.0


class TestSingleQubitAbsorption:
    def test_z_projective(self, ham_z):
        cfg = _cfg(
            ham_z,
            schedule=st.EpsilonSchedule.constant(1.0),
            rule=st.FirstRunOfZeros(1),
            seed=3,
        )
        engine = tj.TrajectoryEngine(cfg)
        rec = tj.run_trajectory(engine)
        assert rec.final_overlap == pytest.approx(1.0, abs=1e-12)
        stats = tj.run_ensemble(cfg, 400, engine=engine)
        oracle = markov_expected_absorption(
            global_run_success_probs(engine.k_global, 1)
        )
        assert abs(stats.mean_tau - oracle) <= 3 * stats.stderr_tau + 1e-12


class TestObservables:
    def test_ground_eigenvector(self, heis2, spec2):
        v = spec2.eigenvectors[:, 0]
        energy, overlap = tj.measure_observables(v, pauli.to_dense(heis2), spec2.ground_projector)
        assert energy == pytest.approx(spec2.lambda0, abs=1e-10)
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_path(self, heis3, spec3, rng):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        h = pauli.to_dense(heis3)
        energy, overlap = tj.measure_observables(psi, h, spec3.ground_projector)
        assert energy == pytest.approx(float((psi.conj() @ h @ psi).real), abs=1e-12)
        assert overlap == pytest.approx(
            float((psi.conj() @ spec3.ground_projector @ psi).real), abs=1e-12
        )

    def test_record_bounds(self, heis3, spec3):
        cfg = _cfg(heis3, seed=5)
        engine = tj.TrajectoryEngine(cfg)
        for i in range(20):
            rec = tj.run_trajectory(engine, np.random.SeedSequence(i))
            assert -1e-9 <= rec.final_overlap <= 1 + 1e-9
            assert spec3.lambda0 - 1e-9 <= rec.final_energy <= spec3.norm + 1e-9


class TestOracleAgreement:
    def test_linear_global_expected_state(self, heis2, spec2):
        cfg = _cfg(heis2, rule=st.FirstRunOfZeros(2), seed=11)
        engine = tj.TrajectoryEngine(cfg)
        stats = tj.run_ensemble(cfg, 4000, engine=engine)
        # the effective per-sweep AGSP is E0 = (1-eps) + eps K
        state = oracles.expected_state_global(engine.sweep_success_kraus(0.5), 2)
        exact = float(np.trace(engine.pi0 @ state).real)
        assert abs(stats.mean_overlap - exact) <= 3 * stats.stderr_overlap

    def test_product_sweep_local_resampling(self, heis3):
        cfg = _cfg(
            heis3,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.constant(0.2),
            resampler="local",
            rule=st.FirstRunOfZeros(3),
            weighting="max",
            seed=2,
        )
        engine = tj.TrajectoryEngine(cfg)
        t0, t1 = engine.sweep_transfers(0.2)
        rho0 = np.eye(8) / 8
        exact_state = an.expected_state_general(t0, t1, rho0, 3)
        exact_overlap = float(np.trace(engine.pi0 @ exact_state).real)
        exact_tau = an.expected_tau_general(t0, t1, rho0, 3)
        stats = tj.run_ensemble(cfg, 2500, engine=engine)
        assert abs(stats.mean_overlap - exact_overlap) <= 3 * stats.stderr_overlap
        assert abs(stats.mean_tau - exact_tau) <= 3 * stats.stderr_tau

    def test_global_mode_local_resampling(self, heis3):
        # a global instrument acts on every qubit, so "local" resets the whole
        # register after its failure, in the sampler as in the oracle
        cfg = _cfg(heis3, schedule=st.EpsilonSchedule.constant(0.3), resampler="local", seed=2)
        engine = tj.TrajectoryEngine(cfg)
        (exact,) = an.expected_stopped_general(*engine.sweep_transfers(0.3), np.eye(8) / 8, [3])
        exact_overlap = float(np.trace(engine.pi0 @ exact.state).real)
        stats = tj.run_ensemble(cfg, 4000, engine=engine)
        assert abs(stats.mean_overlap - exact_overlap) <= 3 * stats.stderr_overlap
        assert abs(stats.mean_tau - exact.tau) <= 3 * stats.stderr_tau

    def test_identity_string_local_failure_is_identity_map(self):
        # build_maxsat measures its constant offset as the identity string;
        # its support is empty, so a local reset after it fails touches no
        # qubit, as in the sampler
        ham = pauli.build_maxsat(3, [((0, 1), "11"), ((1, 2), "01"), ((0, 2), "00")])
        cfg = _cfg(
            ham,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.constant(0.2),
            resampler="local",
            rule=st.FirstRunOfZeros(2),
        )
        engine = tj.TrajectoryEngine(cfg)
        t0, t1 = engine.sweep_transfers(0.2)
        # a global reset there instead gives 0.5749 and 407.9
        (exact,) = an.expected_stopped_general(t0, t1, np.eye(8) / 8, [2])
        assert np.trace(engine.pi0 @ exact.state).real == pytest.approx(0.6008, abs=1e-4)
        assert exact.tau == pytest.approx(395.1, abs=0.1)
        insts = engine.instruments_at(0.2)
        assert [inst.support for inst in insts].count(()) == 1
        kept = [replace(inst, resampler="identity") if inst.support == () else inst for inst in insts]
        r0, r1 = im.sweep_transfer_product(kept, 3, engine.sector)
        assert np.abs(t0.matrix - r0.matrix).max() <= 1e-13
        assert np.abs(t1.matrix - r1.matrix).max() <= 1e-13

    def test_mixture_mode(self, heis2):
        cfg = _cfg(
            heis2,
            agsp_mode="mixture-random",
            schedule=st.EpsilonSchedule.constant(0.2),
            rule=st.FirstRunOfZeros(2),
            weighting="max",
            seed=13,
        )
        engine = tj.TrajectoryEngine(cfg)
        t0, t1 = engine.sweep_transfers(0.2)
        rho0 = np.eye(4) / 4
        exact_state = an.expected_state_general(t0, t1, rho0, 2)
        exact_overlap = float(np.trace(engine.pi0 @ exact_state).real)
        stats = tj.run_ensemble(cfg, 2500, engine=engine)
        assert abs(stats.mean_overlap - exact_overlap) <= 3 * stats.stderr_overlap

    def test_decaying_schedule_oracle(self, heis2):
        eps = st.suggest_epsilon(heis2)
        n = 4
        cfg = _cfg(
            heis2,
            agsp_mode="product-sweep",
            schedule=st.EpsilonSchedule.decaying(eps),
            resampler="global",
            rule=st.FirstRunOfZeros(n),
            weighting="max",
            seed=21,
        )
        engine = tj.TrajectoryEngine(cfg)
        t0s, t1s = [], []
        for j in range(1, n + 1):
            t0, t1 = engine.sweep_transfers(eps / j)
            t0s.append(t0)
            t1s.append(t1)
        rho0 = np.eye(4) / 4
        exact = float(
            np.trace(engine.pi0 @ oracles.expected_state_schedule(t0s, t1s, rho0)).real
        )
        stats = tj.run_ensemble(cfg, 2500, engine=engine)
        assert abs(stats.mean_overlap - exact) <= 3 * stats.stderr_overlap

    def test_chebyshev_global_mode(self, heis2):
        cfg = _cfg(
            heis2,
            agsp_mode="chebyshev-global",
            schedule=st.EpsilonSchedule.constant(0.5),
            rule=st.FirstRunOfZeros(2),
            cheb_degree=2,
            seed=4,
        )
        engine = tj.TrajectoryEngine(cfg)
        stats = tj.run_ensemble(cfg, 1500, engine=engine)
        state = oracles.expected_state_global(engine.sweep_success_kraus(0.5), 2)
        exact = float(np.trace(engine.pi0 @ state).real)
        assert abs(stats.mean_overlap - exact) <= 3 * stats.stderr_overlap


class TestMonotonicity:
    def test_overlap_vs_current_run_length(self, heis2):
        # mean overlap conditioned on the current zero-run length is
        # non-decreasing (within sampling error) under global resampling
        cfg = _cfg(
            heis2,
            rule=st.TimeCap(60),
            max_steps=60,
            record_series=True,
            seed=17,
        )
        engine = tj.TrajectoryEngine(cfg)
        buckets = {}
        for i in range(300):
            rec = tj.run_trajectory(engine, np.random.SeedSequence(i))
            run = 0
            for t in range(rec.outcomes.shape[0]):
                run = run + 1 if rec.outcomes[t] == 0 else 0
                buckets.setdefault(run, []).append(rec.series[t, 1])
        ks = sorted(k for k, v in buckets.items() if len(v) >= 200)[:5]
        means = [np.mean(buckets[k]) for k in ks]
        errs = [np.std(buckets[k]) / np.sqrt(len(buckets[k])) for k in ks]
        for i in range(len(ks) - 1):
            assert means[i + 1] >= means[i] - 3 * (errs[i] + errs[i + 1])


class TestTruncation:
    def test_snapshot_reports_longest_run(self, heis2):
        cfg = _cfg(
            heis2,
            rule=st.FirstRunOfZeros(99),
            max_steps=60,
            record_series=True,
            seed=23,
        )
        engine = tj.TrajectoryEngine(cfg)
        rec = tj.run_trajectory(engine)
        assert rec.truncated
        assert rec.stopped_run_length == longest_zero_run(rec.outcomes)
        # the snapshot step closes the first run of that record length
        run = 0
        first_end = None
        for t in range(rec.outcomes.shape[0]):
            run = run + 1 if rec.outcomes[t] == 0 else 0
            if run == rec.stopped_run_length:
                first_end = t + 1
                break
        assert rec.stop_step == first_end

    def test_secretary_horizon_caps(self, heis2):
        cfg = _cfg(heis2, rule=st.Secretary(30), max_steps=10**6, seed=29)
        engine = tj.TrajectoryEngine(cfg)
        for i in range(10):
            rec = tj.run_trajectory(engine, np.random.SeedSequence(i))
            assert rec.stop_step <= 30


class TestConfigValidation:
    def test_bad_mode(self, heis2):
        with pytest.raises(ConfigError):
            tj.RunConfig(heis2, agsp_mode="nope", rule=st.FirstRunOfZeros(1))

    def test_noise_requires_local_constant(self, heis2):
        from dqe.noise import DepolarizingPerGate

        with pytest.raises(ConfigError):
            tj.RunConfig(
                heis2,
                agsp_mode="linear-global",
                rule=st.FirstRunOfZeros(1),
                noise=DepolarizingPerGate(1e-4, 1e-4),
            )
        with pytest.raises(ConfigError):
            tj.RunConfig(
                heis2,
                agsp_mode="product-sweep",
                schedule=st.EpsilonSchedule.decaying(0.1),
                rule=st.FirstRunOfZeros(1),
                noise=DepolarizingPerGate(1e-4, 1e-4),
            )

    def test_missing_rule(self, heis2):
        with pytest.raises(ConfigError):
            tj.RunConfig(heis2)


class TestGlobalEigenpairs:
    """A global engine reads K's eigenpairs off H's: no second eigh."""

    @pytest.mark.parametrize("mode", ["linear-global", "chebyshev-global"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_reassemble_k(self, n, mode):
        engine = tj.TrajectoryEngine(_cfg(pauli.build_heisenberg_chain(n), agsp_mode=mode))
        kv, kw = engine._kv, engine._kw
        assert np.abs((kv * kw) @ kv.conj().T - engine.k_global).max() <= 1e-12

    # (stop_step, stopped_run_length) of seeds 0..19.  The (3, "identity")
    # and (4, "global") rows date from an engine that took K's eigenpairs
    # from a second eigh of K; the identity row is what "local" gave while
    # it kept the E1 branch.  A global instrument acts on every qubit, so
    # "local" now resets the register and gives the "global" records.
    PINNED = {
        (3, "identity"): [3, 16, 8, 6, 5, 4, 3, 12, 7, 10, 5, 31, 4, 60, 42, 34, 3, 3, 42, 4],
        (3, "local"): [3, 8, 5, 15, 24, 4, 3, 9, 6, 8, 20, 13, 4, 29, 19, 4, 3, 3, 7, 4],
        (4, "global"): [3, 8, 17, 41, 20, 4, 3, 9, 6, 32, 20, 3, 4, 34, 13, 4, 3, 3, 8, 4],
    }

    @pytest.mark.parametrize("n,resampler", sorted(PINNED))
    def test_linear_global_records_pinned(self, n, resampler):
        cfg = _cfg(pauli.build_heisenberg_chain(n), resampler=resampler)
        engine = tj.TrajectoryEngine(cfg)
        records = [tj.run_trajectory(engine.rebind(replace(cfg, seed=s))) for s in range(20)]
        assert [(r.stop_step, r.stopped_run_length) for r in records] == [
            (t, 3) for t in self.PINNED[n, resampler]
        ]
        assert not any(r.truncated for r in records)


class TestLocalResampleDraw:
    def test_matches_generator_choice(self):
        src = np.random.default_rng(5)
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(5000):
            k = int(src.integers(1, 17))
            probs = src.random(k) ** 3
            probs[src.random(k) < 0.2] = 0.0
            if probs.sum() == 0.0:
                probs[-1] = 1.0
            p = probs / probs.sum()
            assert tj._choice(a, p) == int(b.choice(k, p=p))
        assert a.bit_generator.state == b.bit_generator.state


class TestOneDenseH:
    @pytest.mark.parametrize("mode", ["product-sweep", "linear-global"])
    def test_engine_build_makes_one_dense_h(self, heis4, monkeypatch, mode):
        from dqe import agsp

        calls = []
        real = pauli.to_dense

        def counting(ham):
            calls.append(ham)
            return real(ham)

        for module in (pauli, tj, agsp):
            monkeypatch.setattr(module, "to_dense", counting)
        engine = tj.TrajectoryEngine(_cfg(heis4, agsp_mode=mode))
        assert len(calls) == 1
        assert np.array_equal(engine.h_dense, real(heis4))


class _StubRng:
    """Pinned draws: every uniform is ``u`` and every integer ``index``."""

    def __init__(self, u: float, index: int):
        self.u, self.index = u, index

    def random(self):
        return self.u

    def integers(self, high):
        return self.index


class TestSilentFallbacks:
    """Both fallbacks reset to the pinned basis state and report a failure."""

    def _state(self, engine, psi, index):
        engine.state_dtype = np.complex128  # the pinned states are complex
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(0))
        ts.psi[:] = psi
        ts.rng = _StubRng(u=2.0, index=index)  # u >= p0: the failure branch
        return ts

    @pytest.mark.parametrize("segmented", [False, True], ids=["micro", "segment"])
    def test_clean_local_p1_underflow_resets(self, heis2, segmented):
        engine = tj.TrajectoryEngine(_cfg(heis2, agsp_mode="product-sweep", resampler="local"))
        assert engine.segmented
        engine.segmented = segmented
        term = engine.terms[0]
        assert term.term.string.factors == "XX" and term.weight == 1.0
        # the XX = -1 state is where the weight-1 E0 is the identity: p1 = 0
        psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        ts = self._state(engine, psi, index=3)
        # one sweep: the first micro-measurement fails and resets to index 3,
        # the other five succeed; the local resampler's draws would empty
        # the queues early
        ts.rng = _QueuedRng(uniforms=[2.0] + [0.0] * 5, integers=[3])
        assert engine.sweep_order[0] == 0
        assert tj._run_sweep(ts, engine, 0.3) == 1
        assert not ts.rng.uniforms and not ts.rng.ints
        expected = np.eye(4, dtype=complex)[3]
        for v in engine.sweep_order[1:]:
            a0, b0, _, _ = engine.terms[v].coefficients(0.3)
            expected = a0 * expected + b0 * (engine.terms[v].term.string.to_matrix() @ expected)
        expected /= np.linalg.norm(expected)
        assert np.abs(ts.psi - expected).max() <= 1e-14

    @pytest.mark.parametrize(
        "kraus0,kraus1",
        [
            (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),  # p1 = 1 - p0 = 0
            (np.sqrt(0.5) * np.eye(2), np.diag([0.0, 1.0])),  # p1 = 1/2, E1 psi = 0
        ],
        ids=["p1-underflow", "kraus-underflow"],
    )
    def test_noisy_underflow_resets(self, ham_z, kraus0, kraus1):
        # a gate-error event whose failure branch has no weight on the state
        engine = tj.TrajectoryEngine(_cfg(ham_z, agsp_mode="product-sweep"))
        ts = self._state(engine, np.array([1.0, 0.0]), index=1)
        table = pauli.support_index_table(1, (0,))
        ops = (kraus0, kraus1, kraus0.T @ kraus0)
        assert tj._measure_term_error(ts, ops, table, "local") == 1
        assert np.array_equal(ts.psi, np.eye(2)[1])


class _QueuedRng:
    """Pinned draws in order, one queue per kind of draw."""

    def __init__(self, uniforms=(), integers=(), exponentials=()):
        self.uniforms, self.ints, self.exps = list(uniforms), list(integers), list(exponentials)

    def random(self):
        return self.uniforms.pop(0)

    def integers(self, high):
        value = self.ints.pop(0)
        assert 0 <= value < high
        return value

    def standard_exponential(self):
        return self.exps.pop(0)


class _PinnedClock:
    """A generator whose every re-armed clock is ``value``."""

    def __init__(self, rng, value):
        self.rng, self.value = rng, value

    def random(self):
        return self.rng.random()

    def integers(self, high):
        return self.rng.integers(high)

    def standard_exponential(self):
        return self.value


def _noisy(ham, p=1e-2, **kw):
    return tj.RunConfig(
        ham, schedule=st.EpsilonSchedule.constant(0.3), rule=st.FirstRunOfZeros(3),
        noise=nz.DepolarizingPerGate(p, p), **kw,
    )


class TestGateErrorEvents:
    """Every branch of the error-event sampler, forced by pinned draws."""

    # first failing gate 0 (the XX term's first basis rotation), a Z on it,
    # and no later gate failing
    PATTERN = ((0, 3),)

    def _event(self, heis2, resampler):
        engine = tj.TrajectoryEngine(_noisy(heis2, resampler=resampler))
        errors = engine.gate_errors[0]
        assert engine.terms[0].term.string.factors == "XX"
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(0))
        psi = np.random.default_rng(4).normal(size=4)
        ts.psi[:] = psi / np.linalg.norm(psi)
        later = [0.999] * (len(errors.rates) - 1)
        return engine, errors, ts, later

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_success_branch(self, heis2, resampler):
        engine, errors, ts, later = self._event(heis2, resampler)
        k0, _, m0 = errors.branch_operators(self.PATTERN)
        expected = k0 @ ts.psi
        assert 1e-3 < float(ts.psi @ m0 @ ts.psi) < 0.999
        psi = ts.psi
        ts.rng = _QueuedRng(uniforms=[0.0] + later + [0.0], integers=[2])
        ops = errors.draw(ts.rng)
        assert list(errors._cache) == [self.PATTERN] and errors._cache[self.PATTERN] is ops
        assert tj._measure_term_error(ts, ops, engine.terms[0].table, resampler) == 0
        assert ts.psi is psi and ts.psi.dtype == np.float64
        assert np.abs(ts.psi - expected / np.linalg.norm(expected)).max() <= 1e-14
        assert not ts.rng.uniforms and not ts.rng.ints

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_failure_branch(self, heis2, resampler):
        engine, errors, ts, later = self._event(heis2, resampler)
        _, k1, _ = errors.branch_operators(self.PATTERN)
        expected = k1 @ ts.psi
        expected /= np.linalg.norm(expected)
        uniforms, ints = [0.0] + later + [0.999], [2]
        if resampler == "global":
            ints.append(3)  # the reset's basis state
        if resampler == "local":
            # the support is the whole register: keep slice 0, move it to 2
            uniforms.append(0.0)
            ints.append(2)
        ts.rng = _QueuedRng(uniforms=uniforms, integers=ints)
        ops = errors.draw(ts.rng)
        assert tj._measure_term_error(ts, ops, engine.terms[0].table, resampler) == 1
        assert not ts.rng.uniforms and not ts.rng.ints
        if resampler == "global":
            assert np.array_equal(ts.psi, np.eye(4)[3])
        elif resampler == "identity":
            assert np.abs(ts.psi - expected).max() <= 1e-14
        else:
            assert np.abs(np.abs(ts.psi) - np.eye(4)[2]).max() <= 1e-14

    def test_every_micro_fires_at_rate_one(self, heis2, monkeypatch):
        engine = tj.TrajectoryEngine(_noisy(heis2, p=1.0, max_steps=30))
        assert engine.hazards == [np.inf] * 3
        events = []
        measure = tj._measure_term_error

        def counting(ts, ops, table, resampler):
            events.append(ops)
            return measure(ts, ops, table, resampler)

        monkeypatch.setattr(tj, "_measure_term_error", counting)
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(3))
        bits = [tj._run_sweep(ts, engine, 0.3) for _ in range(20)]
        assert len(events) == 20 * 6
        assert np.isfinite(ts.psi).all()
        assert np.linalg.norm(ts.psi) == pytest.approx(1.0, abs=1e-12)
        assert 0 < sum(bits) <= 20
        # every gate fails in every drawn pattern
        for errors in engine.gate_errors:
            assert all(len(key) == len(errors.rates) for key in errors._cache)
        rec = tj.run_trajectory(engine)
        assert np.isfinite([rec.final_energy, rec.final_overlap]).all()

    @pytest.mark.parametrize("position", [0, 5])
    def test_clock_fires_on_first_and_last_micro(self, heis2, monkeypatch, position):
        engine = tj.TrajectoryEngine(_noisy(heis2, p=1e-3))
        kinds = []
        clean, error = tj._measure_term_clean, tj._measure_term_error

        def spy_clean(*args):
            kinds.append("clean")
            return clean(*args)

        def spy_error(*args):
            kinds.append("error")
            return error(*args)

        monkeypatch.setattr(tj, "_measure_term_clean", spy_clean)
        monkeypatch.setattr(tj, "_measure_term_error", spy_error)
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(1))
        ts.rng = _PinnedClock(ts.rng, 1e9)
        hz = [engine.hazards[v] for v in engine.sweep_order]
        ts.clock = sum(hz[:position]) + 0.5 * hz[position]
        tj._run_sweep(ts, engine, 0.3)
        assert kinds == ["clean"] * position + ["error"] + ["clean"] * (5 - position)
        assert ts.clock == pytest.approx(1e9 - sum(hz[position + 1:]), rel=1e-15)

    def test_zero_rates_draw_nothing(self, heis2):
        engine = tj.TrajectoryEngine(_noisy(heis2, p=0.0))
        assert engine.gate_errors is None
        clean = tj.TrajectoryEngine(replace(_noisy(heis2), noise=None))
        for seed in range(5):
            a = tj.run_trajectory(engine.rebind(replace(engine.cfg, seed=seed)))
            b = tj.run_trajectory(clean.rebind(replace(clean.cfg, seed=seed)))
            assert (a.stop_step, a.final_energy, a.final_overlap) == (
                b.stop_step, b.final_energy, b.final_overlap
            )

    def test_complex_operator_on_a_real_state_raises(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XY"))
        errors = nz.GateErrors(term, 0.3, 1.0, nz.DepolarizingPerGate(1e-2, 1e-2), real=True)
        with pytest.raises(InvalidNoiseError):
            errors.branch_operators(((0, 1),))


def _witness():
    """ZIX -1.406, IYI 0.932, YZI 0.435: odd-Y terms, so the state is complex."""
    terms = (("ZIX", -1.406), ("IYI", 0.932), ("YZI", 0.435))
    return pauli.PauliHamiltonian(
        3, tuple(pauli.PauliTerm(c, pauli.PauliString(f)) for f, c in terms)
    )


class TestPinnedRecords:
    """Records of seeds 0..19 pinned from the engine that updated a complex
    state out of place and took each branch weight from the norm of the
    updated state: (stop_step, stopped_run_length, truncated) exactly and
    the final energy and overlap to 1e-12."""

    PINNED = json.loads((Path(__file__).parent / "pinned_records.json").read_text())
    # (Hamiltonian, eps, run length of the rule)
    CASES = {
        "heisenberg-4": (lambda: pauli.build_heisenberg_chain(4), 0.1, 3),
        "witness": (_witness, 0.3, 2),
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_records_match(self, key):
        name, mode, resampler = key.split("/")
        make, eps, run = self.CASES[name]
        cfg = tj.RunConfig(
            make(),
            agsp_mode=mode,
            schedule=st.EpsilonSchedule.constant(eps),
            resampler=resampler,
            rule=st.FirstRunOfZeros(run),
            max_steps=400,
        )
        engine = tj.TrajectoryEngine(cfg)
        assert engine.state_dtype == (np.float64 if name == "heisenberg-4" else np.complex128)
        for seed, (step, run_len, truncated, energy, overlap) in enumerate(self.PINNED[key]):
            rec = tj.run_trajectory(engine.rebind(replace(cfg, seed=seed)))
            assert (rec.stop_step, rec.stopped_run_length, rec.truncated) == (
                step, run_len, truncated
            )
            assert rec.final_energy == pytest.approx(energy, abs=1e-12)
            assert rec.final_overlap == pytest.approx(overlap, abs=1e-12)


@hst.composite
def _pauli_hamiltonians(draw):
    """1..5 terms of any weight on 1..4 qubits, real or complex."""
    n = draw(hst.integers(1, 4))
    factors = hst.text("IXYZ", min_size=n, max_size=n)
    coeff = hst.floats(0.05, 2.0) | hst.floats(0.05, 2.0).map(lambda c: -c)
    terms = draw(hst.lists(hst.tuples(factors, coeff), min_size=1, max_size=5))
    return pauli.PauliHamiltonian(
        n, tuple(pauli.PauliTerm(c, pauli.PauliString(f)) for f, c in terms)
    )


def _product_engine(ham, eps, resampler):
    return tj.TrajectoryEngine(tj.RunConfig(
        ham, agsp_mode="product-sweep", schedule=st.EpsilonSchedule.constant(eps),
        resampler=resampler, rule=st.FirstRunOfZeros(3),
    ))


class TestSegmentSampler:
    """The segment sampler against the per-micro loop it replaces."""

    SWEEPS = 200

    def _twin_sweeps(self, engine, eps, seed):
        assert engine.segmented
        micro = copy.copy(engine)
        micro.segmented = False
        a = tj._TrajectoryState(engine, np.random.SeedSequence(seed))
        b = tj._TrajectoryState(micro, np.random.SeedSequence(seed))
        assert np.array_equal(a.psi, b.psi)
        for _ in range(self.SWEEPS):
            assert tj._run_sweep(a, engine, eps) == tj._run_sweep(b, micro, eps)
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
            assert np.abs(a.psi - b.psi).max() <= 1e-12

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    @pytest.mark.parametrize("name", ["heisenberg-3", "heisenberg-4", "heisenberg-5", "witness"])
    def test_twin_sweeps(self, name, resampler):
        ham = _witness() if name == "witness" else pauli.build_heisenberg_chain(int(name[-1]))
        self._twin_sweeps(_product_engine(ham, 0.3, resampler), 0.3, seed=11)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        ham=_pauli_hamiltonians(),
        eps=hst.floats(0.0, 1.0, exclude_min=True),
        resampler=hst.sampled_from(("global", "local", "identity")),
        seed=hst.integers(0, 2**16),
    )
    def test_twin_sweeps_random_hamiltonians(self, ham, eps, resampler, seed):
        self._twin_sweeps(_product_engine(ham, eps, resampler), eps, seed)

    @pytest.mark.parametrize(
        "case,segmented",
        [
            ("clean", True),
            ("mixture", False),
            ("decaying", False),
            ("gate-noise", False),
            ("heisenberg-6", False),
            ("many-terms", False),
        ],
    )
    def test_path_selection(self, heis4, monkeypatch, case, segmented):
        cfg = tj.RunConfig(heis4, schedule=st.EpsilonSchedule.constant(0.3),
                           rule=st.FirstRunOfZeros(3), max_steps=50)
        if case == "mixture":
            cfg = replace(cfg, agsp_mode="mixture-random")
        elif case == "decaying":
            cfg = replace(cfg, schedule=st.EpsilonSchedule.decaying(0.3))
        elif case == "gate-noise":
            cfg = replace(cfg, noise=nz.DepolarizingPerGate(1e-3, 1e-3))
        elif case == "heisenberg-6":
            cfg = replace(cfg, hamiltonian=pauli.build_heisenberg_chain(6))
        elif case == "many-terms":
            # 40 terms on 5 qubits: 80 blocks per sweep put the stacks above
            # the byte ceiling at D = 32
            strings = ["".join(p if q == i else r if q == j else "I" for q in range(5))
                       for i, j in itertools.combinations(range(5), 2)
                       for p in "XZ" for r in "XZ"]
            terms = tuple(pauli.PauliTerm(1.0, pauli.PauliString(f)) for f in strings)
            cfg = replace(cfg, hamiltonian=pauli.PauliHamiltonian(5, terms))
        engine = tj.TrajectoryEngine(cfg)
        assert engine.segmented == segmented
        calls = {"segments": 0, "micro": 0}
        segments, clean = tj._sweep_segments, tj._measure_term_clean

        def spy_segments(*args):
            calls["segments"] += 1
            return segments(*args)

        def spy_clean(*args):
            calls["micro"] += 1
            return clean(*args)

        monkeypatch.setattr(tj, "_sweep_segments", spy_segments)
        monkeypatch.setattr(tj, "_measure_term_clean", spy_clean)
        tj.run_trajectory(engine)
        assert (calls["segments"] > 0, calls["micro"] > 0) == (segmented, not segmented)
        assert bool(engine._prefix_stacks) == segmented

    def test_stacks_built_on_first_sweep_and_shared_by_rebind(self, heis4):
        cfg = tj.RunConfig(heis4, schedule=st.EpsilonSchedule.constant(0.2),
                           resampler="local", rule=st.FirstRunOfZeros(3))
        engine = tj.TrajectoryEngine(cfg)
        assert engine.segmented and engine._prefix_stacks == {}
        tj.run_trajectory(engine)
        stacks = engine._prefix_stacks[0.2]
        bound = engine.rebind(replace(cfg, seed=5))
        assert bound is not engine and bound.prefix_stacks(0.2) is stacks
        tj.run_trajectory(bound)
        assert list(engine._prefix_stacks) == [0.2] and engine._prefix_stacks[0.2] is stacks

    def test_heisenberg_5_cache_under_ceiling(self):
        engine = _product_engine(pauli.build_heisenberg_chain(5), 0.2, "local")
        assert engine.segmented
        stacks = engine.prefix_stacks(0.2)
        n = len(engine.sweep_order)
        assert [s.shape for s in stacks] == [((n - s + 1) * 32, 32) for s in range(n)]
        assert sum(s.nbytes for s in stacks) <= tj.SEGMENT_MAX_BYTES
