import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqe import _kernels, pauli, stopping, trajectory as tj
from dqe.instrument import TermInstrument
from dqe.noise import DepolarizingPerGate
from dqe.pauli import PauliString, support_index_table

import oracles


def _rand_state(rng, d, dtype=np.complex128):
    psi = rng.normal(size=d)
    if dtype == np.complex128:
        psi = psi + 1j * rng.normal(size=d)
    return np.ascontiguousarray(psi / np.linalg.norm(psi))


def _pauli_action(inst, psi):
    """(copy of psi, h psi, <psi|h psi>, <psi|psi>) through ``pauli_expect``
    on the stacked rows of a fresh workspace, as the trajectory lays them out."""
    pair = np.empty((2, psi.size), dtype=psi.dtype)
    pair[0] = psi
    shape = inst.hphase.shape
    hh, nn = _kernels.pauli_expect(
        pair.view(np.float64), pair[0].reshape(shape)[inst.flips], inst.hphase,
        pair[1].reshape(shape),
    )
    return pair[0], pair[1], hh, nn


class TestNumpyBackend:
    def test_axpb_matches_dense(self, rng):
        n = 4
        d = 1 << n
        string = PauliString("XYIZ")
        inst = TermInstrument(pauli.PauliTerm(1.0, string), 1.0)
        h = string.to_matrix()
        psi = _rand_state(rng, d)
        a, b = 0.8, -0.35
        ref = a * psi + b * (h @ psi)
        out = np.empty_like(psi)
        norm2 = oracles.axpb_pauli(psi, out, *string.perm_and_phase(), a, b)
        assert np.abs(out - ref).max() <= 1e-14
        assert norm2 == pytest.approx(float(np.vdot(ref, ref).real), abs=1e-14)
        state, hpsi, _, _ = _pauli_action(inst, psi)
        _kernels.axpb_pauli(state, hpsi, a, b)
        assert np.abs(state - ref).max() <= 1e-14

    def test_apply_local_matches_embedding(self, rng):
        n = 4
        d = 1 << n
        support = (1, 3)
        table = support_index_table(n, support)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psi = _rand_state(rng, d)
        out = np.empty_like(psi)
        _kernels.apply_local(psi, out, table, op)
        full = np.zeros((d, d), dtype=complex)
        for r in range(table.shape[0]):
            full[np.ix_(table[r], table[r])] = op
        assert np.abs(out - full @ psi).max() <= 1e-13

    def test_local_probs_are_marginals(self, rng):
        n = 3
        table = support_index_table(n, (0, 2))
        psi = _rand_state(rng, 8)
        probs = _kernels.local_probs(psi, table)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        ref = np.zeros(4)
        for a in range(4):
            ref[a] = np.sum(np.abs(psi[table[:, a]]) ** 2)
        assert np.abs(probs - ref).max() <= 1e-14

    def test_local_quadform_matches_einsum(self, rng):
        n = 4
        for support in ((0,), (1, 3), (0, 2, 3)):
            table = support_index_table(n, support)
            d = 1 << len(support)
            for _ in range(5):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                op = (g + g.conj().T) / 2.0
                psi = _rand_state(rng, 1 << n)
                block = psi[table]
                ref = np.einsum("rd,de,re->", block.conj(), op, block).real
                assert _kernels.local_quadform(psi, table, op) == pytest.approx(ref, abs=1e-14)

    def test_project_replace(self, rng):
        n = 3
        table = support_index_table(n, (1,))
        psi = _rand_state(rng, 8)
        kept = psi[table[:, 0]].copy()
        probs = _kernels.local_probs(psi, table)
        scale = 1.0 / np.sqrt(probs[0])
        _kernels.project_replace(psi, table, 0, 1, scale)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(psi[table[:, 0]]).max() == 0.0
        assert np.abs(psi[table[:, 1]] - kept * scale).max() == 0.0

    def test_local_probs_real_state(self, rng):
        table = support_index_table(4, (0, 3))
        psi = _rand_state(rng, 16, np.float64)
        ref = _kernels.local_probs(psi.astype(np.complex128), table)
        assert np.abs(_kernels.local_probs(psi, table) - ref).max() <= 1e-15


@st.composite
def pauli_strings(draw):
    """A Pauli string on 1..6 qubits, Y factors included."""
    n = draw(st.integers(1, 6))
    return PauliString(draw(st.text("IXYZ", min_size=n, max_size=n)))


class TestPauliAction:
    """One multiply on the axis-flipped view is the Pauli string's action."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(string=pauli_strings(), seed=st.integers(0, 2**16))
    def test_flipped_view_matches_matrix(self, string, seed):
        inst = TermInstrument(pauli.PauliTerm(1.0, string), 1.0)
        assert (inst.hphase.dtype == np.float64) == string.is_real
        dtypes = (np.float64, np.complex128) if string.is_real else (np.complex128,)
        rng = np.random.default_rng(seed)
        for dtype in dtypes:
            psi = _rand_state(rng, 1 << string.num_qubits, dtype)
            _, hpsi, hh, nn = _pauli_action(inst, psi)
            ref = string.to_matrix() @ psi
            assert hpsi.dtype == dtype
            assert np.abs(hpsi - ref).max() <= 1e-15
            assert hh == pytest.approx(float(np.vdot(psi, ref).real), abs=1e-14)
            assert nn == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        string=pauli_strings(),
        sign=st.sampled_from((-1.0, 1.0)),
        eps=st.floats(0.0, 1.0, exclude_min=True),
        weight=st.floats(0.0, 1.0),
        scale=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_closed_form_branch_weights(self, string, sign, eps, weight, scale, seed):
        # p_b = A_b + B_b <psi|h psi> / <psi|psi> is ||E_b psi||^2 / ||psi||^2
        inst = TermInstrument(pauli.PauliTerm(sign, string), weight)
        psi = scale * _rand_state(np.random.default_rng(seed), 1 << string.num_qubits)
        _, _, hh, nn = _pauli_action(inst, psi)
        a0, b0, a1, b1, c0, d0, c1, d1 = inst.branch_row(eps)
        e0, e1 = inst.kraus(eps)
        for p, e in ((c0 + d0 * hh / nn, e0), (c1 + d1 * hh / nn, e1)):
            phi = oracles.embed(e, inst.support, string.num_qubits) @ psi
            assert p == pytest.approx(float(np.vdot(phi, phi).real) / nn, abs=1e-13)
        assert (a0, b0, a1, b1) == tuple(c.real for c in inst.coefficients(eps))


def _cfg(ham, **kw):
    base = dict(
        agsp_mode="product-sweep",
        schedule=stopping.EpsilonSchedule.constant(0.2),
        resampler="local",
        rule=stopping.FirstRunOfZeros(3),
    )
    base.update(kw)
    return tj.RunConfig(ham, **base)


class TestStateInvariants:
    def test_norm_stays_one(self, heis4, monkeypatch):
        # the update divides by sqrt(p <psi|psi>), so the norm never drifts
        norms = []
        real = tj.measure_observables

        def recording(state, h_dense, pi0):
            norms.append(np.linalg.norm(state))
            return real(state, h_dense, pi0)

        monkeypatch.setattr(tj, "measure_observables", recording)
        cfg = _cfg(heis4, rule=stopping.TimeCap(2000), max_steps=2000, record_series=True, seed=4)
        rec = tj.run_trajectory(tj.TrajectoryEngine(cfg))
        assert rec.series.shape == (2000, 2) and len(norms) == 2001
        assert max(abs(x - 1.0) for x in norms) <= 1e-12

    @pytest.mark.parametrize("ham,kw,dtype", [
        (pauli.build_heisenberg_chain(3), {}, np.float64),
        (pauli.build_heisenberg_chain(3), {"agsp_mode": "mixture-random"}, np.float64),
        (pauli.build_maxsat(3, [((0, 1), "11"), ((1, 2), "01")]), {}, np.float64),
        (pauli.PauliHamiltonian(2, (pauli.PauliTerm(1.0, PauliString("XY")),)), {}, np.complex128),
        (pauli.build_heisenberg_chain(3), {"noise": DepolarizingPerGate(1e-2, 1e-2)},
         np.float64),
        (pauli.PauliHamiltonian(2, (pauli.PauliTerm(1.0, PauliString("XY")),)),
         {"noise": DepolarizingPerGate(1e-2, 1e-2)}, np.complex128),
        (pauli.build_heisenberg_chain(3), {"agsp_mode": "linear-global"}, np.float64),
        (pauli.PauliHamiltonian(2, (pauli.PauliTerm(1.0, PauliString("XY")),)),
         {"agsp_mode": "linear-global"}, np.complex128),
    ], ids=["heisenberg", "heisenberg-mixture", "maxsat", "odd-y", "noisy", "odd-y-noisy", "global",
            "odd-y-global"])
    def test_state_dtype_rule(self, ham, kw, dtype):
        engine = tj.TrajectoryEngine(_cfg(ham, **kw))
        assert engine.state_dtype == dtype
        rec = tj.run_trajectory(engine.rebind(_cfg(ham, **kw, record_series=True, max_steps=50)))
        assert np.isfinite(rec.series).all()
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(0))
        assert ts.psi.dtype == ts.buf.dtype == dtype

    @pytest.mark.parametrize("kw", [
        {},
        {"agsp_mode": "mixture-random", "resampler": "global"},
        {"noise": DepolarizingPerGate(1e-3, 1e-3)},
        {"agsp_mode": "linear-global"},
    ], ids=["clean", "mixture", "noisy", "global"])
    def test_state_is_one_buffer(self, heis3, kw):
        # every update writes psi in place, so views taken at the start hold
        engine = tj.TrajectoryEngine(_cfg(heis3, **kw))
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(2))
        psi, buf = ts.psi, ts.buf
        bits = [tj._run_sweep(ts, engine, 0.2) for _ in range(200)]
        assert 0 < sum(bits) < 200
        assert ts.psi is psi and ts.buf is buf

    def test_update_divides_by_the_actual_norm(self, heis3):
        # a state off unit norm comes back to it after one measurement
        engine = tj.TrajectoryEngine(_cfg(heis3, resampler="identity"))
        ts = tj._TrajectoryState(engine, np.random.SeedSequence(0))
        row = engine.branch_rows(0.2)[0]
        for u in (0.0, 1.0):  # the success branch, then the failure branch
            ts.psi[:] = 1.7 * _rand_state(np.random.default_rng(3), 8, np.float64)
            ts.rng = _PinnedUniform(u)
            assert tj._measure_term_clean(ts, engine.terms[0], row, "identity") == int(u)
            assert np.linalg.norm(ts.psi) == pytest.approx(1.0, abs=1e-14)


class _PinnedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSecretaryScanSemantics:
    def test_stops_on_first_record_after_observation(self):
        lengths = np.array([2, 5, 1, 7], dtype=np.int64)
        coins = np.ones(4)  # coins >= 0.5: never stop on ties
        # observation covers the first run only; run 1 (length 5) is the
        # first record encountered afterwards
        stop = oracles.secretary_scan(lengths, 3, 100, coins)
        assert stop == 1

    def test_tie_coin(self):
        lengths = np.array([3, 3, 4], dtype=np.int64)
        stop_heads = oracles.secretary_scan(
            lengths, 4, 100, np.array([0.0, 0.0, 0.0])
        )
        stop_tails = oracles.secretary_scan(
            lengths, 4, 100, np.array([1.0, 1.0, 1.0])
        )
        assert stop_heads == 1  # tie at length 3 accepted by the coin
        assert stop_tails == 2  # waits for the strict record

    def test_horizon_exhausted(self):
        lengths = np.array([1, 1, 1], dtype=np.int64)
        stop = oracles.secretary_scan(lengths, 100, 100, np.ones(3))
        assert stop == -1
