import numpy as np
import pytest

from dqe import _kernels
from dqe.pauli import PauliString, support_index_table

def _rand_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return np.ascontiguousarray(psi / np.linalg.norm(psi))


class TestNumpyBackend:
    def test_axpb_matches_dense(self, rng):
        n = 4
        d = 1 << n
        string = PauliString("XYIZ")
        perm, phase = string.perm_and_phase()
        h = string.to_matrix()
        psi = _rand_state(rng, d)
        out = np.empty_like(psi)
        a, b = 0.8 + 0j, -0.35 + 0j
        norm2 = _kernels.axpb_pauli(psi, out, perm, phase, a, b)
        ref = a * psi + b * (h @ psi)
        assert np.abs(out - ref).max() <= 1e-14
        assert norm2 == pytest.approx(float(np.vdot(ref, ref).real), abs=1e-14)

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
        out = np.empty_like(psi)
        probs = _kernels.local_probs(psi, table)
        scale = 1.0 / np.sqrt(probs[0])
        _kernels.project_replace(psi, out, table, 0, 1, scale)
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out[table[:, 0]]).max() == 0.0


class TestSecretaryScanSemantics:
    def test_stops_on_first_record_after_observation(self):
        lengths = np.array([2, 5, 1, 7], dtype=np.int64)
        coins = np.ones(4)  # coins >= 0.5: never stop on ties
        # observation covers the first run only; run 1 (length 5) is the
        # first record encountered afterwards
        stop = _kernels.secretary_scan(lengths, 3, 100, coins)
        assert stop == 1

    def test_tie_coin(self):
        lengths = np.array([3, 3, 4], dtype=np.int64)
        stop_heads = _kernels.secretary_scan(
            lengths, 4, 100, np.array([0.0, 0.0, 0.0])
        )
        stop_tails = _kernels.secretary_scan(
            lengths, 4, 100, np.array([1.0, 1.0, 1.0])
        )
        assert stop_heads == 1  # tie at length 3 accepted by the coin
        assert stop_tails == 2  # waits for the strict record

    def test_horizon_exhausted(self):
        lengths = np.array([1, 1, 1], dtype=np.int64)
        stop = _kernels.secretary_scan(lengths, 100, 100, np.ones(3))
        assert stop == -1
