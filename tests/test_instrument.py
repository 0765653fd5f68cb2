import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dqe import _kernels, agsp, analytics as an, instrument as im, pauli
from dqe import stopping as stp, trajectory as tj
from dqe.errors import ParameterError, SingularFixedPointError

import oracles
from oracles import (
    apply_local_tensor,
    column_stacked,
    dense_stopped_general,
    dense_sweep_transfer_mixture,
    dense_sweep_transfer_product,
    embed,
    fixed_point_iterate,
    global_channel,
    global_run_success_probs,
    markov_expected_absorption,
    trace_row,
    transfer_of_instrument_failure,
    transfer_of_instrument_success,
    transfer_of_kraus,
    unvec,
    vec,
)


def _rand_state(rng, d):
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def _rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestMakeInstrument:
    def test_projective_limit(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = oracles.make_instrument(p, 1.0, "global")
        assert np.allclose(inst.e0, p)
        assert np.allclose(inst.e1, np.eye(2) - p)

    def test_trivial_limit(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = oracles.make_instrument(p, 0.0, "global")
        assert np.allclose(inst.e0, np.eye(2))
        assert np.allclose(inst.e1, 0.0)

    def test_weighted_weak_eigenvalues(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = oracles.make_instrument(0.5 * p, 0.2, "global")
        assert sorted(np.linalg.eigvalsh(inst.e0)) == pytest.approx([0.8, 0.9])
        expected = sorted([np.sqrt(1 - 0.81), np.sqrt(1 - 0.64)])
        assert sorted(np.linalg.eigvalsh(inst.e1)) == pytest.approx(expected)

    def test_completeness(self, heis3, spec3):
        a = agsp.agsp_linear(heis3, spec3)
        for eps in (0.1, 0.5, 1.0):
            inst = oracles.make_instrument(a.operator, eps, "global")
            comp = inst.e0.conj().T @ inst.e0 + inst.e1.conj().T @ inst.e1
            assert np.abs(comp - np.eye(8)).max() <= 1e-10
            assert np.linalg.norm(inst.e0, 2) <= 1.0 + 1e-12

    def test_overscaled_rejected(self):
        with pytest.raises(oracles.InvalidAgspError):
            oracles.make_instrument(2.0 * np.eye(2), 1.0, "global")

    def test_eps_out_of_range(self):
        with pytest.raises(ParameterError):
            oracles.make_instrument(np.eye(2), 1.5, "global")


@st.composite
def pauli_terms(draw):
    """One Pauli term of weight 1..3 on at most 4 qubits, either sign."""
    n = draw(st.integers(1, 4))
    support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
    factors = ["I"] * n
    for q in support:
        factors[q] = draw(st.sampled_from("XYZ"))
    coeff = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return pauli.PauliTerm(coeff, pauli.PauliString("".join(factors)))


def _assert_roots_close(x, y, lam):
    """x and y are square roots of the eigenvalues ``lam`` of 1 - E0^dag E0.

    Their squares agree to 1e-12.  The roots are compared only where every
    eigenvalue is at least 1e-8: near 0, sqrt turns 1e-16 roundoff into
    1e-16/sqrt(lam), and the eigh path zeroes eigenvalues below 1e-13.
    """
    assert np.abs(x @ x.conj().T - y @ y.conj().T).max() <= 1e-12
    if min(lam) >= 1e-8:
        assert np.abs(x - y).max() <= 1e-12


_ZX = pauli.PauliTerm(-0.7, pauli.PauliString("ZIX"))


class TestTermInstrument:
    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(
        term=pauli_terms(),
        eps=st.floats(0.0, 1.0, exclude_min=True),
        weight=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @example(term=_ZX, eps=1.0, weight=0.4, seed=0)
    @example(term=_ZX, eps=0.3, weight=1.0, seed=1)
    @example(term=_ZX, eps=1.0, weight=1.0, seed=2)
    def test_closed_form(self, term, eps, weight, seed):
        inst = im.TermInstrument(term, weight)
        e0, e1 = inst.kraus(eps)
        eye = np.eye(e0.shape[0])
        c = 1.0 - eps * (1.0 - weight)
        lam = (1.0 - c * c, eps * (2.0 - eps))
        # completeness
        assert np.abs(e0.conj().T @ e0 + e1.conj().T @ e1 - eye).max() <= 1e-12
        # the eigh path
        ref = oracles.make_instrument(weight * inst.k_local, eps, "identity")
        assert np.abs(e0 - ref.e0).max() <= 1e-12
        _assert_roots_close(e1, ref.e1, lam)
        # the engine's affine update and closed-form branch weights equal
        # the embedded Kraus operators
        psi = _rand_state(np.random.default_rng(seed), 1 << term.string.num_qubits)
        a0, b0, a1, b1, c0, d0, c1, d1 = inst.branch_row(eps)
        shape = inst.hphase.shape
        for (a, b, c, d), e in (((a0, b0, c0, d0), e0), ((a1, b1, c1, d1), e1)):
            pair = np.stack([psi, psi])  # the rows (psi, h psi) of a trajectory
            out, hpsi = pair
            hh, nn = _kernels.pauli_expect(
                pair.view(np.float64), out.reshape(shape)[inst.flips], inst.hphase,
                hpsi.reshape(shape),
            )
            _kernels.axpb_pauli(out, hpsi, a, b)
            ref_out = embed(e, inst.support, term.string.num_qubits) @ psi
            assert np.abs(out - ref_out).max() <= 1e-12
            assert c + d * hh / nn == pytest.approx(
                float(np.vdot(ref_out, ref_out).real), abs=1e-12
            )
        # dilation rows: E0 and E1 eigenvalues on (range k_v, its complement)
        u = oracles.dilation_unitary(weight, eps).matrix
        k, rest = inst.k_local, eye - inst.k_local
        assert np.abs(e0 - (u[0, 0] * k + u[1, 1] * rest)).max() <= 1e-12
        _assert_roots_close(e1, u[2, 0] * k + u[3, 1] * rest, lam)

    def test_weight_out_of_range(self):
        with pytest.raises(ParameterError):
            im.TermInstrument(_ZX, 1.5)

    def test_identity_term(self):
        # an identity term has a trivial support: E0 = (1 - eps) + eps w k_v
        for coeff, k in ((0.5, 0.0), (-0.5, 1.0)):
            inst = im.TermInstrument(pauli.PauliTerm(coeff, pauli.PauliString("II")), 0.6)
            assert inst.support == ()
            e0, e1 = inst.kraus(0.25)
            assert e0[0, 0] == pytest.approx(0.75 + 0.25 * 0.6 * k)
            assert np.abs(embed(e0, inst.support, 2) - e0[0, 0] * np.eye(4)).max() == 0.0


def _engine_measurement(term, weight, eps, resampler, rng):
    """A trajectory workspace drawing from ``rng`` and the engine's weak
    measurement of one term (``_measure_term_clean``) acting on it."""
    ham = pauli.PauliHamiltonian(term.string.num_qubits, (term,))
    cfg = tj.RunConfig(
        ham,
        schedule=stp.EpsilonSchedule.constant(eps),
        resampler=resampler,
        rule=stp.FirstRunOfZeros(1),
    )
    engine = tj.TrajectoryEngine(cfg)
    engine.state_dtype = np.complex128  # the tests write complex states
    ts = tj._TrajectoryState(engine, rng)
    inst = im.TermInstrument(term, weight)
    row = inst.branch_row(eps)

    def measure(psi):
        ts.psi[:] = psi
        return tj._measure_term_clean(ts, inst, row, resampler)

    return ts, measure


class TestApplySampled:
    """The trajectory engine's sampled weak measurement of one Pauli term."""

    def test_projective_in_range(self, rng):
        # -ZZ: k_v projects onto even parity, which holds |00>
        term = pauli.PauliTerm(-1.0, pauli.PauliString("ZZ"))
        ts, measure = _engine_measurement(term, 1.0, 1.0, "global", rng)
        psi = np.array([1.0, 0, 0, 0], dtype=complex)
        for _ in range(10):
            out = measure(psi)
            assert out == 0
            assert np.allclose(ts.psi, psi)

    def test_projective_orthogonal(self, rng):
        # -Z: k_v = |0><0|, orthogonal to |1>
        term = pauli.PauliTerm(-1.0, pauli.PauliString("Z"))
        _, measure = _engine_measurement(term, 1.0, 1.0, "global", rng)
        out = measure(np.array([0.0, 1.0], dtype=complex))
        assert out == 1

    def test_weak_z_on_plus_statistics(self, rng):
        # P(0) on |+> from 2x2 arithmetic, checked against 1e5 samples
        eps = 0.2
        pi = np.diag([0.0, 1.0]).astype(complex)  # ground of +Z
        inst = oracles.make_instrument(pi, eps, "global")
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        p0 = float(np.vdot(inst.e0 @ plus, inst.e0 @ plus).real)
        term = pauli.PauliTerm(1.0, pauli.PauliString("Z"))
        _, measure = _engine_measurement(term, 1.0, eps, "global", rng)
        n = 100_000
        hits = sum(measure(plus) == 0 for _ in range(n))
        sigma = np.sqrt(p0 * (1 - p0) / n)
        assert abs(hits / n - p0) <= 3 * sigma

    def test_local_resampler_unravelling(self, rng):
        # ensemble of pure-state updates reproduces the channel on average
        term = pauli.PauliTerm(1.0, pauli.PauliString("ZI"))
        weight, eps = 0.8, 0.7
        k_local = (np.eye(2) - pauli.PauliString("Z").to_matrix()) / 2.0
        inst = oracles.make_instrument(weight * k_local, eps, "local", support=(0,))
        psi = _rand_state(rng, 4)
        rho0 = np.outer(psi, psi.conj())
        t0 = transfer_of_instrument_success(inst, 2).matrix
        t1 = transfer_of_instrument_failure(inst, 2).matrix
        expected = unvec((t0 + t1) @ vec(rho0))
        ts, measure = _engine_measurement(term, weight, eps, "local", rng)
        n = 40_000
        acc = np.zeros((4, 4), dtype=complex)
        for _ in range(n):
            measure(psi)
            acc += np.outer(ts.psi, ts.psi.conj())
        acc /= n
        assert np.abs(acc - expected).max() <= 0.02


class TestTransfer:
    def test_identity_kraus(self):
        t = transfer_of_kraus([np.eye(3)])
        assert np.allclose(t.matrix, np.eye(9))
        assert t.trace_preserving

    def test_x_moves_populations(self):
        x = pauli.PauliString("X").to_matrix()
        t = transfer_of_kraus([x])
        out = t.apply(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_diagonal_kraus(self):
        k = np.diag([0.9, 0.3]).astype(complex)
        t = transfer_of_kraus([k])
        assert np.allclose(np.diag(t.matrix).real, [0.81, 0.27, 0.27, 0.09])

    def test_round_trip_and_action(self, rng):
        rho = _rand_density(rng, 4)
        assert np.abs(unvec(vec(rho)) - rho).max() == 0.0
        ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) * 0.3 for _ in range(3)]
        ops = [o / (3 * np.linalg.norm(o, 2)) for o in ops]
        t = transfer_of_kraus(ops)
        direct = sum(o @ rho @ o.conj().T for o in ops)
        assert np.abs(t.apply(rho) - direct).max() <= 1e-12

    def test_spectral_radius_trace_non_increasing(self, heis2, spec2):
        a = agsp.agsp_linear(heis2, spec2)
        inst = oracles.make_instrument(a.operator, 0.5, "global")
        t0 = transfer_of_instrument_success(inst)
        radius = np.abs(np.linalg.eigvals(t0.matrix)).max()
        assert radius <= 1.0 + 1e-9

    def test_failure_transfer_global_cases(self):
        d = 4
        zero = np.zeros((d, d), dtype=complex)
        inst = im.Instrument(zero, np.eye(d), "global")
        t1 = transfer_of_instrument_failure(inst)
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert np.abs(t1.apply(rho) - np.eye(d) / d).max() <= 1e-12

    def test_failure_probability_zero_on_top_eigenspace(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        inst = oracles.make_instrument(p, 1.0, "global")
        t1 = transfer_of_instrument_failure(inst)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.trace(t1.apply(rho)).real <= 1e-12

    def test_sum_trace_preserving(self, heis2, spec2):
        a = agsp.agsp_linear(heis2, spec2)
        inst = oracles.make_instrument(a.operator, 0.5, "global")
        t0 = transfer_of_instrument_success(inst).matrix
        t1 = transfer_of_instrument_failure(inst).matrix
        row = trace_row(4)
        assert np.abs(row @ (t0 + t1) - row).max() <= 1e-10

    def test_local_failure_trace_preserving_sum(self, heis3):
        f = im.term_instruments(heis3, "sum")[0]
        inst = oracles.make_instrument(f.weight * f.k_local, 0.3, "local", support=f.support)
        t0 = transfer_of_instrument_success(inst, 3).matrix
        t1 = transfer_of_instrument_failure(inst, 3).matrix
        row = trace_row(8)
        assert np.abs(row @ (t0 + t1) - row).max() <= 1e-10


class TestFixedPoint:
    def test_closed_form_matches_iteration(self):
        k = np.diag([0.9, 0.3]).astype(complex)
        rho = im.fixed_point_direct(k)
        raw = np.array([1 / 0.19, 1 / 0.91])
        assert np.allclose(np.diag(rho).real, raw / raw.sum())
        channel = global_channel(k)
        rho_it = fixed_point_iterate(channel, tol=1e-12)
        assert im.trace_distance(rho, rho_it) <= 1e-8
        assert im.trace_distance(channel.apply(rho), rho) <= 1e-9

    def test_zero_and_scalar_agsp(self):
        assert np.allclose(im.fixed_point_direct(np.zeros((4, 4))), np.eye(4) / 4)
        assert np.allclose(im.fixed_point_direct(0.5 * np.eye(4)), np.eye(4) / 4)

    def test_singular_refused(self):
        with pytest.raises(SingularFixedPointError):
            im.fixed_point_direct(np.diag([1.0, 0.3]).astype(complex))

    def test_uniqueness_from_random_starts(self, rng):
        k = np.diag([0.8, 0.5, 0.2, 0.6]).astype(complex)
        channel = global_channel(k)
        ref = fixed_point_iterate(channel, tol=1e-12)
        for _ in range(5):
            rho0 = _rand_density(rng, 4)
            rho = fixed_point_iterate(channel, tol=1e-12, rho0=rho0)
            assert im.trace_distance(rho, ref) <= 1e-7

    def test_block_structure(self, rng):
        # Pi block eigenvalues >= 1/(1-Gamma), complement <= 1/(1-Delta),
        # in units of the normalization constant c
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        vals = np.array([0.9, 0.85, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05])
        k = (q * vals) @ q.conj().T
        pi = q[:, :2] @ q[:, :2].conj().T
        params = agsp.verify_agsp(k, pi)
        rho = im.fixed_point_direct(k)
        c = 1.0 / np.trace(np.linalg.inv(np.eye(8) - k @ k)).real
        x0 = q[:, :2].conj().T @ rho @ q[:, :2] / c
        xperp = q[:, 2:].conj().T @ rho @ q[:, 2:] / c
        assert np.linalg.eigvalsh(x0).min() >= 1.0 / (1.0 - params.gamma) - 1e-8
        assert np.linalg.eigvalsh(xperp).max() <= 1.0 / (1.0 - params.delta) + 1e-8

    def test_chebyshev_fixed_point_bound(self, heis2, spec2):
        a = agsp.agsp_chebyshev(spec2, 3)
        scale = 1.0 - spec2.degeneracy / spec2.dimension
        k = scale * a.operator
        rho = im.fixed_point_direct(k)
        overlap = np.trace(spec2.ground_projector @ rho).real
        delta_f = 4 * np.exp(-4 * 3 * np.sqrt(spec2.gap / (spec2.norm - spec2.lambda0)))
        eps_c = spec2.degeneracy / spec2.dimension
        bound = 1.0 - eps_c / (1.0 - delta_f) * (spec2.dimension / spec2.degeneracy - 1.0)
        assert overlap >= bound - 1e-9


class TestPopulationChain:
    def test_vec_refuses_coherences(self, spec3):
        basis = im.Populations(spec3.eigenvectors)
        for rho in (np.eye(8) / 8, spec3.ground_projector / spec3.degeneracy):
            p = basis.vec(rho)
            assert np.abs(basis.unvec(p) - rho).max() <= 1e-13
            assert basis.trace_row @ p == pytest.approx(1.0, abs=1e-13)
        # |000> is an eigenvector of the chain (fully polarised); |001> is a
        # superposition of three of them, so it has coherences between them
        ket = np.zeros((8, 8))
        ket[0, 0] = 1.0
        assert sorted(basis.vec(ket)) == pytest.approx([0.0] * 7 + [1.0], abs=1e-13)
        ket = np.zeros((8, 8))
        ket[1, 1] = 1.0
        with pytest.raises(ParameterError, match="coherences between H's eigenvectors"):
            basis.vec(ket)

    @pytest.mark.parametrize("resampler", im.RESAMPLER_KINDS)
    def test_chain_acts_as_dense_pair_on_diagonal_states(self, heis3, spec3, resampler, rng):
        # a support-less "local" instrument resets every qubit, as "global"
        a = agsp.agsp_linear(heis3, spec3)
        t0, t1 = im.population_chain(0.7 + 0.3 * a.values, spec3.eigenvectors, resampler)
        inst = oracles.make_instrument(a.operator, 0.3, resampler)
        r0, r1 = transfer_of_instrument_success(inst), transfer_of_instrument_failure(inst)
        rho = t0.sector.unvec(rng.dirichlet(np.ones(8)))
        assert np.abs(t0.apply(rho) - r0.apply(rho)).max() <= 1e-13
        assert np.abs(t1.apply(rho) - r1.apply(rho)).max() <= 1e-13
        assert np.abs(t0.sector.trace_row @ (t0.matrix + t1.matrix) - 1.0).max() <= 1e-15

    def test_iterate_matches_closed_form(self, heis3, spec3):
        a = agsp.agsp_linear(heis3, spec3)
        rho = im.fixed_point_direct(0.9 * a.operator)
        t0, t1 = im.population_chain(0.9 * a.values, spec3.eigenvectors, "global")
        rho_it = im.fixed_point_iterate(im.TransferMatrix(t0.matrix + t1.matrix, t0.sector))
        assert im.trace_distance(rho, rho_it) <= 1e-9
        ref = fixed_point_iterate(global_channel(0.9 * a.operator), tol=1e-12)
        assert im.trace_distance(ref, rho_it) <= 1e-9


class TestSweepTransfers:
    def test_product_sweep_trace_preserving(self, heis3):
        insts = [
            oracles.make_instrument(f.weight * f.k_local, 0.2, "local", support=f.support)
            for f in im.term_instruments(heis3, "sum")
        ]
        t0, t1 = im.sweep_transfer_product(insts, 3)
        row = trace_row(8)
        assert np.abs(row @ (column_stacked(t0) + column_stacked(t1)) - row).max() <= 1e-9

    def test_mixture_sweep_trace_preserving(self, heis2):
        insts = [
            oracles.make_instrument(f.weight * f.k_local, 0.2, "global", support=f.support)
            for f in im.term_instruments(heis2, "sum")
        ]
        t0, t1 = im.sweep_transfer_mixture(insts, 2)
        row = trace_row(4)
        assert np.abs(row @ (column_stacked(t0) + column_stacked(t1)) - row).max() <= 1e-9


@st.composite
def pauli_hamiltonians(draw):
    """Random Pauli Hamiltonians on 1..4 qubits with weight-1..3 terms on
    arbitrary, not necessarily adjacent, supports."""
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        support = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
        factors = ["I"] * n
        for q in support:
            factors[q] = draw(st.sampled_from("XYZ"))
        coeff = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
        terms.append(pauli.PauliTerm(coeff, pauli.PauliString("".join(factors))))
    return pauli.PauliHamiltonian(n, tuple(terms))


def _sweep_engine(ham, eps, resampler, agsp_mode="product-sweep"):
    cfg = tj.RunConfig(
        ham,
        agsp_mode=agsp_mode,
        schedule=stp.EpsilonSchedule.constant(eps),
        resampler=resampler,
        rule=stp.FirstRunOfZeros(2),
    )
    return tj.TrajectoryEngine(cfg)


def _sweep_instruments(ham, eps, resampler):
    return _sweep_engine(ham, eps, resampler).instruments_at(eps)


_NON_ADJACENT = pauli.PauliHamiltonian(
    4,
    (
        pauli.PauliTerm(0.7, pauli.PauliString("XIZI")),
        pauli.PauliTerm(-1.3, pauli.PauliString("IYIX")),
        pauli.PauliTerm(0.4, pauli.PauliString("ZIIY")),
    ),
)


# a projective measurement of X on qubit 1 never succeeds after a failure
# when nothing resamples
_ONE_X = pauli.PauliHamiltonian(3, (pauli.PauliTerm(1.0, pauli.PauliString("IXI")),))

# Above this E(tau), W's conditioning puts two float64 solves more than 1e-10
# apart: at n = 3 the non-adjacent example below has E(tau) = 3.6e4, and
# against a 30-digit solve the dense reference is off by 1.5e-10 and the
# sector walk by 4e-12.
_TAU_COMPARED = 1e4

_SWEEPS = {
    "product-sweep": (im.sweep_transfer_product, dense_sweep_transfer_product),
    "mixture-random": (im.sweep_transfer_mixture, dense_sweep_transfer_mixture),
}


class TestLocalSweepTransfer:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        ham=pauli_hamiltonians(),
        eps=st.floats(0.0, 1.0, exclude_min=True),
        resampler=st.sampled_from(("global", "local", "identity")),
        mode=st.sampled_from(sorted(_SWEEPS)),
    )
    @example(ham=_NON_ADJACENT, eps=0.5, resampler="local", mode="product-sweep")
    @example(ham=_NON_ADJACENT, eps=1.0, resampler="global", mode="product-sweep")
    @example(ham=_NON_ADJACENT, eps=0.5, resampler="identity", mode="mixture-random")
    @example(ham=_ONE_X, eps=1.0, resampler="identity", mode="product-sweep")
    def test_matches_dense_reference(self, ham, eps, resampler, mode):
        engine = _sweep_engine(ham, eps, resampler, mode)
        insts = engine.instruments_at(eps)
        sweep, dense_sweep = _SWEEPS[mode]
        # the trivial sector holds the whole map
        t0, t1 = sweep(insts, ham.num_qubits)
        r0, r1 = dense_sweep(insts, ham.num_qubits)
        assert np.abs(column_stacked(t0) - r0).max() <= 1e-13
        assert np.abs(column_stacked(t1) - r1).max() <= 1e-13
        row = trace_row(ham.dimension)
        assert np.abs(row @ (column_stacked(t0) + column_stacked(t1)) - row).max() <= 1e-12
        # the engine's sector gives the stopped process of the dense reference
        s0, s1 = engine.sweep_transfers(eps)
        assert s0.matrix.dtype == s1.matrix.dtype == np.float64
        assert s0.matrix.shape[0] == engine.sector.dimension
        rho0 = np.eye(ham.dimension) / ham.dimension
        v0 = vec(rho0)
        if (row @ r1 @ v0).real > 1e-15 and (row @ r0 @ r1 @ v0).real <= 1e-15:
            # no failure is ever followed by a success (eps = 1 with the
            # identity resampler): W is singular, and the oracle refuses
            with pytest.raises(ParameterError, match="never succeeds"):
                an.expected_stopped_general(s0, s1, rho0, [1])
            return
        for n in (1, 2, 3):
            state, tau = dense_stopped_general(r0, r1, rho0, n)
            if tau > _TAU_COMPARED:
                continue
            (res,) = an.expected_stopped_general(s0, s1, rho0, [n])
            overlap = np.trace(engine.pi0 @ res.state).real
            assert overlap == pytest.approx(np.trace(engine.pi0 @ state).real, rel=1e-10)
            assert res.tau == pytest.approx(tau, rel=1e-10)

    def test_local_action_matches_padded_transfer(self, rng):
        # a 2-qubit map on qubits (0, 2) of 3, applied to a stack of columns
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        table = pauli.support_index_table(3, (0, 2))
        full = np.zeros((8, 8), dtype=complex)
        full[table[:, :, None], table[:, None, :]] = a
        x = rng.normal(size=(64, 5)) + 1j * rng.normal(size=(64, 5))
        xt = x.reshape((2,) * 6 + (5,))
        out = apply_local_tensor(np.kron(a.conj(), a), (0, 2), 3, xt).reshape(x.shape)
        assert np.abs(out - np.kron(full.conj(), full) @ x).max() <= 1e-12

    def test_instruments_on_their_own_qubits(self):
        engine = _sweep_engine(pauli.build_heisenberg_chain(6), 0.2, "local")
        insts = engine.instruments_at(0.2)
        assert len(insts) == len(engine.terms) == 15
        for inst, term in zip(insts, engine.terms):
            assert inst.support == term.support and len(inst.support) == 2
            assert inst.e0.shape == inst.e1.shape == (4, 4)

    def test_instrument_refuses_unknown_kind_and_wrong_size(self):
        e0, e1 = im.TermInstrument(_ZX, 0.5).kraus(0.3)
        with pytest.raises(ParameterError, match="resampler must be one of"):
            im.Instrument(e0, e1, "custom", (0, 2))
        with pytest.raises(ParameterError, match="dimension 4 on 1 qubits"):
            im.Instrument(e0, e1, "local", (0,))

    def test_mixture_matches_dense_composition(self, heis2):
        insts = _sweep_instruments(heis2, 0.3, "local")
        succ, fail = dense_sweep_transfer_mixture(insts, 2)
        t0, t1 = im.sweep_transfer_mixture(insts, 2)
        assert np.abs(column_stacked(t0) - succ).max() <= 1e-13
        assert np.abs(column_stacked(t1) - fail).max() <= 1e-13


# ZIX/IYI/YZI on four qubits, XIXI beside ZIXI on the same qubits (the two
# anticommute, so fusing them in the wrong order shows), and a weight-3 term
# on (0, 2, 3): supports that are non-adjacent, interleaved and repeated, so
# runs fuse on both einsum and matmul supports
_WITNESS = pauli.PauliHamiltonian(
    4,
    tuple(
        pauli.PauliTerm(c, pauli.PauliString(f))
        for f, c in (("ZIXI", -1.406), ("XIXI", 0.3), ("IYII", 0.932), ("YZII", 0.435), ("XIYZ", 0.6))
    ),
)


def _reversed_step(step):
    """The same step with its qubits listed in reverse, its blocks' tensor
    axes reversed to match."""
    k = len(step.qubits)
    order = list(range(k - 1, -1, -1))

    def flip(r):
        return r.reshape((4,) * 2 * k).transpose(order + [k + a for a in order]).reshape(r.shape)

    rev = im.MicroStep(flip(step.r0), None, step.qubits[::-1], "global")
    rev.r_full = None if step.r_full is None else flip(step.r_full)
    return rev


class TestFusedWalk:
    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_product_sweep_matches_dense_reference(self, resampler):
        insts = _sweep_instruments(_WITNESS, 0.4, resampler)
        t0, t1 = im.sweep_transfer_product(insts, 4)
        r0, r1 = dense_sweep_transfer_product(insts, 4)
        assert np.abs(column_stacked(t0) - r0).max() <= 1e-13
        assert np.abs(column_stacked(t1) - r1).max() <= 1e-13
        steps = [im.MicroStep.of(inst) for inst in insts]
        plan = im.sweep_plan(steps, im.MicroStep.success)
        assert [b.qubits for b in plan] == [(0, 2), (1,), (0, 1), (0, 2, 3), (0, 1), (1,), (0, 2)]
        # unsorted qubits walk the same map in another row order
        sector = im.PauliSector(4)
        reversed_steps = [_reversed_step(s) for s in steps]
        for branch in (im.MicroStep.success, im.MicroStep.success_adjoint, im.MicroStep.channel):
            got, want = im.sweep_walk([(reversed_steps, branch), (steps, branch)], np.eye(256), sector)
            assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_mixture_sweep_matches_dense_reference(self, resampler):
        insts = _sweep_instruments(_WITNESS, 0.4, resampler)
        t0, t1 = im.sweep_transfer_mixture(insts, 4)
        r0, r1 = dense_sweep_transfer_mixture(insts, 4)
        assert np.abs(column_stacked(t0) - r0).max() <= 1e-13
        assert np.abs(column_stacked(t1) - r1).max() <= 1e-13

    def test_heisenberg_five_blocks(self):
        # one block per bond and direction; bond (3, 4)'s two triples meet
        # at the middle of the palindrome and fuse into one 6-step block
        bonds = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 3), (1, 2), (0, 1)]
        ham = pauli.build_heisenberg_chain(5)
        for resampler in ("local", "identity"):
            steps = [im.MicroStep.of(i) for i in _sweep_instruments(ham, 0.2, resampler)]
            for branch in (im.MicroStep.success, im.MicroStep.success_adjoint, im.MicroStep.channel):
                assert [b.qubits for b in im.sweep_plan(steps, branch)] == bonds
        steps = [im.MicroStep.of(i) for i in _sweep_instruments(ham, 0.2, "global")]
        assert len(im.sweep_plan(steps, im.MicroStep.success)) == 7
        channel = im.sweep_plan(steps, im.MicroStep.channel)
        assert len(channel) == 24 and all(b.keep_identity for b in channel)

    @pytest.mark.parametrize("n", [4, 2])
    def test_apply_on_axes_writes_tensordot_result(self, n, rng):
        # apply_blocks on every ordered support of up to 3 of n qubits on
        # the trivial sector, contiguous or not, the empty one included:
        # 41 supports of 4 qubits, and of 2 qubits blocks that cover the
        # register, with no outside qubit, in both orders
        sector = im.PauliSector(n)
        x = rng.normal(size=(4**n, 3))
        before = x.copy()
        for k in range(min(n, 3) + 1):
            for axes in itertools.permutations(range(n), k):
                op = rng.normal(size=(4**k, 4**k))
                got = im.apply_blocks([im.Block(op, axes)], x, sector)
                want = oracles.apply_on_axes(op, axes, x.reshape((4,) * n + (3,)))
                assert np.abs(got - want.reshape(x.shape)).max() <= 1e-12
        assert np.array_equal(x, before)

    def test_walk_leaves_input_stack_unchanged(self):
        insts = _sweep_instruments(_WITNESS, 0.4, "global")
        steps = [im.MicroStep.of(inst) for inst in insts]
        eye = np.eye(256)
        before = eye.copy()
        im.sweep_walk([(steps, im.MicroStep.channel), (steps, im.MicroStep.success)], eye, im.PauliSector(4))
        assert np.array_equal(eye, before)


_MAXSAT = pauli.build_maxsat(4, [((0, 1), "01"), ((1, 3), "11"), ((2, 3), "10"), ((0, 2, 3), "001")])


class TestSectorRowWalk:
    # the walk on the sector's S rows against the walk on all 4^n rows
    @pytest.mark.parametrize("mixture", [False, True], ids=["product", "mixture"])
    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_heisenberg_matches_full_row_walk(self, n, resampler, mixture):
        ham = pauli.build_heisenberg_chain(n)
        sector = im.PauliSector.of(ham)
        insts = _sweep_instruments(ham, 0.3, resampler)
        sweep = im.sweep_transfer_mixture if mixture else im.sweep_transfer_product
        t0, t1 = sweep(insts, n, sector)
        r0, r1 = oracles.full_row_sweep_transfers(insts, sector, mixture)
        assert np.abs(t0.matrix - r0).max() <= 1e-13
        assert np.abs(t1.matrix - r1).max() <= 1e-13

    @pytest.mark.parametrize("resampler", ["global", "local", "identity"])
    def test_diagonal_maxsat_sector(self, resampler):
        # a diagonal sector keeps the 2^n Z strings: one class of a clause's
        # inside strings per outside pattern, on non-adjacent supports too
        sector = im.PauliSector.of(_MAXSAT)
        assert sector.dimension == 16
        insts = _sweep_instruments(_MAXSAT, 0.4, resampler)
        t0, t1 = im.sweep_transfer_product(insts, 4, sector)
        r0, r1 = oracles.full_row_sweep_transfers(insts, sector)
        assert np.abs(t0.matrix - r0).max() <= 1e-13
        assert np.abs(t1.matrix - r1).max() <= 1e-13
        order = sector.block_order((0, 2, 3))
        assert order.shape == (1, 1, 8, 2)

    def test_heisenberg_bond_is_four_classes(self):
        sector = im.PauliSector.of(pauli.build_heisenberg_chain(5))
        order = sector.block_order((1, 2))
        c, g, m, a = order.shape
        assert (c, m) == (4, 4) and c * g * m * a == sector.dimension == 256
        # each class's members share one commutation pattern
        assert all(len(set(order.syndrome[row])) == 1 for row in order.members)

    def test_trivial_sector_ascending_run_needs_no_gather(self):
        sector = im.PauliSector(5)
        assert sector.block_order((1, 2)).rows is None
        assert sector.block_order((0, 2)).rows is not None
        assert sector.block_order((2, 1)).rows is not None

    def test_shared_steps_are_bit_identical(self, monkeypatch):
        ham = pauli.build_heisenberg_chain(5)
        sector = im.PauliSector.of(ham)
        insts = _sweep_instruments(ham, 0.2, "local")
        shared = im.micro_steps(insts)
        assert len({id(s.r0) for s in shared}) == 3
        assert [s.qubits for s in shared] == [i.support for i in insts]
        sweeps = (im.sweep_transfer_product, im.sweep_transfer_mixture)
        got = [sweep(insts, 5, sector) for sweep in sweeps]
        monkeypatch.setattr(im, "micro_steps", lambda insts: [im.MicroStep.of(i) for i in insts])
        for (t0, t1), sweep in zip(got, sweeps):
            r0, r1 = sweep(insts, 5, sector)
            assert np.array_equal(t0.matrix, r0.matrix) and np.array_equal(t1.matrix, r1.matrix)


def _pauli_of(sector, idx):
    n = sector.num_qubits
    return "".join("IXYZ"[(idx >> 2 * (n - 1 - q)) & 3] for q in range(n))


def _symmetries(sector):
    """Every element of the sector's group G as a Pauli string, phases dropped."""
    n, gens = sector.num_qubits, sector.generators
    out = []
    for mask in range(1 << len(gens)):
        g = np.zeros(2 * n, dtype=np.uint8)
        for j in range(len(gens)):
            if mask >> j & 1:
                g ^= gens[j]
        out.append("".join("IXZY"[x + 2 * z] for x, z in zip(g[:n], g[n:])))
    return out


class TestPauliSector:
    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_heisenberg_symmetries(self, n, periodic):
        sector = im.PauliSector.of(pauli.build_heisenberg_chain(n, periodic))
        assert sorted(_symmetries(sector)) == sorted(c * n for c in "IXYZ")
        assert sector.dimension == 4**n // 4

    def test_maxsat_sector_is_diagonal(self):
        ham = pauli.build_maxsat(4, [((0, 1), "01"), ((1, 2), "11"), ((2, 3), "10"), ((3,), "0")])
        sector = im.PauliSector.of(ham)
        assert len(_symmetries(sector)) == 2**4
        assert sector.dimension == ham.dimension
        assert all(set(_pauli_of(sector, s)) <= set("IZ") for s in sector.strings)

    def test_x_and_z_everywhere_is_trivial(self):
        n = 3
        terms = []
        for q in range(n):
            for c in "XZ":
                factors = ["I"] * n
                factors[q] = c
                terms.append(pauli.PauliTerm(0.5, pauli.PauliString("".join(factors))))
        sector = im.PauliSector.of(pauli.PauliHamiltonian(n, tuple(terms)))
        assert _symmetries(sector) == ["III"]
        assert sector.dimension == 4**n

    @pytest.mark.parametrize(
        "ham", [pauli.build_heisenberg_chain(3), _NON_ADJACENT], ids=["heis3", "non-adjacent"]
    )
    def test_strings_commute_with_every_symmetry(self, ham):
        sector = im.PauliSector.of(ham)
        group = [pauli.PauliString(g).to_matrix() for g in _symmetries(sector)]
        assert len(set(_symmetries(sector))) == len(group) == 4**ham.num_qubits // sector.dimension
        for t in ham.terms:
            h = t.string.to_matrix()
            assert all(np.array_equal(g @ h, h @ g) for g in group)
        member = set(sector.strings.tolist())
        for idx in range(4**ham.num_qubits):
            p = pauli.PauliString(_pauli_of(sector, idx)).to_matrix()
            commutes = all(np.array_equal(g @ p, p @ g) for g in group)
            assert commutes == (idx in member)

    def test_non_covariant_resampler_leaks(self, heis2):
        # a Hadamard on qubit 0 after E1 maps XX, inside the sector, to ZX,
        # outside it; E1^dag E1 is unchanged, so the pair stays complete
        had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        term = im.TermInstrument(heis2.terms[2], 1.0)
        e0, e1 = term.kraus(0.3)
        inst = im.Instrument(e0, np.kron(had, np.eye(2)) @ e1, "identity", term.support)
        t0, _ = im.sweep_transfer_product([inst], 2)
        assert t0.matrix.shape == (16, 16)
        with pytest.raises(ParameterError, match="leaves the Pauli symmetry sector"):
            im.sweep_transfer_product([inst], 2, im.PauliSector.of(heis2))

    def test_engine_sector_is_lazy_and_real(self, heis3):
        engine = _sweep_engine(heis3, 0.3, "local")
        assert "sector" not in engine.__dict__
        t0, t1 = engine.sweep_transfers(0.3)
        assert engine.sector.dimension == 16
        assert t0.sector is t1.sector is engine.sector
        assert t0.matrix.shape == t1.matrix.shape == (16, 16)
        assert t0.matrix.dtype == t1.matrix.dtype == np.float64
        rho = np.eye(8) / 8
        assert np.abs(t0.apply(rho) - unvec(column_stacked(t0) @ vec(rho))).max() <= 1e-15

    def test_state_outside_sector_refused(self, heis3):
        t0, t1 = _sweep_engine(heis3, 0.3, "local").sweep_transfers(0.3)
        ket0 = np.zeros((8, 8))
        ket0[0, 0] = 1.0  # holds Z on qubit 0, which anticommutes with XXX
        with pytest.raises(ParameterError, match="leaves the Pauli symmetry sector"):
            an.expected_stopped_general(t0, t1, ket0, [1])

    def test_round_trip(self, rng, heis3):
        sector = im.PauliSector.of(heis3)
        rho = sum(
            c * pauli.PauliString(_pauli_of(sector, s)).to_matrix()
            for c, s in zip(rng.normal(size=sector.dimension), sector.strings)
        )
        v = sector.vec(rho)
        assert np.abs(sector.unvec(v) - rho).max() <= 1e-13
        assert sector.trace_row @ v == pytest.approx(np.trace(rho).real, abs=1e-13)


class TestMarkovOracleAgreement:
    def test_projector_agsp_run_chain(self):
        # the absorbing run-length chain is an independent route to E(tau)
        k = np.diag([1.0, 0.0]).astype(complex)
        probs = global_run_success_probs(k, 3)
        assert probs[0] == pytest.approx(0.5)
        assert markov_expected_absorption(probs) == pytest.approx(4.0, abs=1e-12)

    def test_weak_diag_run_chain(self):
        from dqe import analytics as an

        k = np.diag([1.0, 0.5]).astype(complex)
        probs = global_run_success_probs(k, 1)
        assert markov_expected_absorption(probs) == pytest.approx(1.6, abs=1e-12)
        assert an.expected_tau_global(k, 1) == pytest.approx(1.6, abs=1e-12)
