import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqe import circuits as cc, instrument as im, pauli
from dqe.errors import ConfigError, ParameterError

import oracles
from oracles import brute_force_chromatic
from test_instrument import pauli_hamiltonians


def _check_term_against_instrument(term, eps, weight, rng, samples=12):
    circ = cc.measurement_circuit(term, eps, weight)
    piloc = im.TermInstrument(term, weight).k_local
    d = piloc.shape[0]
    inst = oracles.make_instrument(weight * piloc, eps, "identity")
    worst = 0.0
    for _ in range(samples):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        p0, post0, p1, post1 = oracles.simulate_measurement(circ, psi)
        e0psi = inst.e0 @ psi
        q0 = float(np.vdot(e0psi, e0psi).real)
        e1psi = inst.e1 @ psi
        q1 = float(np.vdot(e1psi, e1psi).real)
        worst = max(worst, abs(p0 - q0), abs(p1 - q1))
        if post0 is not None and q0 > 1e-12:
            worst = max(worst, np.abs(post0 - e0psi / np.sqrt(q0)).max())
        if post1 is not None and q1 > 1e-12:
            worst = max(worst, np.abs(post1 - e1psi / np.sqrt(q1)).max())
    return worst


class TestDilation:
    def test_angles(self):
        d = oracles.dilation_unitary(0.5, 0.2)
        assert d.theta == pytest.approx(np.arccos(0.8))
        assert d.phi == pytest.approx(np.arccos(0.9))

    def test_kappa_one_simplifies(self):
        assert oracles.dilation_unitary(1.0, 0.37).phi == pytest.approx(0.0)

    def test_eps_zero_identity(self):
        d = oracles.dilation_unitary(0.3, 0.0)
        assert np.abs(d.matrix - np.eye(4)).max() <= 1e-12

    def test_unitarity_grid(self):
        worst = 0.0
        for eps in np.linspace(0.0, 1.0, 10):
            for kv in np.linspace(0.0, 1.0, 10):
                u = oracles.dilation_unitary(kv, eps).matrix
                worst = max(worst, np.abs(u @ u.T - np.eye(4)).max())
        assert worst <= 1e-12

    def test_row_blocks_are_instrument_eigenvalues(self):
        eps, kv = 0.2, 0.5
        d = oracles.dilation_unitary(kv, eps)
        # |0>-row blocks: E0 eigenvalues on (Pi, 1-Pi); |1>-row blocks: E1's
        assert d.matrix[0, 0] == pytest.approx(1 - eps * (1 - kv))
        assert d.matrix[1, 1] == pytest.approx(1 - eps)
        assert d.matrix[2, 0] == pytest.approx(np.sqrt(1 - (1 - eps * (1 - kv)) ** 2))
        assert d.matrix[3, 1] == pytest.approx(np.sqrt(eps * (2 - eps)))

    @pytest.mark.parametrize("eps", [1e-12, 1e-16, 1e-20])
    def test_small_eps_relative_accuracy(self, eps):
        # acos(1 - eps) loses eps below the spacing of doubles near 1
        kv = 0.5
        d = oracles.dilation_unitary(kv, eps)
        e_in = eps * (1 - kv)
        assert math.sin(d.theta) == pytest.approx(np.sqrt(eps * (2 - eps)), rel=1e-12, abs=0)
        assert math.sin(d.phi) == pytest.approx(np.sqrt(e_in * (2 - e_in)), rel=1e-12, abs=0)


class TestMeasurementCircuit:
    def test_projective_z_limit(self, rng):
        term = pauli.PauliTerm(1.0, pauli.PauliString("Z"))
        circ = cc.measurement_circuit(term, 1.0, 1.0)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        p0, post0, p1, post1 = oracles.simulate_measurement(circ, psi)
        # ground of +Z is |1>: outcome 0 projects onto it
        assert p0 == pytest.approx(abs(psi[1]) ** 2, abs=1e-12)
        if post0 is not None:
            assert abs(post0[0]) <= 1e-12

    def test_statistics_match_instrument(self, rng):
        for factors, coeff in (("XX", 1.0), ("YY", 1.0), ("ZZ", -1.0), ("XYZ", 1.0)):
            term = pauli.PauliTerm(coeff, pauli.PauliString(factors))
            for eps in (0.05, 0.2, 1.0):
                for w in (1.0, 1.0 / 9.0):
                    worst = _check_term_against_instrument(term, eps, w, rng)
                    assert worst <= 1e-10, (factors, eps, w, worst)

    def test_gate_structure(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("XY"))
        circ = cc.measurement_circuit(term, 0.2, 0.5)
        kinds = [type(g).__name__ for g in circ.gates]
        k = 2
        assert kinds.count("BasisRotation") == 2 * k
        assert kinds.count("ControlledNot") == 2 * k
        assert kinds.count("AncillaRotation") == 3
        assert kinds.count("MeasureAncilla") == 1

    def test_identity_rotations_skipped(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("ZZ"))
        circ = cc.measurement_circuit(term, 0.2, 0.5)
        assert not any(isinstance(g, cc.BasisRotation) for g in circ.gates)

    def test_identity_term_rejected(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("II"))
        with pytest.raises(ParameterError):
            cc.measurement_circuit(term, 0.2, 1.0)


class TestSchedule:
    def test_disjoint_terms_single_layer(self):
        terms = (
            pauli.PauliTerm(1.0, pauli.PauliString("ZZII")),
            pauli.PauliTerm(1.0, pauli.PauliString("IIZZ")),
        )
        ham = pauli.PauliHamiltonian(4, terms)
        assert cc.schedule_sweep(ham).depth == 1

    def test_zz_chain_two_layers(self):
        # one term per bond: even/odd bonds interleave into two layers
        n = 6
        terms = []
        for i in range(n - 1):
            factors = ["I"] * n
            factors[i] = factors[i + 1] = "Z"
            terms.append(pauli.PauliTerm(1.0, pauli.PauliString("".join(factors))))
        ham = pauli.PauliHamiltonian(n, tuple(terms))
        assert cc.schedule_sweep(ham).depth == 2

    def test_heisenberg4_greedy_vs_bruteforce(self, heis4):
        sched = cc.schedule_sweep(heis4)
        supports = [set(t.string.support) for t in heis4.terms]
        adjacency = [
            [v for v in range(len(supports)) if v != u and supports[u] & supports[v]]
            for u in range(len(supports))
        ]
        chromatic = brute_force_chromatic(adjacency)
        assert sched.depth >= chromatic
        assert sched.depth <= max(len(a) for a in adjacency) + 1  # greedy bound
        for layer in sched.layers:
            used = set()
            for v in layer:
                assert not (used & supports[v])
                used |= supports[v]

    def test_serialized_layers_match_term_circuits(self, heis4):
        # the full-sweep emission is the per-term circuits in schedule
        # order, remapped to global indices, with an ancilla reset between
        eps = 0.2
        circ = cc.full_sweep_circuit(heis4, eps)
        segments = []
        current = []
        for g in circ.gates:
            if isinstance(g, cc.ResetAncilla):
                segments.append(current)
                current = []
            else:
                current.append(g)
        order = cc.schedule_sweep(heis4).serialized_order()
        assert len(segments) == len(order)
        anc = circ.ancilla
        for seg, v in zip(segments, order):
            term = heis4.terms[v]
            sub = cc.measurement_circuit(term, eps, 1.0)
            mapping = {pos: q for pos, q in enumerate(term.string.support)}
            mapping[sub.ancilla] = anc
            expected = []
            for g in sub.gates:
                if isinstance(g, cc.BasisRotation):
                    expected.append(cc.BasisRotation(mapping[g.qubit], g.axis, g.dagger))
                elif isinstance(g, cc.ControlledNot):
                    expected.append(cc.ControlledNot(mapping[g.control], mapping[g.target]))
                else:
                    expected.append(g)
            assert seg == expected


class TestLargeRegister:
    """Circuits and the closed form act on a term's support only: a
    40-qubit chain builds them without any register-sized array."""

    def test_no_register_sized_allocation(self):
        ham = pauli.build_heisenberg_chain(40)
        weights = im.term_weights(ham, "max")
        tracemalloc.start()
        try:
            text = cc.export_qasm(cc.full_sweep_circuit(ham, 0.2, weights))
            circ = cc.measurement_circuit(ham.terms[-1], 0.2, weights[-1])
            inst = im.TermInstrument(ham.terms[-1], weights[-1])
            e0, _ = inst.kraus(0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "qreg q[41];" in text
        assert circ.num_qubits == 3 and e0.shape == (4, 4)
        assert peak < 1 << 20


class TestQasm:
    def test_empty_circuit_header_only(self):
        circ = cc.Circuit(num_qubits=3, gates=())
        text = cc.export_qasm(circ)
        body = [
            line
            for line in text.splitlines()
            if line and not line.startswith(("//", "OPENQASM", "include", "qreg", "creg"))
        ]
        assert body == []

    def test_z_term_body(self):
        term = pauli.PauliTerm(1.0, pauli.PauliString("Z"))
        circ = cc.measurement_circuit(term, 0.2, 0.5)
        text = cc.export_qasm(circ)
        body = [
            line
            for line in text.splitlines()
            if line and not line.startswith(("//", "OPENQASM", "include", "qreg", "creg"))
        ]
        assert body[-1].startswith("measure")
        assert sum(1 for line in body if line.startswith("cx")) == 2
        assert sum(1 for line in body if line.startswith("ry")) == 3

    def test_round_trip_unitary(self, rng):
        for factors, eps, w in (("XY", 0.2, 0.5), ("ZZ", 0.7, 1.0), ("XYZ", 0.05, 1 / 3)):
            term = pauli.PauliTerm(1.0, pauli.PauliString(factors))
            circ = cc.measurement_circuit(term, eps, w)
            text = cc.export_qasm(circ)
            parsed = oracles.parse_qasm(text)
            u1 = oracles.circuit_unitary(circ)
            u2 = oracles.parsed_unitary(parsed)
            assert np.abs(u1 - u2).max() <= 1e-10

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        ham=pauli_hamiltonians(),
        eps=st.floats(0.0, 1.0, exclude_min=True),
        weighting=st.sampled_from(("max", "sum")),
    )
    def test_sweep_round_trip(self, ham, eps, weighting):
        # a whole sweep on at most 4 qubits survives export and re-import
        circ = cc.full_sweep_circuit(ham, eps, im.term_weights(ham, weighting))
        parsed = oracles.parse_qasm(cc.export_qasm(circ))
        assert parsed.num_qubits == circ.num_qubits == ham.num_qubits + 1
        assert np.abs(oracles.parsed_unitary(parsed) - oracles.circuit_unitary(circ)).max() <= 1e-12

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            oracles.parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0]")  # missing semicolon
        with pytest.raises(ConfigError):
            oracles.parse_qasm("h q[0];\n")  # no qreg
