"""Gate-level realization of the Pauli-term weak measurement.

One ancilla (the last qubit of the local register) is rotated conditionally
on the parity of the term's support qubits via a CNOT ladder, then measured.
Outcome 0 applies E0 = (1-eps(1-kappa))Pi + (1-eps)(1-Pi) to the data
register, outcome 1 the complementary PSD square root, exactly matching the
instrument module; tests enforce this equivalence to 1e-10 through the dense
circuit simulation and dilation unitary of tests/oracles.py.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .instrument import dilation_angles
from .pauli import PauliHamiltonian, PauliTerm

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_S = np.diag([1.0, 1j]).astype(np.complex128)
_BASIS_ROT = {"X": _H, "Y": _S @ _H, "Z": np.eye(2, dtype=np.complex128)}


@dataclass(frozen=True)
class BasisRotation:
    qubit: int
    axis: str
    dagger: bool = False


@dataclass(frozen=True)
class ControlledNot:
    control: int
    target: int


@dataclass(frozen=True)
class AncillaRotation:
    angle: float


@dataclass(frozen=True)
class MeasureAncilla:
    pass


@dataclass(frozen=True)
class ResetAncilla:
    pass


Gate = BasisRotation | ControlledNot | AncillaRotation | MeasureAncilla | ResetAncilla


@dataclass(frozen=True)
class Circuit:
    """Gate list on a local register; the ancilla is the last qubit."""

    num_qubits: int  # includes the ancilla
    gates: tuple[Gate, ...]
    term_metadata: dict = field(default_factory=dict)

    @property
    def ancilla(self) -> int:
        return self.num_qubits - 1


def measurement_circuit(term: PauliTerm, eps: float, weight: float = 1.0) -> Circuit:
    """Weak-measurement circuit of one Pauli term on support + ancilla.

    Basis rotations take each support factor to Z; the CNOT ladder folds the
    support parity onto the ancilla; three ancilla rotations realize the
    conditional R_phi / R_theta pair (which sector gets which depends on the
    coefficient sign); identity rotations are not emitted.
    """
    support = term.string.support
    if not support:
        raise ParameterError("identity terms have no measurement circuit")
    k = len(support)
    theta, phi = dilation_angles(eps, weight)
    # the ladder parity p tags the sectors: even parity is range(Pi) for
    # negative-coefficient terms, the complement for positive ones
    if term.sign < 0:
        start, half = phi, (theta - phi) / 2.0
    else:
        start, half = theta, (phi - theta) / 2.0
    gates: list[Gate] = []
    axes = [term.string.factors[q] for q in support]
    for pos, ax in enumerate(axes):
        if ax != "Z":
            gates.append(BasisRotation(pos, ax, dagger=True))
    if abs(start) > 1e-15:
        gates.append(AncillaRotation(start))
    for pos in range(k):
        gates.append(ControlledNot(pos, k))
    if abs(half) > 1e-15:
        gates.append(AncillaRotation(-half))
    for pos in range(k - 1, -1, -1):
        gates.append(ControlledNot(pos, k))
    if abs(half) > 1e-15:
        gates.append(AncillaRotation(half))
    for pos, ax in enumerate(axes):
        if ax != "Z":
            gates.append(BasisRotation(pos, ax, dagger=False))
    gates.append(MeasureAncilla())
    return Circuit(
        num_qubits=k + 1,
        gates=tuple(gates),
        term_metadata={
            "factors": term.string.factors,
            "support": support,
            "coefficient": term.coefficient,
            "eps": eps,
            "kappa_v": weight,
        },
    )


# ---------------------------------------------------------------------------
# Gate unitaries (qubit 0 = most significant bit, ancilla = last qubit)
# ---------------------------------------------------------------------------


def _embed_1q(u: np.ndarray, pos: int, n: int) -> np.ndarray:
    full = np.eye(1, dtype=np.complex128)
    for q in range(n):
        full = np.kron(full, u if q == pos else np.eye(2))
    return full


def _cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    d = 1 << n
    mat = np.zeros((d, d), dtype=np.complex128)
    cbit = 1 << (n - 1 - control)
    tbit = 1 << (n - 1 - target)
    for i in range(d):
        j = i ^ tbit if i & cbit else i
        mat[j, i] = 1.0
    return mat


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def gate_unitary(gate: Gate, num_qubits: int) -> np.ndarray:
    if isinstance(gate, BasisRotation):
        u = _BASIS_ROT[gate.axis]
        if gate.dagger:
            u = u.conj().T
        return _embed_1q(u, gate.qubit, num_qubits)
    if isinstance(gate, ControlledNot):
        return _cnot_matrix(gate.control, gate.target, num_qubits)
    if isinstance(gate, AncillaRotation):
        return _embed_1q(_rotation(gate.angle), num_qubits - 1, num_qubits)
    raise ParameterError(f"gate {gate!r} has no unitary")


# ---------------------------------------------------------------------------
# Sweep scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSchedule:
    """Terms grouped into layers of pairwise-disjoint support."""

    layers: tuple[tuple[int, ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def serialized_order(self) -> list[int]:
        return [v for layer in self.layers for v in layer]


def schedule_sweep(ham: PauliHamiltonian) -> SweepSchedule:
    """Greedy coloring of the term-overlap graph; one layer per color."""
    supports = [set(t.string.support) for t in ham.terms]
    layers: list[list[int]] = []
    layer_supports: list[set] = []
    for v in range(len(supports)):
        placed = False
        for li, used in enumerate(layer_supports):
            if not (used & supports[v]):
                layers[li].append(v)
                used |= supports[v]
                placed = True
                break
        if not placed:
            layers.append([v])
            layer_supports.append(set(supports[v]))
    return SweepSchedule(tuple(tuple(l) for l in layers))


def full_sweep_circuit(ham: PauliHamiltonian, eps: float, weights=None) -> Circuit:
    """Serialized one-sweep circuit over all terms with ancilla reuse.

    Term subcircuits are emitted in schedule order on the full register
    (original qubit indices), separated by ancilla resets.
    """
    if weights is None:
        weights = [1.0] * ham.num_terms
    sched = schedule_sweep(ham)
    gates: list[Gate] = []
    n = ham.num_qubits
    for v in sched.serialized_order():
        term = ham.terms[v]
        sub = measurement_circuit(term, eps, weights[v])
        mapping = {pos: q for pos, q in enumerate(term.string.support)}
        mapping[sub.ancilla] = n
        for g in sub.gates:
            if isinstance(g, BasisRotation):
                gates.append(BasisRotation(mapping[g.qubit], g.axis, g.dagger))
            elif isinstance(g, ControlledNot):
                gates.append(ControlledNot(mapping[g.control], mapping[g.target]))
            else:
                gates.append(g)
        gates.append(ResetAncilla())
    return Circuit(num_qubits=n + 1, gates=tuple(gates), term_metadata={"eps": eps})


# ---------------------------------------------------------------------------
# QASM-2 export (its parser, for the round trip, is in tests/oracles.py)
# ---------------------------------------------------------------------------

_QASM_HEADER = """\
// weak-measurement circuit (ancilla = last qubit)
// rotation convention: R(a) = [[cos a, -sin a], [sin a, cos a]] == ry(2a)
OPENQASM 2.0;
include "qelib1.inc";
"""


def export_qasm(circuit: Circuit) -> str:
    """QASM-2 text using {h, s, sdg, cx, ry, measure, reset} only."""
    buf = io.StringIO()
    buf.write(_QASM_HEADER)
    if circuit.term_metadata:
        meta = circuit.term_metadata
        if "factors" in meta:
            buf.write(f"// term {meta['factors']} eps={meta['eps']!r} kappa={meta['kappa_v']!r}\n")
    n = circuit.num_qubits
    buf.write(f"qreg q[{n}];\ncreg c[1];\n")
    anc = circuit.ancilla
    for g in circuit.gates:
        if isinstance(g, BasisRotation):
            q = g.qubit
            if g.axis == "X":
                buf.write(f"h q[{q}];\n")
            elif g.axis == "Y":
                # H_y = S H applies h first; the dagger reverses the order
                if g.dagger:
                    buf.write(f"sdg q[{q}];\nh q[{q}];\n")
                else:
                    buf.write(f"h q[{q}];\ns q[{q}];\n")
        elif isinstance(g, ControlledNot):
            buf.write(f"cx q[{g.control}],q[{g.target}];\n")
        elif isinstance(g, AncillaRotation):
            buf.write(f"ry({2.0 * g.angle:.17g}) q[{anc}];\n")
        elif isinstance(g, MeasureAncilla):
            buf.write(f"measure q[{anc}] -> c[0];\n")
        elif isinstance(g, ResetAncilla):
            buf.write(f"reset q[{anc}];\n")
    return buf.getvalue()
