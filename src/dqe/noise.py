"""Fault injection and the fault-resilience bound.

The noise model is per-gate depolarizing applied inside the measurement
circuit; a direct Kraus-operator perturbation of a clean instrument, with
its fixed-point bound, is a test reference in tests/oracles.py.  Per-gate
depolarizing is a mixture of Pauli errors whose probabilities do not depend
on the state, so it enters twice, as the same channel: the sampler draws
Pauli error events (``GateErrors``) and the oracle reads the branch
transfers of a process tomography in the Pauli-transfer basis
(``noisy_term_instrument``).  Transfers are real Pauli-transfer matrices
(``instrument.PauliSector``'s basis); the basis is orthonormal in
Hilbert-Schmidt space, so their operator-norm distances are those of any
other orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    BasisRotation,
    ControlledNot,
    MeasureAncilla,
    ResetAncilla,
    gate_unitary,
    measurement_circuit,
)
from .errors import InvalidNoiseError, ParameterError
from .instrument import (
    Block,
    MicroStep,
    TermInstrument,
    TransferMatrix,
    apply_blocks,
    micro_steps,
    pauli_transfer,
    sweep_plan,
    sweep_walk,
    trivial_sector,
)
from .pauli import PauliString, PauliTerm


@dataclass(frozen=True)
class DepolarizingPerGate:
    """Depolarizing channel after every gate: rate p1 (1q) / p2 (2q)."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ParameterError("depolarizing rates must be in [0, 1]")


@dataclass(frozen=True)
class NoisyTermInstrument:
    """Tomographed branches of one noisy weak measurement: the real
    Pauli-transfer matrices R_0 (success) and R_1 (failure) on the support."""

    success_transfer: np.ndarray
    failure_transfer: np.ndarray
    support: tuple[int, ...]
    delta_measured: float


@dataclass(frozen=True)
class ResilienceReport:
    runtimes: tuple[int, ...]
    overlaps: tuple[float, ...]
    stderrs: tuple[float, ...]
    baseline_overlaps: tuple[float, ...]
    delta_measured: float  # largest per-term success-branch transfer distance
    sweep_delta: float = float("nan")  # whole-sweep transfer distance
    bound_asymptotic: float = float("nan")  # n->infinity overlap bound at sweep_delta
    energies: tuple[float, ...] = ()
    baseline_series: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Process tomography in the Pauli-transfer basis
# ---------------------------------------------------------------------------


def _gate_qubits(gate, num_qubits: int) -> tuple[int, ...]:
    """The qubits a gate acts on, and its depolarizing channel with it."""
    if isinstance(gate, ControlledNot):
        return (gate.control, gate.target)
    if isinstance(gate, BasisRotation):
        return (gate.qubit,)
    return (num_qubits - 1,)


def _noisy_gates(circ, model: DepolarizingPerGate):
    """(gate, qubits, rate) of every unitary gate of the circuit, in order."""
    out = []
    for g in circ.gates:
        if isinstance(g, (MeasureAncilla, ResetAncilla)):
            continue
        qubits = _gate_qubits(g, circ.num_qubits)
        out.append((g, qubits, model.p1 if len(qubits) == 1 else model.p2))
    return out


def _local_gate(gate) -> np.ndarray:
    """The unitary of a gate on just the qubits it acts on."""
    if isinstance(gate, ControlledNot):
        return gate_unitary(ControlledNot(0, 1), 2)
    if isinstance(gate, BasisRotation):
        return gate_unitary(replace(gate, qubit=0), 1)
    return gate_unitary(gate, 1)


# input columns evolved at once: a weight-k term's stack holds at most
# 4^(k+1) x 1024 reals (134 MB at k = 6)
_TOMOGRAPHY_COLUMNS = 1024


def noisy_circuit_branches(circ, model: DepolarizingPerGate):
    """Pauli-transfer matrices R_0, R_1 of the noisy circuit's branches on
    the data qubits.

    Each gate and its depolarizing channel act as one real local
    Pauli-transfer block on a 4^n x columns stack over every Pauli string
    (``instrument.apply_blocks`` on the trivial sector).  The ancilla (the
    last qubit) enters as |0><0| = (I + Z)/2 and is read out as <b|.|b>:
    over the output's ancilla digit, R_b = (out[.., I, :] +- out[.., Z, :]) / 2.
    """
    n = circ.num_qubits
    steps = []
    for g, qubits, p in _noisy_gates(circ, model):
        t = len(qubits)
        # (1 - p) rho + p/(4^t - 1) sum_sigma sigma rho sigma over the
        # non-identity strings sigma scales each of them by 1 - p 4^t/(4^t - 1)
        diag = np.full(4**t, 1.0 - p * 4**t / (4**t - 1))
        diag[0] = 1.0
        steps.append(Block(diag[:, None] * pauli_transfer([_local_gate(g)]), qubits))
    cols = 4 ** (n - 1)
    sector = trivial_sector(n)
    out = np.empty((cols, 2, cols))
    for lo in range(0, cols, _TOMOGRAPHY_COLUMNS):
        idx = np.arange(lo, min(lo + _TOMOGRAPHY_COLUMNS, cols))
        x = np.zeros((cols, 4, len(idx)))
        x[idx, ::3, idx - lo] = 1.0  # data string idx, ancilla I + Z
        x = apply_blocks(steps, x.reshape(4 * cols, len(idx)), sector)
        out[:, :, idx] = x.reshape(cols, 4, -1)[:, ::3]
    return (out[:, 0] + out[:, 1]) / 2.0, (out[:, 0] - out[:, 1]) / 2.0


def noisy_term_instrument(
    term: PauliTerm, eps: float, weight: float, model: DepolarizingPerGate
) -> NoisyTermInstrument:
    """Effective noisy instrument of one term's measurement circuit.

    The branches together preserve the trace: the identity row of
    R_0 + R_1 is e_0, or InvalidNoiseError is raised.  delta_measured is the
    transfer-norm distance between the noisy and clean success branches on
    the term's support.
    """
    r0, r1 = noisy_circuit_branches(measurement_circuit(term, eps, weight), model)
    trace_row = r0[0] + r1[0]
    trace_row[0] -= 1.0
    defect = float(np.abs(trace_row).max())
    if defect > 1e-8:
        raise InvalidNoiseError(f"noisy instrument trace-preservation defect {defect:.2e}")
    e0_clean = TermInstrument(term, weight).kraus(eps)[0]
    delta = float(np.linalg.norm(r0 - pauli_transfer([e0_clean]), 2))
    return NoisyTermInstrument(r0, r1, term.string.support, delta)


# ---------------------------------------------------------------------------
# Pauli error events for the sampler
# ---------------------------------------------------------------------------

# error patterns whose branch operators one GateErrors keeps; past it a
# pattern's operators are rebuilt each time it fires (at p = 1 the patterns
# of a two-qubit term number about 1e8)
_PATTERN_CACHE = 4096


class GateErrors:
    """Per-gate depolarizing of one term's measurement circuit, sampled as
    Pauli error events.

    Gate g fails with its rate p_g and then applies a uniform non-identity
    Pauli on its qubits; the circuit sees no error with probability
    exp(-hazard), hazard = -sum_g log1p(-p_g).  ``draw`` samples an error
    pattern given that at least one gate fails: the first failing gate
    from its conditional distribution, each later gate independently.  A
    pattern's branch operators K_b = <b|U_pattern|0> on the support (the
    ancilla is the least significant qubit) are built from the gates'
    unitaries with the Paulis inserted, on the pattern's first draw, and
    each is rephased by its largest entry.  For a real state (``real``) a
    residual imaginary part above 1e-12 raises InvalidNoiseError.
    """

    def __init__(self, term: PauliTerm, eps: float, weight: float, model: DepolarizingPerGate, real: bool):
        self.circuit = measurement_circuit(term, eps, weight)
        self.gates, self.qubits, self.rates = map(list, zip(*_noisy_gates(self.circuit, model)))
        self.real = real
        with np.errstate(divide="ignore"):
            cumulative = -np.cumsum(np.log1p(-np.array(self.rates)))
        self.hazard = float(cumulative[-1])
        # P(the first failing gate is at or before g | some gate fails)
        self._first = -np.expm1(-cumulative) / -np.expm1(-self.hazard) if self.hazard > 0.0 else None
        self._unitaries = None
        self._paulis = {}
        self._cache = {}

    def draw(self, rng):
        """(K0, K1, K0^dag K0) of an error pattern drawn given that at least
        one gate fails."""
        pattern = self.draw_pattern(rng)
        ops = self._cache.get(pattern)
        if ops is None:
            ops = self.branch_operators(pattern)
            if len(self._cache) < _PATTERN_CACHE:
                self._cache[pattern] = ops
        return ops

    def draw_pattern(self, rng) -> tuple[tuple[int, int], ...]:
        """The failing gates and their Paulis, given that at least one gate
        fails, as (gate, Pauli) pairs (see ``branch_operators``)."""
        first = int(np.searchsorted(self._first, rng.random(), side="right"))
        pattern = [(first, self._draw_pauli(rng, first))]
        for g in range(first + 1, len(self.rates)):
            if rng.random() < self.rates[g]:
                pattern.append((g, self._draw_pauli(rng, g)))
        return tuple(pattern)

    def _draw_pauli(self, rng, g: int) -> int:
        """A uniform non-identity Pauli on gate g's qubits, as its base-4 index."""
        return 1 + int(rng.integers(4 ** len(self.qubits[g]) - 1))

    def branch_operators(self, pattern):
        """(K0, K1, K0^dag K0) under the errors ``pattern``: (gate, Pauli)
        pairs, the Pauli a base-4 index over the gate's qubits (I, X, Y, Z;
        the first qubit most significant)."""
        n = self.circuit.num_qubits
        if self._unitaries is None:
            self._unitaries = [gate_unitary(g, n) for g in self.gates]
        errors = dict(pattern)
        m = np.eye(1 << n, dtype=np.complex128)[:, ::2]  # data (x) |0>
        for g, u in enumerate(self._unitaries):
            m = u @ m
            if g in errors:
                m = self._pauli(g, errors[g]) @ m
        k0, k1 = (self._rephased(m[b::2]) for b in (0, 1))
        return k0, k1, k0.conj().T @ k0

    def _pauli(self, g: int, s: int) -> np.ndarray:
        """Pauli s on gate g's qubits, as a matrix on the circuit's register."""
        mat = self._paulis.get((g, s))
        if mat is None:
            n = self.circuit.num_qubits
            factors = ["I"] * n
            t = len(self.qubits[g])
            for j, q in enumerate(self.qubits[g]):
                factors[q] = "IXYZ"[(s >> 2 * (t - 1 - j)) & 3]
            mat = self._paulis[(g, s)] = PauliString("".join(factors)).to_matrix()
        return mat

    def _rephased(self, k: np.ndarray) -> np.ndarray:
        big = k.reshape(-1)[np.argmax(np.abs(k))]
        if big != 0.0:
            k = k * (abs(big) / big)
        if not self.real:
            return k
        residual = float(np.abs(k.imag).max())
        if residual > 1e-12:
            raise InvalidNoiseError(f"gate-error branch operator is not real up to a phase ({residual:.2e})")
        return np.ascontiguousarray(k.real)


# ---------------------------------------------------------------------------
# Resilience bound
# ---------------------------------------------------------------------------


def resilience_bound_asymptotic(params, delta: float):
    """n -> infinity overlap bound 1 - eps - 2 delta / (sqrtG(sqrtG - sqrtD) - 2 delta).

    Returns (value, vacuous): vacuous when delta reaches the threshold
    sqrtGamma (sqrtGamma - sqrtDelta) / 2.
    """
    from .analytics import BoundResult

    gap = params.sqrt_gamma * (params.sqrt_gamma - params.sqrt_delta)
    if delta >= gap / 2.0:
        return BoundResult(0.0, True)
    value = 1.0 - params.epsilon - 2.0 * delta / (gap - 2.0 * delta)
    return BoundResult(min(max(value, 0.0), 1.0), False)


def _noisy_steps(engine) -> list[MicroStep]:
    """The engine's sweep steps with each term's tomographed R_0 and R_1."""
    return [
        MicroStep(ni.success_transfer, ni.failure_transfer, ni.support, engine.cfg.resampler)
        for ni in engine.noisy_instruments
    ]


def noisy_sweep_success_transfer(engine) -> TransferMatrix:
    """Transfer matrix of the noisy all-zeros sweep branch of an engine, on
    the trivial sector."""
    sector = trivial_sector(engine.num_qubits)
    (sweep,) = sweep_walk([(_noisy_steps(engine), MicroStep.success)], np.eye(sector.dimension), sector)
    return TransferMatrix(sweep, sector=sector)


def noisy_sweep_delta(engine) -> float:
    """||T_noisy - T_K||_2 between the noisy all-zeros sweep of an engine
    and its clean one, rho -> K rho K^dag with K the clean success Kraus
    operator, without forming either 4^n x 4^n matrix.

    The largest singular value of x -> noisy(x) - clean(x) on real Pauli
    coefficient vectors, both walked on their fused support blocks
    (``instrument.sweep_plan``, built once per branch), by implicitly
    restarted Lanczos (ARPACK) on the normal operator; tol=0 asks for
    machine precision and the start vector is pinned, so the value is
    reproducible.
    """
    from scipy.sparse.linalg import LinearOperator, svds

    sector = trivial_sector(engine.num_qubits)
    dim = sector.dimension
    noisy = _noisy_steps(engine)
    clean = micro_steps(engine.instruments_at(engine.cfg.schedule.base))
    plans = {
        branch: (sweep_plan(noisy, branch), sweep_plan(clean, branch))
        for branch in (MicroStep.success, MicroStep.success_adjoint)
    }

    def apply(x, branch):
        xt = x.reshape(dim, -1)
        noisy_plan, clean_plan = plans[branch]
        return (apply_blocks(noisy_plan, xt, sector) - apply_blocks(clean_plan, xt, sector)).reshape(x.shape)

    op = LinearOperator(
        (dim, dim),
        matvec=lambda x: apply(x, MicroStep.success),
        rmatvec=lambda x: apply(x, MicroStep.success_adjoint),
        dtype=np.float64,
    )
    v0 = np.random.default_rng(0).standard_normal(dim)
    return float(svds(op, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


# ---------------------------------------------------------------------------
# Resilience experiment
# ---------------------------------------------------------------------------


def free_decay_overlaps(spectral, p1: float, steps: int):
    """Ground state decaying under per-qubit depolarizing, overlap per step.

    The comparison series of the noise experiment: no measurements, just the
    same single-qubit noise applied across all qubits each time step.  The
    channel on qubit q is lam rho + (1 - lam) tr_q(rho) (x) I/2 with
    lam = 1 - 4 p1 / 3, so t steps from Pi0 / N give the overlap
    sum_w c_w lam^(t (n - w)) (1 - lam^t)^w, where
    c_w = sum_{|S| = w} ||tr_S Pi0||_F^2 / (N 2^w) over the 2^n qubit
    subsets S.  Powers are integer powers, so lam <= 0 (p1 >= 3/4) is exact.
    """
    n = int(round(np.log2(spectral.dimension)))
    weights = np.zeros(n + 1)

    def walk(x, m, lo, w):
        # x is tr_S Pi0 as a 2m-axis tensor (m row axes, then m column axes);
        # each subset is reached once, by tracing qubits in increasing order
        weights[w] += float(np.vdot(x, x).real)
        for i in range(lo, m):
            walk(np.trace(x, axis1=i, axis2=m + i), m - 1, i, w + 1)

    walk(spectral.ground_projector.reshape((2,) * (2 * n)), n, 0, 0)
    weights /= spectral.degeneracy * 2.0 ** np.arange(n + 1)
    lam_t = (1.0 - 4.0 * p1 / 3.0) ** np.arange(steps + 1)
    return sum(c * lam_t ** (n - w) * (1.0 - lam_t) ** w for w, c in enumerate(weights))


def run_resilience_experiment(
    ham,
    model: DepolarizingPerGate,
    runtimes,
    eps: float,
    num_trajectories: int,
    seed: int = 0,
    weighting: str = "max",
    parallelism: int | None = None,
) -> ResilienceReport:
    """Noisy ensembles at several run-time caps plus the free-decay baseline."""
    from .agsp import verify_agsp
    from .stopping import EpsilonSchedule, Secretary
    from .trajectory import RunConfig, TrajectoryEngine, run_ensemble

    runtimes = tuple(int(t) for t in runtimes)
    configs = [
        RunConfig(
            ham,
            agsp_mode="product-sweep",
            schedule=EpsilonSchedule.constant(eps),
            resampler="global",
            rule=Secretary(cap),
            seed=seed,
            weighting=weighting,
            noise=model,
        )
        for cap in runtimes
    ]
    # one engine serves every cap and also yields the deltas and the bound
    engine = TrajectoryEngine(configs[0])
    overlaps, stderrs, energies = [], [], []
    for cfg in configs:
        stats = run_ensemble(cfg, num_trajectories, parallelism=parallelism, engine=engine)
        overlaps.append(stats.mean_overlap)
        stderrs.append(stats.stderr_overlap)
        energies.append(stats.mean_energy)
    delta = max(nt.delta_measured for nt in engine.noisy_instruments)
    sweep_delta = noisy_sweep_delta(engine)
    params = verify_agsp(engine.sweep_success_kraus(eps), engine.pi0)
    bound = resilience_bound_asymptotic(params, sweep_delta).value
    series = free_decay_overlaps(engine.spectral, model.p1, max(runtimes))
    baseline = tuple(float(series[t]) for t in runtimes)
    return ResilienceReport(
        runtimes=runtimes,
        overlaps=tuple(overlaps),
        stderrs=tuple(stderrs),
        baseline_overlaps=baseline,
        delta_measured=delta,
        sweep_delta=sweep_delta,
        bound_asymptotic=bound,
        energies=tuple(energies),
        baseline_series=tuple(series.tolist()),
    )
