"""Monte Carlo trajectory engine: sweep, resample, stop, record.

Pure-state unravelling: the maximally mixed initial state and every
maximally-mixed resample are realized as uniformly random computational
basis states, which reproduces the density-matrix process exactly in
ensemble expectation.  Gate noise is unravelled the same way: an
exponential clock per trajectory decides which micro-measurements carry a
Pauli error, those apply the drawn pattern's dense branch operator, and
every other one runs the clean kernels (Dalibard, Castin & Molmer, PRL 68,
580, 1992).  The state is float64 whenever every term is real, with or
without noise, and complex128 otherwise.  Each trajectory owns its state
buffers and random stream, so runs are embarrassingly parallel and
bit-reproducible.

A clean product sweep at constant eps on at most ``SEGMENT_MAX_DIM``
amplitudes is sampled in segments (``_sweep_segments``).  Its success
operators come in the same order on every sweep, so the engine builds, once
per eps, the stacks of their running products P_{s,k} = E0_{v_k}...E0_{v_s}
for every start position s.  A segment starting at s is one matrix-vector
product of that stack with psi: the squared norms q_k of the rows give the
success weights p0_k = q_k / q_{k-1}, which set where the first failure
falls, as the no-jump norm decay does in the quantum-jump unravelling.  The
segment draws one uniform per micro-measurement, in the per-micro loop's
order, up to the first failure; psi then becomes the success-path state
before it, the clean failure branch runs and the next segment starts after
it.  The segments therefore consume the same draws as the per-micro loop,
and give the same outcomes up to rounding in p0.  Mixture sweeps, decaying
eps, gate noise and larger states take the per-micro loop.
"""

from __future__ import annotations

import copy
import itertools
import math
import multiprocessing
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .agsp import agsp_chebyshev, agsp_linear
from .errors import ConfigError, ParameterError
from .instrument import (
    RESAMPLER_KINDS,
    Instrument,
    PauliSector,
    TermInstrument,
    population_chain,
    sweep_success_operator,
    term_instruments,
)
from .pauli import PauliHamiltonian, SpectralData, diagonalize, to_dense
from .stopping import EpsilonSchedule, RuleTracker, StoppingRule, epsilon_at

AGSP_MODES = ("linear-global", "chebyshev-global", "product-sweep", "mixture-random")
WEIGHTINGS = ("max", "sum")
# RunConfig fields that no engine operator depends on
_RUN_FIELDS = ("rule", "seed", "max_steps", "record_series")
# Largest state dimension whose clean product sweeps are sampled in
# segments.  Microseconds per sweep, per-micro loop -> segments, of
# TimeCap(3000) trajectories from a random basis state on Heisenberg chains,
# local resampler, eps 0.2, on a 2-core x86 host: n = 3: 86 -> 45; n = 4:
# 122 -> 71; n = 5: 158 -> 108; n = 6: 227 -> 309.  At D = 64 the stack
# products cost more than the loop saves.
SEGMENT_MAX_DIM = 32
# Largest prefix-stack cache per eps, in bytes: L(L + 3)/2 blocks of D x D
# for a sweep of L micro-measurements, 0.37 MiB at Heisenberg-4 (L = 18) and
# 2.5 MiB at Heisenberg-5 (L = 24).  Many terms on few qubits stay per-micro.
SEGMENT_MAX_BYTES = 16 << 20


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines one trajectory, including its seed."""

    hamiltonian: PauliHamiltonian
    agsp_mode: str = "product-sweep"
    schedule: EpsilonSchedule = field(default_factory=lambda: EpsilonSchedule.constant(0.2))
    resampler: str = "global"
    rule: StoppingRule = None  # type: ignore[assignment]
    seed: int = 0
    max_steps: int = 1_000_000
    record_series: bool = False
    weighting: str = "max"
    cheb_degree: int = 2
    noise: object | None = None  # noise.DepolarizingPerGate, gate-level faults

    def __post_init__(self):
        if self.agsp_mode not in AGSP_MODES:
            raise ConfigError(f"agsp_mode must be one of {AGSP_MODES}, got {self.agsp_mode!r}")
        if self.resampler not in RESAMPLER_KINDS:
            raise ConfigError(f"resampler must be one of {RESAMPLER_KINDS}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}")
        if self.rule is None:
            raise ConfigError("a stopping rule is required")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if self.noise is not None:
            if self.agsp_mode not in ("product-sweep", "mixture-random"):
                raise ConfigError("gate-level noise needs a local sweep mode")
            if self.schedule.kind != "constant":
                raise ConfigError("gate-level noise needs a constant eps schedule")


@dataclass
class TrajectoryRecord:
    """Observables of one stopped (or truncated) run."""

    stop_step: int
    stopped_run_length: int
    final_energy: float
    final_overlap: float
    truncated: bool
    seed: int
    outcomes: np.ndarray | None = None
    series: np.ndarray | None = None


@dataclass(frozen=True)
class EnsembleStats:
    num_trajectories: int
    mean_overlap: float
    stderr_overlap: float
    mean_energy: float
    stderr_energy: float
    mean_tau: float
    stderr_tau: float
    run_length_histogram: dict[int, int]
    truncated_count: int


class TrajectoryEngine:
    """Precomputed operators shared (read-only) by all trajectories."""

    def __init__(self, cfg: RunConfig, spectral: SpectralData | None = None):
        self.cfg = cfg
        ham = cfg.hamiltonian
        self.num_qubits = ham.num_qubits
        self.dim = ham.dimension
        self.h_dense = to_dense(ham)
        if spectral is None:
            spectral = diagonalize(ham, h_dense=self.h_dense)
        self.spectral = spectral
        self.pi0 = self.spectral.ground_projector
        # the state stays real when each term has an even number of Ys: H,
        # its eigenvectors and each term's action are then real, and so is
        # every gate-error branch operator up to a phase (noise.GateErrors)
        real = all(t.string.is_real for t in ham.terms)
        self.state_dtype = np.float64 if real else np.complex128
        self.gate_errors = None  # per-term noise.GateErrors, when a rate is > 0
        self._branch_rows = {}  # eps -> per-term TermInstrument.branch_row
        self._prefix_stacks = {}  # eps -> per-position prefix_stacks
        self.segmented = False  # whether _run_sweep samples in segments
        if cfg.agsp_mode in ("linear-global", "chebyshev-global"):
            if cfg.agsp_mode == "linear-global":
                agsp = agsp_linear(ham, self.spectral, h_dense=self.h_dense)
            else:
                agsp = agsp_chebyshev(self.spectral, cfg.cheb_degree, num_terms=ham.num_terms)
            # K is a function of H, so it shares H's eigenvectors
            self.k_global = agsp.operator
            self._kw, self._kv = agsp.values, self.spectral.eigenvectors
            self.terms = None
        else:
            self.k_global = None
            self.terms = term_instruments(ham, cfg.weighting)
            m = len(self.terms)
            self.sweep_order = tuple(range(m)) + tuple(range(m - 1, -1, -1))
            if cfg.noise is not None:
                from .noise import GateErrors

                eps = cfg.schedule.base
                errors = _per_circuit(
                    self.terms, lambda t: GateErrors(t.term, eps, t.weight, cfg.noise, real)
                )
                # all rates zero: the clean sweep, drawing nothing extra
                if any(e.hazard > 0.0 for e in errors):
                    self.gate_errors = errors
                    self.hazards = [e.hazard for e in errors]
            n = len(self.sweep_order)
            stack_bytes = n * (n + 3) // 2 * self.dim**2 * np.dtype(self.state_dtype).itemsize
            self.segmented = (
                cfg.agsp_mode == "product-sweep"
                and cfg.schedule.kind == "constant"
                and self.gate_errors is None
                and self.dim <= SEGMENT_MAX_DIM
                and stack_bytes <= SEGMENT_MAX_BYTES
            )

    def rebind(self, cfg: RunConfig) -> "TrajectoryEngine":
        """This engine's operators under ``cfg``: a shallow copy with cfg replaced.

        Only the fields that shape trajectories but no operator (the rule,
        the seed, max_steps and record_series) may differ from the config
        the engine was built for; any other difference raises ConfigError.
        """
        if cfg is self.cfg:
            return self
        if replace(cfg, **{f: getattr(self.cfg, f) for f in _RUN_FIELDS}) != self.cfg:
            raise ConfigError("the engine was built for a config with other operators")
        bound = copy.copy(self)
        bound.cfg = cfg
        return bound

    @cached_property
    def noisy_instruments(self):
        """Per-term ``noise.NoisyTermInstrument`` for the oracle, built on
        first use; None without gate noise.  Terms whose circuits agree share
        one tomography."""
        if self.cfg.noise is None:
            return None
        # looked up on the module at call time, where perfbench's probe sits
        from .noise import noisy_term_instrument

        eps, model = self.cfg.schedule.base, self.cfg.noise
        shared = _per_circuit(self.terms, lambda t: noisy_term_instrument(t.term, eps, t.weight, model))
        return [replace(ni, support=t.support) for ni, t in zip(shared, self.terms)]

    def branch_rows(self, eps: float) -> list[tuple[float, ...]]:
        """Per-term ``TermInstrument.branch_row`` at eps, built once per eps."""
        rows = self._branch_rows.get(eps)
        if rows is None:
            rows = self._branch_rows[eps] = [t.branch_row(eps) for t in self.terms]
        return rows

    def prefix_stacks(self, eps: float) -> list[np.ndarray]:
        """Per sweep position s, the ((L - s + 1) D x D) stack of the success
        products P_{s,k} = E0_{v_k}...E0_{v_s}, k = s - 1 ... L - 1, the
        first block (k = s - 1) the identity; built once per eps.

        Each E0 = a0 1 + b0 h_v is assembled from ``branch_rows``, with h_v
        applied to the identity through ``hphase`` and ``flips``.
        """
        stacks = self._prefix_stacks.get(eps)
        if stacks is None:
            d = self.dim
            eye = np.eye(d, dtype=self.state_dtype)
            e0 = []
            for t, row in zip(self.terms, self.branch_rows(eps)):
                h = eye.reshape(t.hphase.shape + (d,))[t.flips] * t.hphase[..., None]
                e0.append(row[0] * eye + row[1] * h.reshape(d, d))
            stacks = []
            for s in range(len(self.sweep_order)):
                blocks = [eye]
                for v in self.sweep_order[s:]:
                    blocks.append(e0[v] @ blocks[-1])
                stacks.append(np.concatenate(blocks))
            self._prefix_stacks[eps] = stacks
        return stacks

    # -- instruments for the analytics oracle ------------------------------

    def instruments_at(self, eps: float) -> list[Instrument]:
        """Instrument list matching the engine's sweep at a fixed eps."""
        return [t.instrument(eps, self.cfg.resampler) for t in self.terms]

    @cached_property
    def sector(self) -> PauliSector:
        """The Hamiltonian's Pauli symmetry sector, built on first use: every
        term, its instrument and each resampler commute with the twirl."""
        return PauliSector.of(self.cfg.hamiltonian)

    def sweep_transfers(self, eps: float):
        """(T0, T1) transfer pair of one engine sweep at constant eps: real
        on ``sector``, or for a global mode a chain on the populations of
        H's eigenvectors."""
        if self.k_global is not None:
            return population_chain((1.0 - eps) + eps * self._kw, self._kv, self.cfg.resampler)
        # looked up on the module at call time, where perfbench's probe sits
        from .instrument import sweep_transfer_mixture, sweep_transfer_product

        insts = self.instruments_at(eps)
        if self.cfg.agsp_mode == "product-sweep":
            return sweep_transfer_product(insts, self.num_qubits, self.sector)
        return sweep_transfer_mixture(insts, self.num_qubits, self.sector)

    def sweep_success_kraus(self, eps: float) -> np.ndarray:
        """Kraus operator of the all-zeros sweep branch at constant eps.

        For the product sweep this is the forward-then-reversed factor
        product M M^dag; the mixture sweep has no single Kraus operator.
        """
        if self.k_global is not None:
            return (1.0 - eps) * np.eye(self.dim) + eps * self.k_global
        if self.cfg.agsp_mode != "product-sweep":
            raise ParameterError("mixture sweeps have no single success Kraus operator")
        return sweep_success_operator(self.terms, eps)


def _per_circuit(terms, build) -> list:
    """``build(term)`` for each term, called once per distinct measurement
    circuit: the circuit reads only the term's factors on its support, its
    sign and its weight."""
    built = {}
    out = []
    for t in terms:
        key = (tuple(t.term.string.factors[q] for q in t.support), t.sign, t.weight)
        if key not in built:
            built[key] = build(t)
        out.append(built[key])
    return out


def measure_observables(psi, h_dense, pi0):
    """<psi|H|psi> and <psi|Pi0|psi> for a normalized pure state."""
    return (
        float(np.vdot(psi, h_dense @ psi).real),
        float(np.vdot(psi, pi0 @ psi).real),
    )


class _TrajectoryState:
    """Mutable per-trajectory workspace: state vector, buffer, rng.

    ``psi`` and ``buf`` are the two rows of one array, and they are the
    same buffers for the whole trajectory: every update writes psi in
    place, and buf only holds intermediates such as h psi.  Views of them
    taken once therefore stay valid.
    """

    def __init__(self, engine: TrajectoryEngine, seed_seq):
        self.rng = np.random.default_rng(seed_seq)
        d = engine.dim
        pair = np.zeros((2, d), dtype=engine.state_dtype)
        self.psi, self.buf = pair
        self.psi[self.rng.integers(d)] = 1.0
        self.pair = pair.view(np.float64)
        self.views = {}  # term -> its pauli_expect arguments
        # exponential clock of the next gate error: each micro-measurement
        # takes its term's hazard off it, and an error fires when it goes
        # below zero
        self.clock = self.rng.standard_exponential() if engine.gate_errors is not None else 0.0

    def pauli_views(self, term: TermInstrument):
        """``pauli_expect``'s arguments for the term, built on first use."""
        views = self.views.get(term)
        if views is None:
            shape = term.hphase.shape
            flipped = self.psi.reshape(shape)[term.flips]
            views = self.views[term] = (self.pair, flipped, term.hphase, self.buf.reshape(shape))
        return views

    def reset_random_basis(self):
        self.psi[:] = 0.0
        self.psi[self.rng.integers(self.psi.shape[0])] = 1.0


def _measure_term_clean(ts: _TrajectoryState, term: TermInstrument, row, resampler: str) -> int:
    """One weak measurement of a Pauli term; returns the outcome bit.

    ``row`` is ``term.branch_row(eps)``.  One Pauli action gives h psi and
    <psi|h psi>, which fix both branch weights in closed form; the chosen
    branch a psi + b h psi is written into psi, divided by its norm
    sqrt(p <psi|psi>), so rounding in the norm does not accumulate.
    """
    a0, b0, _, _, c0, d0, _, _ = row
    hh, nn = _kernels.pauli_expect(*ts.pauli_views(term))
    x = hh / nn
    p0 = c0 + d0 * x
    u = ts.rng.random()
    if u < p0 and p0 > 1e-15:
        s = 1.0 / math.sqrt(p0 * nn)
        _kernels.axpb_pauli(ts.psi, ts.buf, a0 * s, b0 * s)
        return 0
    return _clean_failure(ts, term, row, resampler, x, nn)


def _clean_failure(ts: _TrajectoryState, term: TermInstrument, row, resampler: str,
                   x: float | None = None, nn: float | None = None) -> int:
    """The failure branch of a clean weak measurement; returns 1.

    The global resampler resets the register.  Otherwise E1 psi is written
    into psi, divided by its norm, and the local resampler then measures and
    replaces the support; a failure branch whose weight underflows resets
    the state instead.  ``x`` and ``nn`` are <psi|h psi>/<psi|psi> and
    <psi|psi> with h psi in ``ts.buf``; without them the Pauli action runs
    here.
    """
    if resampler == "global":
        ts.reset_random_basis()
        return 1
    if nn is None:
        hh, nn = _kernels.pauli_expect(*ts.pauli_views(term))
        x = hh / nn
    _, _, a1, b1, _, _, c1, d1 = row
    p1 = c1 + d1 * x
    if p1 < 1e-15:
        ts.reset_random_basis()
        return 1
    s = 1.0 / math.sqrt(p1 * nn)
    _kernels.axpb_pauli(ts.psi, ts.buf, a1 * s, b1 * s)
    if resampler == "local" and term.support:
        _local_measure_replace(ts, term.table)
    return 1


def _choice(rng, weights) -> int:
    """``rng.choice(len(p), p=p)`` for p the normalised weights, without its
    argument checks or arrays: the running sums over their last (one
    division, which also normalises), the same single uniform and the same
    right-sided search, so the same stream and, for normalised weights, the
    same index."""
    cdf = list(itertools.accumulate(weights))
    u = rng.random()
    last = cdf[-1]
    for i, c in enumerate(cdf):
        if c / last > u:
            return i
    return len(cdf)


def _local_measure_replace(ts: _TrajectoryState, table: np.ndarray):
    probs = _kernels.local_probs(ts.psi, table).tolist()
    a_old = _choice(ts.rng, probs)
    a_new = int(ts.rng.integers(len(probs)))
    _kernels.project_replace(ts.psi, table, a_old, a_new, 1.0 / math.sqrt(probs[a_old]))


def _measure_term_error(ts: _TrajectoryState, ops, table: np.ndarray, resampler: str) -> int:
    """A weak measurement in which a gate error fired; returns the outcome bit.

    ``ops`` is the drawn error pattern's (K0, K1, K0^dag K0) on the support
    (``noise.GateErrors.draw``).  The outcome is drawn from the quadratic
    form, and the chosen branch K_b psi is written into psi, divided by its
    norm.  A failure branch whose weight underflows resets the state, as on
    the clean path.
    """
    k0, k1, m0 = ops
    p0 = _kernels.local_quadform(ts.psi, table, m0)
    u = ts.rng.random()
    if u < p0 and p0 > 1e-15:
        norm = _kernels.apply_local(ts.psi, ts.buf, table, k0)
        np.multiply(ts.buf, 1.0 / math.sqrt(norm), out=ts.psi)
        return 0
    if resampler == "global":
        ts.reset_random_basis()
        return 1
    norm = _kernels.apply_local(ts.psi, ts.buf, table, k1)
    if norm < 1e-15:
        ts.reset_random_basis()
        return 1
    np.multiply(ts.buf, 1.0 / math.sqrt(norm), out=ts.psi)
    if resampler == "local":
        _local_measure_replace(ts, table)
    return 1


def _global_measure(ts: _TrajectoryState, engine: TrajectoryEngine, eps: float) -> int:
    kw, kv = engine._kw, engine._kv
    amps = (1.0 - eps) + eps * kw
    coeff = kv.conj().T @ ts.psi
    phi0 = kv @ (amps * coeff)
    p0 = float(np.vdot(phi0, phi0).real)
    u = ts.rng.random()
    if u < p0 and p0 > 1e-15:
        np.divide(phi0, np.sqrt(p0), out=ts.psi)
        return 0
    # the global instrument's support is every qubit, so "local" resets them all
    if engine.cfg.resampler != "identity":
        ts.reset_random_basis()
        return 1
    e1_amps = np.sqrt(np.clip(1.0 - amps**2, 0.0, None))
    phi1 = kv @ (e1_amps * coeff)
    p1 = float(np.vdot(phi1, phi1).real)
    if p1 < 1e-15:
        ts.reset_random_basis()
        return 1
    np.divide(phi1, np.sqrt(p1), out=ts.psi)
    return 1


def _run_sweep(ts: _TrajectoryState, engine: TrajectoryEngine, eps: float) -> int:
    """One sweep; the sweep bit is 1 if any micro-measurement failed."""
    if engine.k_global is not None:
        return _global_measure(ts, engine, eps)
    if engine.segmented:
        return _sweep_segments(ts, engine, eps)
    resampler = engine.cfg.resampler
    if engine.cfg.agsp_mode == "product-sweep":
        order = engine.sweep_order
    else:
        m = len(engine.terms)
        order = [int(ts.rng.integers(m)) for _ in range(2 * m)]
    terms = engine.terms
    rows = engine.branch_rows(eps)
    bit = 0
    if engine.gate_errors is None:
        for v in order:
            bit |= _measure_term_clean(ts, terms[v], rows[v], resampler)
    else:
        # P(no error through micro j) = exp(-sum of hazards), so the first
        # micro-measurement at which the clock goes below zero is the first
        # with an error, and the clock is memoryless after it
        errors, hazards = engine.gate_errors, engine.hazards
        clock = ts.clock
        for v in order:
            clock -= hazards[v]
            if clock < 0.0:
                out = _measure_term_error(ts, errors[v].draw(ts.rng), terms[v].table, resampler)
                clock = ts.rng.standard_exponential()
            else:
                out = _measure_term_clean(ts, terms[v], rows[v], resampler)
            bit |= out
        ts.clock = clock
    return bit


def _sweep_segments(ts: _TrajectoryState, engine: TrajectoryEngine, eps: float) -> int:
    """One clean product sweep, one segment per failure plus one.

    A segment from position s takes every success-path state of the rest
    of the sweep from one product of ``engine.prefix_stacks(eps)[s]`` with
    psi, draws one uniform per micro-measurement against p0_k = q_k/q_{k-1}
    up to the first failure, and runs the failure branch on the state
    before it.  The draws are the per-micro loop's, in its order.  Each
    success has p0 > 1e-15, so every q_{k-1} divided by is positive.
    """
    stacks = engine.prefix_stacks(eps)
    order, terms, rows = engine.sweep_order, engine.terms, engine.branch_rows(eps)
    resampler, rng, psi = engine.cfg.resampler, ts.rng, ts.psi
    d, n = engine.dim, len(order)
    s = bit = 0
    while s < n:
        phi = (stacks[s] @ psi).reshape(-1, d)
        flat = phi.view(np.float64)
        q = np.vecdot(flat, flat).tolist()
        prev = q[0]
        for k in range(s, n):
            qk = q[k - s + 1]
            p0 = qk / prev
            if rng.random() < p0 and p0 > 1e-15:
                prev = qk
                continue
            psi[:] = phi[k - s]
            v = order[k]
            bit = _clean_failure(ts, terms[v], rows[v], resampler)
            s = k + 1
            break
        else:
            np.multiply(phi[-1], 1.0 / math.sqrt(prev), out=psi)
            s = n
    return bit


def run_trajectory(
    engine: TrajectoryEngine, seed_seq=None, record_series: bool | None = None
) -> TrajectoryRecord:
    """One complete stopped run (or a truncated one, flagged as such).

    A truncated run reports the state snapshotted at the end of the longest
    run seen so far, matching the rule framing that stopping happens at a
    run boundary.
    """
    cfg = engine.cfg
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    if record_series is None:
        record_series = cfg.record_series
    ts = _TrajectoryState(engine, seed_seq)
    tracker = RuleTracker(cfg.rule, ts.rng)
    caps = [cfg.max_steps]
    if cfg.rule.hard_cap() is not None:
        caps.append(cfg.rule.hard_cap())
    cap = min(caps)
    t1_last = 0
    snap_state = ts.psi.copy()
    snap_len = 0
    snap_step = 0
    outcomes = np.empty(cap, dtype=np.uint8) if record_series else None
    series = np.empty((cap, 2)) if record_series else None
    for t in range(1, cap + 1):
        eps_t = epsilon_at(cfg.schedule, t, t1_last)
        bit = _run_sweep(ts, engine, eps_t)
        stop = tracker.update(bit)
        if record_series:
            outcomes[t - 1] = bit
            series[t - 1] = measure_observables(ts.psi, engine.h_dense, engine.pi0)
        if bit:
            t1_last = t
        elif tracker.history.current_run > snap_len:
            snap_state[:] = ts.psi
            snap_len = tracker.history.current_run
            snap_step = t
        if stop:
            energy, overlap = measure_observables(ts.psi, engine.h_dense, engine.pi0)
            return TrajectoryRecord(
                stop_step=t,
                stopped_run_length=tracker.history.current_run,
                final_energy=energy,
                final_overlap=overlap,
                truncated=False,
                seed=cfg.seed,
                outcomes=outcomes[:t] if record_series else None,
                series=series[:t] if record_series else None,
            )
    energy, overlap = measure_observables(snap_state, engine.h_dense, engine.pi0)
    return TrajectoryRecord(
        stop_step=snap_step,
        stopped_run_length=snap_len,
        final_energy=energy,
        final_overlap=overlap,
        truncated=True,
        seed=cfg.seed,
        outcomes=outcomes[:cap] if record_series else None,
        series=series[:cap] if record_series else None,
    )


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

_WORKER_ENGINE: TrajectoryEngine | None = None


def _worker_init(cfg: RunConfig):
    global _WORKER_ENGINE
    _WORKER_ENGINE = TrajectoryEngine(cfg)


def _worker_run(index: int):
    cfg = _WORKER_ENGINE.cfg
    seq = np.random.SeedSequence(cfg.seed, spawn_key=(index,))
    rec = run_trajectory(_WORKER_ENGINE, seq, record_series=False)
    return (
        index,
        rec.stop_step,
        rec.stopped_run_length,
        rec.final_energy,
        rec.final_overlap,
        rec.truncated,
    )


def run_ensemble(
    cfg: RunConfig,
    num_trajectories: int,
    parallelism: int | None = None,
    engine: TrajectoryEngine | None = None,
    return_records: bool = False,
):
    """Independent trajectories with per-index derived seeds.

    The aggregate is a deterministic function of (cfg.seed, num_trajectories)
    regardless of the degree of parallelism: trajectory i always uses the
    seed sequence spawned at key (i,), and reduction happens in index order.
    A given ``engine`` is rebound to ``cfg`` (``TrajectoryEngine.rebind``),
    so it must have been built for the same operators.
    """
    if num_trajectories < 1:
        raise ParameterError("num_trajectories must be >= 1")
    if engine is not None:
        engine = engine.rebind(cfg)
    if parallelism is None:
        parallelism = 1
    rows = []
    if parallelism > 1:
        with multiprocessing.Pool(
            parallelism, initializer=_worker_init, initargs=(cfg,)
        ) as pool:
            rows = pool.map(_worker_run, range(num_trajectories), chunksize=64)
    else:
        if engine is None:
            engine = TrajectoryEngine(cfg)
        for i in range(num_trajectories):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(i,))
            rec = run_trajectory(engine, seq, record_series=False)
            rows.append(
                (i, rec.stop_step, rec.stopped_run_length, rec.final_energy,
                 rec.final_overlap, rec.truncated)
            )
    rows.sort(key=lambda r: r[0])
    taus = np.array([r[1] for r in rows], dtype=float)
    runs = np.array([r[2] for r in rows], dtype=int)
    energies = np.array([r[3] for r in rows])
    overlaps = np.array([r[4] for r in rows])
    truncated = sum(1 for r in rows if r[5])
    hist_vals, hist_counts = np.unique(runs, return_counts=True)
    stats = EnsembleStats(
        num_trajectories=num_trajectories,
        mean_overlap=float(overlaps.mean()),
        stderr_overlap=_stderr(overlaps),
        mean_energy=float(energies.mean()),
        stderr_energy=_stderr(energies),
        mean_tau=float(taus.mean()),
        stderr_tau=_stderr(taus),
        run_length_histogram={int(v): int(c) for v, c in zip(hist_vals, hist_counts)},
        truncated_count=truncated,
    )
    if return_records:
        return stats, rows
    return stats


def _stderr(x: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(x.std(ddof=1) / np.sqrt(x.size))
