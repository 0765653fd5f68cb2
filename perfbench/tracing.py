"""In-memory span timing around dqe's layer entry points, installed from outside.

Each probe replaces a module attribute (or a class attribute) with a wrapper
that records one span per call: its duration and the part of it covered by
child spans.  The name is patched where the caller looks it up, so a
function imported by name (``from .pauli import diagonalize``) is patched in
the importing module.  Spans are aggregated per name in memory; nothing in
``dqe`` is edited and every attribute is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

_now = time.perf_counter


class Tracer:
    """Aggregated spans of one CLI invocation.

    ``stats[name] = [calls, total_s, self_s, top_s]``; a span's self time is
    its duration minus the time covered by its child spans, and ``top_s`` is
    the time of the calls made directly from the root.  The invocation
    itself is the root span, so the root's self time is the CLI's own work.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.built_configs = []  # RunConfig of every engine built, in order
        self._child = []

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def _close(self, name: str, dt: float):
        child = self._child.pop()
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = [0, 0.0, 0.0, 0.0]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        self._child[-1] += dt
        if len(self._child) == 1:
            s[3] += dt

    def wrap(self, name: str, fn, after=None):
        """Wrapper of ``fn`` recording span ``name``; ``after(args, result)``
        runs outside the timed interval."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, _now() - t0)
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span and return its result."""
        self._child.append(0.0)
        t0 = _now()
        try:
            return fn(*args)
        finally:
            dt = _now() - t0
            self.root_s += dt
            self.root_self_s += dt - self._child.pop()


@contextlib.contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# Compulsory traffic of each kernel in passes over the D-amplitude state
# (complex128, 16 B each): reads of psi and phase, writes of the output.
# Bytes are computed from call counts, not measured.
KERNEL_PASSES = {
    "axpb_pauli": 3,
    "apply_local": 2,
    "local_probs": 1,
    "local_quadform": 1,
    "project_replace": 2,
}


def _record_trajectory(tracer: Tracer):
    """Counts sweeps and micro-measurements from each returned record."""

    def after(args, rec):
        engine = args[0]
        cfg = engine.cfg
        if rec.truncated:
            caps = [cfg.max_steps]
            if cfg.rule.hard_cap() is not None:
                caps.append(cfg.rule.hard_cap())
            sweeps = min(caps)
        else:
            sweeps = rec.stop_step
        per_sweep = 1 if engine.terms is None else 2 * len(engine.terms)
        tracer.count("sweeps", sweeps)
        tracer.count("micro", sweeps * per_sweep)
        tracer.count("truncated", int(rec.truncated))
        if not (np.isfinite(rec.final_energy) and np.isfinite(rec.final_overlap)):
            tracer.count("nonfinite")

    return after


def phase_probes(tracer: Tracer, dqe):
    """The few probes an untraced run keeps: engine builds and trajectories.

    They fire a handful of times per trajectory, not per weak measurement,
    so they leave end-to-end timings unchanged.
    """
    traj = dqe.trajectory
    engine_init = traj.TrajectoryEngine.__dict__["__init__"]

    def record_build(args, _result):
        tracer.counters["dim"] = args[0].dim
        tracer.built_configs.append(args[0].cfg)

    return [
        (traj.TrajectoryEngine, "__init__",
         tracer.wrap("trajectory.engine_build", engine_init, record_build)),
        (traj, "run_trajectory",
         tracer.wrap("trajectory.run_trajectory", traj.run_trajectory, _record_trajectory(tracer))),
    ]


def layer_probes(tracer: Tracer, dqe):
    """Probes at every layer boundary the benchmark's workloads cross."""
    targets = phase_probes(tracer, dqe)
    traj, noise, analytics, instrument = dqe.trajectory, dqe.noise, dqe.analytics, dqe.instrument
    engine = traj.TrajectoryEngine

    diag = tracer.wrap("pauli.diagonalize", dqe.pauli.diagonalize)
    targets += [
        (traj, "diagonalize", diag),
        (dqe.pauli, "diagonalize", diag),
        (traj, "to_dense", tracer.wrap("pauli.to_dense", traj.to_dense)),
        (traj, "run_ensemble", tracer.wrap("trajectory.run_ensemble", traj.run_ensemble)),
        (engine, "sweep_transfers",
         tracer.wrap("trajectory.sweep_transfers", engine.__dict__["sweep_transfers"])),
        (engine, "sweep_success_kraus",
         tracer.wrap("trajectory.sweep_success_kraus", engine.__dict__["sweep_success_kraus"])),
        (dqe.stopping, "should_stop", tracer.wrap("stopping.should_stop", dqe.stopping.should_stop)),
        (dqe.agsp, "verify_agsp", tracer.wrap("agsp.verify_agsp", dqe.agsp.verify_agsp)),
    ]

    for name in KERNEL_PASSES:
        fn = getattr(dqe._kernels, name)
        targets.append((dqe._kernels, name, tracer.wrap(f"_kernels.{name}", fn)))

    def count_transfer(args, _result):
        insts = args[0]
        d = insts[0].dimension
        # a (T0, T1) pair per term plus the sweep's pair, each D^2 x D^2 complex
        tracer.count("transfer_bytes", 16 * d**4 * (2 * len(insts) + 2))

    targets.append((instrument, "sweep_transfer_product",
                    tracer.wrap("instrument.sweep_transfer", instrument.sweep_transfer_product, count_transfer)))

    solver = analytics._LuSolver
    targets += [
        (analytics, "expected_state_general",
         tracer.wrap("analytics.expected_state_general", analytics.expected_state_general)),
        (analytics, "expected_tau_general",
         tracer.wrap("analytics.expected_tau_general", analytics.expected_tau_general)),
        (analytics, "geometric_sums", tracer.wrap("analytics.geometric_sums", analytics.geometric_sums)),
        (solver, "__init__", tracer.wrap("analytics.lu_factor", solver.__dict__["__init__"])),
        (solver, "solve", tracer.wrap("analytics.lu_solve", solver.__dict__["solve"])),
    ]

    seen_terms = set()

    def count_tomography(args, _result):
        term, eps, weight = args[:3]
        seen_terms.add((term.coefficient, term.string.factors, eps, weight))
        tracer.counters["tomography_distinct"] = float(len(seen_terms))

    targets += [
        (noise, "noisy_term_instrument",
         tracer.wrap("noise.tomography", noise.noisy_term_instrument, count_tomography)),
        (noise, "noisy_sweep_success_transfer",
         tracer.wrap("noise.noisy_transfer", noise.noisy_sweep_success_transfer)),
        (noise, "free_decay_overlaps", tracer.wrap("noise.free_decay", noise.free_decay_overlaps)),
        (noise, "run_resilience_experiment",
         tracer.wrap("noise.run_resilience_experiment", noise.run_resilience_experiment)),
        (noise, "measurement_circuit", tracer.wrap("circuits.measurement_circuit", noise.measurement_circuit)),
        (noise, "gate_unitary", tracer.wrap("circuits.gate_unitary", noise.gate_unitary)),
    ]
    return targets
