"""Command-line surface: reproducible experiments with CSV outputs.

Every output file embeds the canonical config JSON and its hash in a
'#'-prefixed header block, so a result is reproducible byte-for-byte from
its own header.  Exit codes: 0 ok, 2 config error, 3 resource limit,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, agsp, analytics, instrument, noise, pauli, stopping, trajectory
from .errors import ConfigError, DqeError

# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable description of one CLI invocation."""

    command: str
    system: dict
    agsp_mode: str = "product-sweep"
    eps: str = "0.2"
    resampler: str = "global"
    stopping_rule: str = "run-of-zeros:4"
    time_cap: int | None = None
    trajectories: int = 1000
    seed: int = 0
    weighting: str = "max"
    cheb_degree: int = 2
    max_steps: int = 1_000_000
    workers: int = 1
    extra: dict | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["extra"] is None:
            d.pop("extra")
        return d

    def hash(self) -> str:
        """Hash of the fields that determine the results.

        ``workers`` only spreads trajectories over processes, so it is left
        out; a Hamiltonian file enters as its canonical JSON, not its path.
        """
        d = self.to_dict()
        d.pop("workers")
        if self.system.get("builder") == "file":
            ham = pauli.hamiltonian_to_json(build_system(self.system))
            d["system"] = {"builder": "file", "hamiltonian": ham}
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_clause(text: str):
    """'0,1:11' -> ((0, 1), '11')."""
    try:
        subset, bits = text.split(":")
        return tuple(int(v) for v in subset.split(",")), bits
    except ValueError as exc:
        raise ConfigError(f"clause must look like '0,1:11', got {text!r}") from exc


def build_system(system: dict) -> pauli.PauliHamiltonian:
    kind = system.get("builder")
    if kind == "heisenberg":
        return pauli.build_heisenberg_chain(int(system["n"]), bool(system.get("periodic", False)))
    if kind == "maxsat":
        clauses = [(tuple(sub), bits) for sub, bits in system["clauses"]]
        return pauli.build_maxsat(int(system["num_vars"]), clauses)
    if kind == "file":
        return pauli.load_hamiltonian(system["path"])
    raise ConfigError(f"unknown system spec {system!r}")


def parse_stopping(spec: str) -> stopping.StoppingRule:
    name, _, arg = spec.partition(":")
    if name == "run-of-zeros":
        return stopping.FirstRunOfZeros(int(arg))
    if name == "secretary":
        return stopping.Secretary(int(arg))
    if name == "expected-rank":
        return stopping.ExpectedRank(int(arg))
    if name == "time-cap":
        return stopping.TimeCap(int(arg))
    raise ConfigError(f"unknown stopping rule {spec!r}")


def parse_epsilon(spec: str, ham) -> stopping.EpsilonSchedule:
    if spec == "auto":
        return stopping.EpsilonSchedule.constant(stopping.suggest_epsilon(ham))
    if spec.startswith("decaying:"):
        base = spec.split(":", 1)[1]
        if base == "auto":
            return stopping.EpsilonSchedule.decaying(stopping.suggest_epsilon(ham))
        return stopping.EpsilonSchedule.decaying(float(base))
    try:
        return stopping.EpsilonSchedule.constant(float(spec))
    except ValueError as exc:
        raise ConfigError(f"cannot parse eps spec {spec!r}") from exc


def make_run_config(cfg: ExperimentConfig, noise_model=None) -> trajectory.RunConfig:
    ham = build_system(cfg.system)
    rule = parse_stopping(cfg.stopping_rule)
    max_steps = cfg.max_steps if cfg.time_cap is None else min(cfg.max_steps, cfg.time_cap)
    return trajectory.RunConfig(
        hamiltonian=ham,
        agsp_mode=cfg.agsp_mode,
        schedule=parse_epsilon(cfg.eps, ham),
        resampler=cfg.resampler,
        rule=rule,
        seed=cfg.seed,
        max_steps=max_steps,
        weighting=cfg.weighting,
        cheb_degree=cfg.cheb_degree,
        noise=noise_model,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _open_output(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def write_csv(path, cfg: ExperimentConfig, columns, rows, footer=()):
    fh, close = _open_output(path)
    try:
        fh.write(f"# dqe {__version__}\n")
        fh.write(f"# config_hash: {cfg.hash()}\n")
        fh.write(f"# config: {json.dumps(cfg.to_dict(), sort_keys=True)}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
        for line in footer:
            fh.write(f"# {line}\n")
    finally:
        if close:
            fh.close()


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    cfg = _experiment_from_args(args, "spectrum")
    ham = build_system(cfg.system)
    spec = pauli.diagonalize(ham)
    print(f"config_hash: {cfg.hash()}")
    print(f"num_qubits:  {ham.num_qubits}")
    print(f"terms:       {ham.num_terms}")
    print(f"kappa:       {ham.kappa!r}")
    print(f"lambda0:     {spec.lambda0!r}")
    print(f"lambda1:     {spec.lambda1!r}")
    print(f"gap:         {spec.gap!r}")
    print(f"norm:        {spec.norm!r}")
    print(f"degeneracy:  {spec.degeneracy}")
    print(f"dimension:   {spec.dimension}")
    print(f"suggested_eps: {stopping.suggest_epsilon(ham)!r}")
    return 0


def cmd_run(args) -> int:
    import dataclasses

    cfg = _experiment_from_args(args, "run")
    rc = make_run_config(cfg, _noise_from_args(args))
    rc = dataclasses.replace(rc, record_series=True)
    engine = trajectory.TrajectoryEngine(rc)
    rec = trajectory.run_trajectory(engine)
    rows = [
        (t + 1, int(rec.outcomes[t]), float(rec.series[t, 0]), float(rec.series[t, 1]))
        for t in range(rec.series.shape[0])
    ]
    write_csv(args.output, cfg, ("step", "outcome", "energy", "overlap"), rows)
    print(f"stop_step: {rec.stop_step}")
    print(f"stopped_run_length: {rec.stopped_run_length}")
    print(f"final_energy: {rec.final_energy!r}")
    print(f"final_overlap: {rec.final_overlap!r}")
    print(f"truncated: {rec.truncated}")
    print(f"lambda0: {engine.spectral.lambda0!r}")
    return 0


def cmd_ensemble(args) -> int:
    cfg = _experiment_from_args(args, "ensemble")
    rc = make_run_config(cfg, _noise_from_args(args))
    stats, rows = trajectory.run_ensemble(
        rc, cfg.trajectories, parallelism=cfg.workers, return_records=True
    )
    out_rows = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
    footer = [
        f"mean_overlap {stats.mean_overlap!r} stderr {stats.stderr_overlap!r}",
        f"mean_energy {stats.mean_energy!r} stderr {stats.stderr_energy!r}",
        f"mean_tau {stats.mean_tau!r} stderr {stats.stderr_tau!r}",
        f"truncated {stats.truncated_count}",
    ]
    rule = rc.rule
    if (
        isinstance(rule, stopping.FirstRunOfZeros)
        and rc.noise is None
        and rc.hamiltonian.num_qubits <= instrument.TRANSFER_LIMIT_QUBITS
        and rc.schedule.kind == "constant"
    ):
        engine = trajectory.TrajectoryEngine(rc)
        t0, t1 = engine.sweep_transfers(rc.schedule.base)
        rho0 = np.eye(engine.dim) / engine.dim
        (exact,) = analytics.expected_stopped_general(t0, t1, rho0, [rule.n])
        ex_ov, ex_tau = float(np.trace(engine.pi0 @ exact.state).real), exact.tau
        z_ov = (stats.mean_overlap - ex_ov) / max(stats.stderr_overlap, 1e-30)
        z_tau = (stats.mean_tau - ex_tau) / max(stats.stderr_tau, 1e-30)
        footer.append(f"oracle_overlap {ex_ov!r} z {z_ov!r}")
        footer.append(f"oracle_tau {ex_tau!r} z {z_tau!r}")
        footer.append(f"exact_trace_defect {exact.trace_defect!r}")
    write_csv(
        args.output,
        cfg,
        ("trajectory_id", "stop_step", "stopped_run_length", "final_energy", "final_overlap"),
        out_rows,
        footer,
    )
    for line in footer:
        print(line)
    return 0


def cmd_analytics(args) -> int:
    cfg = _experiment_from_args(args, "analytics")
    rc = make_run_config(cfg)
    if rc.schedule.kind != "constant":
        raise ConfigError("analytics needs a constant eps schedule")
    engine = trajectory.TrajectoryEngine(rc)
    eps = rc.schedule.base
    t0, t1 = engine.sweep_transfers(eps)
    rho0 = np.eye(engine.dim) / engine.dim
    spec = engine.spectral
    params = None
    if rc.agsp_mode in ("product-sweep", "linear-global", "chebyshev-global"):
        kraus = engine.sweep_success_kraus(eps)
        params = agsp.verify_agsp(kraus, engine.pi0)
    rows, defect = [], 0.0
    for n, state, tau, trace_defect in analytics.expected_stopped_general(
        t0, t1, rho0, _parse_int_list(args.n_values)
    ):
        defect = max(defect, trace_defect)
        overlap = float(np.trace(engine.pi0 @ state).real)
        if params is not None:
            lb = analytics.overlap_lower_bound(params, spec.dimension, spec.degeneracy, n).value
            ub = analytics.tau_upper_bound(params, spec.dimension, spec.degeneracy, n)
        else:
            lb, ub = float("nan"), float("nan")
        rows.append((n, overlap, tau, lb, ub))
    write_csv(
        args.output,
        cfg,
        ("n", "exact_overlap", "exact_tau", "overlap_lower_bound", "tau_upper_bound"),
        rows,
        [f"exact_trace_defect_max {defect!r}"],
    )
    return 0


def cmd_fixed_point(args) -> int:
    cfg = _experiment_from_args(args, "fixed-point")
    ham = build_system(cfg.system)
    spec = pauli.diagonalize(ham)
    if cfg.agsp_mode == "chebyshev-global":
        a = agsp.agsp_chebyshev(spec, cfg.cheb_degree, num_terms=ham.num_terms)
        scale = args.scale if args.scale is not None else 1.0 - spec.degeneracy / spec.dimension
    else:
        a = agsp.agsp_linear(ham, spec)
        scale = args.scale if args.scale is not None else 1.0
    k = scale * a.operator
    rho = instrument.fixed_point_direct(k)
    channel = instrument.global_channel_transfer(k)
    rho_iter = instrument.fixed_point_iterate(channel)
    dist = instrument.trace_distance(rho, rho_iter)
    overlap = float(np.trace(spec.ground_projector @ rho).real)
    params = agsp.verify_agsp(k, spec.ground_projector)
    bound = analytics.fixed_point_overlap_bound(params, spec.dimension, spec.degeneracy)
    print(f"config_hash: {cfg.hash()}")
    print(f"scale: {scale!r}")
    print(f"fixed_point_overlap: {overlap!r}")
    print(f"direct_vs_iterate_trace_distance: {dist!r}")
    print(f"overlap_bound: {bound!r}")
    return 0


def cmd_compare_resampling(args) -> int:
    cfg = _experiment_from_args(args, "compare-resampling")
    if cfg.system.get("builder") != "heisenberg":
        raise ConfigError("compare-resampling sweeps Heisenberg chain sizes")
    sizes = _parse_int_list(args.sizes)
    nz = args.n_zeros
    eps = float(cfg.eps)
    rows = []
    taus_g, taus_l = [], []
    for size in sizes:
        ham = pauli.build_heisenberg_chain(size)
        rcg = trajectory.RunConfig(
            ham,
            agsp_mode="product-sweep",
            schedule=stopping.EpsilonSchedule.constant(eps),
            resampler="local",
            rule=stopping.FirstRunOfZeros(nz),
            seed=cfg.seed,
            weighting=cfg.weighting,
        )
        engine = trajectory.TrajectoryEngine(rcg)
        kraus = engine.sweep_success_kraus(eps)
        tau_g = analytics.expected_tau_global(kraus, nz)
        t0, t1 = engine.sweep_transfers(eps)
        rho0 = np.eye(engine.dim) / engine.dim
        tau_l = analytics.expected_tau_general(t0, t1, rho0, nz)
        taus_g.append(tau_g)
        taus_l.append(tau_l)
        rows.append((size, tau_g, tau_l))
    slope_g = float(np.polyfit(sizes, np.log(taus_g), 1)[0])
    slope_l = float(np.polyfit(sizes, np.log(taus_l), 1)[0])
    footer = [
        f"fit_slope_global {slope_g!r}",
        f"fit_slope_local {slope_l!r}",
        f"local_le_global {all(l <= g for l, g in zip(taus_l, taus_g))}",
    ]
    write_csv(args.output, cfg, ("size", "tau_global", "tau_local"), rows, footer)
    for line in footer:
        print(line)
    return 0


def cmd_noise_sweep(args) -> int:
    cfg = _experiment_from_args(args, "noise-sweep")
    ham = build_system(cfg.system)
    runtimes = _parse_int_list(args.runtimes)
    eps = float(cfg.eps)
    rows = []
    for p in [float(x) for x in args.rates.split(",")]:
        model = noise.DepolarizingPerGate(p, p)
        report = noise.run_resilience_experiment(
            ham,
            model,
            runtimes,
            eps,
            cfg.trajectories,
            seed=cfg.seed,
            weighting=cfg.weighting,
            parallelism=cfg.workers,
        )
        for cap, ov, se, base in zip(
            report.runtimes, report.overlaps, report.stderrs, report.baseline_overlaps
        ):
            rows.append((report.delta_measured, cap, ov, se, report.bound_asymptotic, base))
    write_csv(
        args.output,
        cfg,
        ("delta", "runtime_cap", "mean_overlap", "stderr", "bound", "baseline_overlap"),
        rows,
    )
    return 0


def cmd_circuit(args) -> int:
    cfg = _experiment_from_args(args, "circuit")
    ham = build_system(cfg.system)
    eps_schedule = parse_epsilon(cfg.eps, ham)
    eps = eps_schedule.base
    weights = instrument.term_weights(ham, cfg.weighting)
    from .circuits import export_qasm, full_sweep_circuit, measurement_circuit

    if args.full_sweep:
        circ = full_sweep_circuit(ham, eps, weights)
    else:
        idx = args.term_index
        if not 0 <= idx < ham.num_terms:
            raise ConfigError(f"term index {idx} out of range (m={ham.num_terms})")
        circ = measurement_circuit(ham.terms[idx], eps, weights[idx])
    text = export_qasm(circ)
    fh, close = _open_output(args.output)
    try:
        fh.write(f"// config_hash: {cfg.hash()}\n")
        fh.write(text)
    finally:
        if close:
            fh.close()
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _noise_from_args(args):
    p1 = getattr(args, "noise_p1", None)
    p2 = getattr(args, "noise_p2", None)
    if p1 is None and p2 is None:
        return None
    return noise.DepolarizingPerGate(p1 or 0.0, p2 or 0.0)


def _read_config_file(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file: invalid JSON: {exc}") from exc


def _system_from_args(args, file_cfg: dict) -> dict:
    if getattr(args, "heisenberg", None) is not None:
        return {"builder": "heisenberg", "n": args.heisenberg, "periodic": bool(args.periodic)}
    if getattr(args, "maxsat_vars", None) is not None:
        clauses = [list(_parse_clause(c)) for c in (args.maxsat_clause or [])]
        if not clauses:
            raise ConfigError("maxsat system needs at least one --maxsat-clause")
        clauses = [[list(sub), bits] for sub, bits in clauses]
        return {"builder": "maxsat", "num_vars": args.maxsat_vars, "clauses": clauses}
    if getattr(args, "hamiltonian", None):
        return {"builder": "file", "path": args.hamiltonian}
    if "system" in file_cfg:
        return file_cfg["system"]
    raise ConfigError("no system given: use --heisenberg/--maxsat-vars/--hamiltonian or a config file")


_AGSP_CLI = {
    "linear": "linear-global",
    "chebyshev": "chebyshev-global",
    "product": "product-sweep",
    "mixture": "mixture-random",
}


def _experiment_from_args(args, command: str) -> ExperimentConfig:
    file_cfg = _read_config_file(args)

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return file_cfg.get(name, default)

    mode = pick("agsp", "product")
    if mode not in _AGSP_CLI:
        raise ConfigError(f"agsp must be one of {sorted(_AGSP_CLI)}, got {mode!r}")
    return ExperimentConfig(
        command=command,
        system=_system_from_args(args, file_cfg),
        agsp_mode=_AGSP_CLI[mode],
        eps=str(pick("eps", "0.2")),
        resampler=pick("resampler", "global"),
        stopping_rule=pick("stopping", "run-of-zeros:4"),
        time_cap=pick("time_cap", None),
        trajectories=int(pick("trajectories", 1000)),
        seed=int(pick("seed", 0)),
        weighting=pick("weighting", "max"),
        cheb_degree=int(pick("cheb_degree", 2)),
        max_steps=int(pick("max_steps", 1_000_000)),
        workers=int(pick("workers", os.cpu_count() or 1)),
    )


def _parse_int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(x) for x in text]
    out = []
    for tok in str(text).split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, hi = tok.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif tok:
            out.append(int(tok))
    if not out:
        raise ConfigError(f"empty integer list {text!r}")
    return out


def _add_common(p: argparse.ArgumentParser, trajectories=False):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--heisenberg", type=int, metavar="N", help="Heisenberg chain of N qubits")
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--maxsat-vars", type=int, metavar="N")
    p.add_argument(
        "--maxsat-clause", action="append", metavar="VARS:BITS", help="e.g. 0,1:11 (repeatable)"
    )
    p.add_argument("--hamiltonian", metavar="FILE", help="Hamiltonian JSON file")
    p.add_argument("--agsp", choices=sorted(_AGSP_CLI), default=None)
    p.add_argument("--eps", default=None, help="float | decaying:FLOAT | auto")
    p.add_argument("--resampler", choices=("global", "local", "identity"), default=None)
    p.add_argument("--stopping", default=None, help="run-of-zeros:N | secretary:T | expected-rank:T")
    p.add_argument("--time-cap", dest="time_cap", type=int, default=None)
    p.add_argument("--weighting", choices=("max", "sum"), default=None)
    p.add_argument("--cheb-degree", dest="cheb_degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", "-o", default=None, help="output file ('-' = stdout)")
    if trajectories:
        p.add_argument("--trajectories", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqe", description="dissipative ground state preparation workbench"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("spectrum", help="exact spectral summary of a system")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("run", help="single trajectory with per-step series")
    _add_common(p)
    p.add_argument("--noise-p1", type=float, default=None)
    p.add_argument("--noise-p2", type=float, default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("ensemble", help="trajectory ensemble with oracle z-scores")
    _add_common(p, trajectories=True)
    p.add_argument("--noise-p1", type=float, default=None)
    p.add_argument("--noise-p2", type=float, default=None)
    p.set_defaults(fn=cmd_ensemble)

    p = sub.add_parser("analytics", help="exact overlap / run-time vs run length")
    _add_common(p)
    p.add_argument("--n-values", default="1..8", help="run lengths, e.g. 1..8 or 2,4,6")
    p.set_defaults(fn=cmd_analytics)

    p = sub.add_parser("fixed-point", help="closed-form vs iterated fixed point")
    _add_common(p)
    p.add_argument("--scale", type=float, default=None, help="scale factor on the AGSP")
    p.set_defaults(fn=cmd_fixed_point)

    p = sub.add_parser("compare-resampling", help="exact E(tau): local vs global")
    _add_common(p)
    p.add_argument("--sizes", default="2..5")
    p.add_argument("--n-zeros", dest="n_zeros", type=int, default=8)
    p.set_defaults(fn=cmd_compare_resampling)

    p = sub.add_parser("noise-sweep", help="overlap vs run-time cap under gate noise")
    _add_common(p, trajectories=True)
    p.add_argument("--rates", default="1e-4", help="comma-separated depolarizing rates")
    p.add_argument("--runtimes", default="100,200,400")
    p.set_defaults(fn=cmd_noise_sweep)

    p = sub.add_parser("circuit", help="QASM export of measurement circuits")
    _add_common(p)
    p.add_argument("--term-index", type=int, default=0)
    p.add_argument("--full-sweep", action="store_true")
    p.set_defaults(fn=cmd_circuit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DqeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
