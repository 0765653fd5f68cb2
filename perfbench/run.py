#!/usr/bin/env python3
"""dqe benchmark: drives the ``dqe`` CLI in-process and prints its metrics.

    python3 perfbench/run.py --workload ensemble-h4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload: it repeats the workload's CLI command, each time
with ``--workers 1`` and a seed derived from ``--seed``, until ``--seconds``
have passed, and checks every output.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of BENCHMARK.json.  Report
lines start with '#'; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import KERNEL_PASSES, Tracer, layer_probes, patched, phase_probes
from workloads import WORKLOADS, parse_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_dqe():
    """The checkout's own ``dqe``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "dqe" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dqe package under {src}")
    sys.path.insert(0, str(src))
    import dqe
    import dqe.analytics
    import dqe.cli
    import dqe.noise
    import dqe.trajectory

    if Path(dqe.__file__).resolve().parent != (src / "dqe").resolve():
        sys.exit(f"perfbench: imported dqe from {dqe.__file__}, not {src}")
    return dqe


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"] + " " + str(deps["blas"].get("version", ""))
    except (TypeError, KeyError):
        return "unknown"


def machine_block(dqe) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "using_numba": bool(dqe._kernels.USING_NUMBA),
        "loadavg": os.getloadavg(),
    }


class Invocation:
    """One CLI call: its timings, probe counters and checked output."""

    def __init__(self, dqe, workload, seed: int, traced: bool):
        self.seed = seed
        self.tracer = tracer = Tracer()
        probes = (layer_probes if traced else phase_probes)(tracer, dqe)
        argv = workload.argv(seed)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with patched(probes), contextlib.redirect_stdout(out):
                code = tracer.root(dqe.cli.main, argv)
            self.config_hash, _, self.rows, self.comments = parse_csv(out.getvalue())
            if code != 0:
                raise RuntimeError(f"dqe {' '.join(argv)} exited with code {code}")
            failed = workload.check(self.rows, self.comments)
            failed += int(tracer.counters.get("nonfinite", 0))
            if not workload.truncation_expected:
                failed += int(tracer.counters.get("truncated", 0))
        except Exception:  # any failure of the program is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.config_hash, self.rows, self.comments = None, [], []
            failed = workload.ops()
        self.wall = time.perf_counter() - t0
        self.attempted = workload.ops()
        self.failed = min(failed, self.attempted)
        self.setup = tracer.total("trajectory.engine_build")
        self.sample = tracer.total("trajectory.run_trajectory")
        self.sweeps = tracer.counters.get("sweeps", 0.0)
        self.micro = tracer.counters.get("micro", 0.0)

    def normalised_wall(self, nominal_sweeps: float) -> float:
        """Wall time with the sampling part scaled to the nominal sweep count.

        The number of sweeps a seed needs is heavy-tailed, so raw wall time
        mostly measures the seed; the time per sweep does not.
        """
        if self.sweeps == 0:
            return self.wall
        return self.wall - self.sample + self.sample * nominal_sweeps / self.sweeps

    def report(self) -> str:
        return (
            f"# invocation seed={self.seed} config_hash={self.config_hash} wall_s={self.wall:.6f} "
            f"setup_s={self.setup:.6f} sample_s={self.sample:.6f} sweeps={self.sweeps:.0f} "
            f"attempted={self.attempted} failed={self.failed}"
        )


def run_loop(seconds: float, step):
    """Call ``step(i)`` until ``seconds`` have passed; always at least once."""
    start = time.perf_counter()
    results = [step(0)]
    while time.perf_counter() - start < seconds:
        results.append(step(len(results)))
    return results


# Set-up samples per run.  A run with fewer calls than this rebuilds the
# engines of its first call, in the same order, until it has them.
SETUP_SAMPLES = 7


def setup_samples(dqe, runs: list[Invocation]) -> list[float]:
    samples = [r.setup for r in runs]
    configs = runs[0].tracer.built_configs
    while configs and len(samples) < SETUP_SAMPLES:
        t0 = time.perf_counter()
        for cfg in configs:
            dqe.trajectory.TrajectoryEngine(cfg)
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(dqe, workload, runs: list[Invocation]) -> dict:
    nominal = workload.nominal_sweeps()
    setups = setup_samples(dqe, runs)
    print("# setup_samples " + " ".join(f"{x:.6f}" for x in setups))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(r.normalised_wall(nominal) for r in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(pairs) -> dict:
    """Per-invocation means over the traced runs of (untraced, traced) pairs."""
    traced = [t for _, t in pairs]

    def mean(fn):
        return statistics.fmean(fn(inv.tracer) for inv in traced)

    def calls(name):
        return mean(lambda t: t.calls(name))

    def secs(name):
        return mean(lambda t: t.total(name))

    def counter(name):
        return mean(lambda t: t.counters.get(name, 0.0))

    untraced_micro = sum(u.micro for u, _ in pairs)
    m = {
        "trajectory.sample_s": (secs("trajectory.run_trajectory"), "s"),
        "trajectory.self_s": (mean(lambda t: t.self_time("trajectory.run_trajectory")), "s"),
        "trajectory.sweeps": (counter("sweeps"), "count"),
        "trajectory.micro": (counter("micro"), "count"),
        "trajectory.us_per_micro": (
            1e6 * sum(u.sample for u, _ in pairs) / untraced_micro if untraced_micro else 0.0, "us"),
        "trajectory.engine_builds": (calls("trajectory.engine_build"), "count"),
        "trajectory.engine_build_s": (secs("trajectory.engine_build"), "s"),
    }
    for k in KERNEL_PASSES:
        m[f"kernels.{k}_calls"] = (calls(f"_kernels.{k}"), "count")
        m[f"kernels.{k}_s"] = (secs(f"_kernels.{k}"), "s")
    m["kernels.bytes"] = (
        mean(lambda t: sum(16 * t.counters.get("dim", 0) * p * t.calls(f"_kernels.{k}")
                           for k, p in KERNEL_PASSES.items())),
        "B",
    )
    tomography = sum(t.tracer.calls("noise.tomography") for t in traced)
    distinct = sum(t.tracer.counters.get("tomography_distinct", 0.0) for t in traced)
    m.update({
        "stopping.should_stop_calls": (calls("stopping.should_stop"), "count"),
        "stopping.should_stop_s": (secs("stopping.should_stop"), "s"),
        "instrument.sweep_transfer_calls": (calls("instrument.sweep_transfer"), "count"),
        "instrument.sweep_transfer_s": (secs("instrument.sweep_transfer"), "s"),
        "instrument.transfer_bytes": (counter("transfer_bytes"), "B"),
        "analytics.geometric_sums_s": (secs("analytics.geometric_sums"), "s"),
        "analytics.solve_calls": (calls("analytics.lu_solve"), "count"),
        "analytics.solve_s": (secs("analytics.lu_factor") + secs("analytics.lu_solve"), "s"),
        "agsp.verify_s": (secs("agsp.verify_agsp"), "s"),
        "noise.tomography_calls": (calls("noise.tomography"), "count"),
        "noise.tomography_s": (secs("noise.tomography"), "s"),
        "noise.tomography_useful_ratio": (distinct / tomography if tomography else 0.0, "1"),
        "noise.noisy_transfer_s": (secs("noise.noisy_transfer"), "s"),
        "noise.free_decay_s": (secs("noise.free_decay"), "s"),
        "circuits.measurement_circuit_s": (secs("circuits.measurement_circuit"), "s"),
        "circuits.gate_unitary_s": (secs("circuits.gate_unitary"), "s"),
        "pauli.diagonalize_calls": (calls("pauli.diagonalize"), "count"),
        "pauli.diagonalize_s": (secs("pauli.diagonalize"), "s"),
        "pauli.to_dense_s": (secs("pauli.to_dense"), "s"),
        "cli.overhead_s": (mean(lambda t: t.root_self_s), "s"),
        "trace.overhead_s": (statistics.median(t.wall - u.wall for u, t in pairs), "s"),
    })
    return m


def span_report(inv: Invocation) -> str:
    t = inv.tracer
    return "# spans " + json.dumps({
        "seed": inv.seed,
        "wall_s": t.root_s,
        "cli_overhead_s": t.root_self_s,
        "spans": {name: dict(zip(("calls", "total_s", "self_s", "top_s"), s)) for name, s in t.stats.items()},
    }, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    dqe = import_dqe()
    print("# machine " + json.dumps(machine_block(dqe), sort_keys=True))
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload](args.smoke)
    workload.prepare(dqe, reference)

    def seed_of(i):
        return args.seed * 1000 + i

    # One untimed call at smoke size first: BLAS thread start-up and
    # first-call costs would otherwise land on the first measured call.
    warm = WORKLOADS[args.workload](smoke=True)
    warm.prepare(dqe, reference)
    Invocation(dqe, warm, seed_of(999), False)

    if args.trace:
        def step(i):
            return (Invocation(dqe, workload, seed_of(i), False),
                    Invocation(dqe, workload, seed_of(i), True))

        pairs = run_loop(args.seconds, step)
        untraced = [u for u, _ in pairs]
        runs = [inv for pair in pairs for inv in pair]
        # tracing must not change results: a traced run differing from its twin fails
        failed_extra = sum(u.rows != t.rows for u, t in pairs)
        for u, t in pairs:
            print(u.report())
            print(t.report())
            print(span_report(t))
        metrics = per_layer(pairs)
    else:
        untraced = runs = run_loop(args.seconds, lambda i: Invocation(dqe, workload, seed_of(i), False))
        failed_extra = 0
        for inv in runs:
            print(inv.report())
        metrics = end_to_end(dqe, workload, runs)
    failed_extra += workload.finish([inv.rows for inv in untraced])
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} = {value!r} {unit}")

    attempted = sum(r.attempted for r in runs)
    failed = min(sum(r.failed for r in runs) + failed_extra, attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
