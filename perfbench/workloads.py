"""The benchmark's workloads: the CLI argument lists and their output checks.

Each workload is one ``dqe`` CLI command at a fixed size.  ``argv`` gets
the per-invocation seed from the benchmark.  ``check`` verifies one
invocation's CSV rows and footer and returns how many of its ``ops()``
operations failed; an operation is a trajectory or an oracle evaluation.
``finish`` runs the checks that pool every invocation of a run.  Checks are
statistical where the output is sampled.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
# Pooled |z| of the sampled mean stopping time against the exact oracle;
# tau is heavy-tailed, so the stderr is only trusted over enough trajectories.
Z_TAU_LIMIT = 5.0
Z_MIN_TRAJECTORIES = 30


def parse_csv(text: str):
    """(config_hash, columns, rows, comments) of a CLI CSV written to stdout.

    The ensemble command also prints its footer lines after the CSV; they
    carry no commas and so never parse as rows.
    """
    config_hash, columns, rows, comments = None, None, [], []
    for line in text.splitlines():
        if line.startswith("# config_hash:"):
            config_hash = line.split(":", 1)[1].strip()
        elif line.startswith("#"):
            comments.append(line[1:].strip())
        elif columns is None and "," in line:
            columns = line.split(",")
        elif columns is not None and line.count(",") == len(columns) - 1:
            rows.append([float(v) for v in line.split(",")])
    return config_hash, columns, rows, comments


def _footer(comments, key):
    """'oracle_tau 612.6 z 1.06' -> 612.6, or NaN when the line is missing."""
    for c in comments:
        parts = c.split()
        if parts and parts[0] == key:
            return float(parts[1])
    return math.nan


def _rel_close(a: float, b: float, rtol: float = TOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(b), 1e-300)


class Workload:
    """Shared plumbing: size selection, argument list, reference values."""

    name = ""
    # A truncated run (the stopping rule never fired) is a failure unless
    # the rule itself caps the run length.
    truncation_expected = False

    SIZES: dict = {}

    def __init__(self, smoke: bool):
        self.size = "smoke" if smoke else "full"
        self.p = self.SIZES[self.size]

    def nominal_sweeps(self) -> float:
        """Sweeps the sampled part of one call is scaled to (see run.py)."""
        return self.p.get("nominal_sweeps", 0)

    def argv(self, seed: int) -> list[str]:
        return self.base_argv() + ["--workers", "1", "--seed", str(seed), "-o", "-"]

    def prepare(self, dqe, reference: dict):
        self.ref = reference.get(self.name, {}).get(self.size, {})

    def finish(self, row_lists) -> int:
        return 0


class EnsembleH4(Workload):
    """Clean local-resampling ensemble plus the CLI's exact-oracle z-scores."""

    name = "ensemble-h4"
    SIZES = {
        "full": {"n": 4, "trajectories": 12, "nominal_sweeps": 7350},
        "smoke": {"n": 3, "trajectories": 2, "nominal_sweeps": 210},
    }

    def base_argv(self):
        return ["ensemble", "--heisenberg", str(self.p["n"]), "--agsp", "product",
                "--resampler", "local", "--eps", "0.2", "--stopping", "run-of-zeros:4",
                "--trajectories", str(self.p["trajectories"])]

    def check(self, rows, comments):
        failed = 0
        for r in rows:
            _, _, run_len, energy, overlap = r
            if not (run_len == 4 and math.isfinite(energy) and -TOL <= overlap <= 1 + TOL):
                failed += 1
        failed += abs(self.p["trajectories"] - len(rows))
        ok = (
            _rel_close(_footer(comments, "oracle_tau"), self.ref["oracle_tau"])
            and _rel_close(_footer(comments, "oracle_overlap"), self.ref["oracle_overlap"])
        )
        return failed + (not ok)

    def ops(self):
        return self.p["trajectories"] + 1

    def finish(self, row_lists):
        taus = np.array([r[1] for rows in row_lists for r in rows])
        if taus.size < Z_MIN_TRAJECTORIES:
            return 0
        z = (taus.mean() - self.ref["oracle_tau"]) / (taus.std(ddof=1) / math.sqrt(taus.size))
        print(f"# check pooled tau z = {z:.3f} over {taus.size} trajectories (limit {Z_TAU_LIMIT})")
        return int(not abs(z) <= Z_TAU_LIMIT)


class AnalyticsH5(Workload):
    """Exact overlap and stopping-time table from dense transfer matrices."""

    name = "analytics-h5"
    SIZES = {"full": {"n": 5, "n_values": "1..4"}, "smoke": {"n": 3, "n_values": "1..4"}}

    def base_argv(self):
        return ["analytics", "--heisenberg", str(self.p["n"]), "--agsp", "product",
                "--resampler", "local", "--eps", "0.2", "--n-values", self.p["n_values"]]

    def check(self, rows, comments):
        expected = self.ref["rows"]
        failed = abs(len(expected) - len(rows))
        for r, ref in zip(rows, expected):
            n, overlap, tau, lower, upper = r
            ok = (
                n == ref[0]
                and all(_rel_close(a, b) for a, b in zip(r[1:], ref[1:]))
                and overlap >= lower - TOL
                and tau <= upper * (1 + TOL)
            )
            failed += not ok
        return failed

    def ops(self):
        return len(self.ref["rows"])


class NoiseH5(Workload):
    """Gate-noise resilience sweep: noisy Kraus branches, secretary rule."""

    name = "noise-h5"
    truncation_expected = True
    SIZES = {
        "full": {"n": 5, "trajectories": 4, "runtimes": [600, 2400], "nominal_sweeps": 7500},
        "smoke": {"n": 3, "trajectories": 2, "runtimes": [60, 240], "nominal_sweeps": 400},
    }

    def base_argv(self):
        return ["noise-sweep", "--heisenberg", str(self.p["n"]), "--eps", "0.4",
                "--rates", "1e-4", "--runtimes", ",".join(map(str, self.p["runtimes"])),
                "--trajectories", str(self.p["trajectories"])]

    def prepare(self, dqe, reference):
        super().prepare(dqe, reference)
        spec = dqe.pauli.diagonalize(dqe.pauli.build_heisenberg_chain(self.p["n"]))
        self.floor = spec.degeneracy / spec.dimension

    def check(self, rows, comments):
        k = self.p["trajectories"]
        caps = self.p["runtimes"]
        failed = k * abs(len(caps) - len(rows))
        for r, cap in zip(rows, caps):
            _, runtime, overlap, _, _, baseline = r
            if not (runtime == cap and self.floor - TOL <= overlap <= 1 + TOL and 0 < baseline <= 1):
                failed += k
        base = [r[5] for r in rows]
        oracle_ok = (
            len(rows) == len(caps)
            and all(math.isfinite(r[0]) and math.isfinite(r[4]) for r in rows)
            and all(a > b for a, b in zip(base, base[1:]))
        )
        return failed + (not oracle_ok)

    def ops(self):
        return self.p["trajectories"] * len(self.p["runtimes"]) + 1


class EnsembleH10(Workload):
    """Ten-qubit ensemble under the expected-rank rule; no exact oracle."""

    name = "ensemble-h10"
    SIZES = {
        "full": {"n": 10, "trajectories": 1, "nominal_sweeps": 2000},
        "smoke": {"n": 3, "trajectories": 2, "nominal_sweeps": 60},
    }

    def base_argv(self):
        return ["ensemble", "--heisenberg", str(self.p["n"]), "--agsp", "product",
                "--resampler", "local", "--eps", "0.2", "--stopping", "expected-rank:40",
                "--trajectories", str(self.p["trajectories"])]

    def prepare(self, dqe, reference):
        super().prepare(dqe, reference)
        import scipy.sparse.linalg

        h = dqe.pauli.to_dense(dqe.pauli.build_heisenberg_chain(self.p["n"]))
        self.lambda0 = float(scipy.sparse.linalg.eigsh(h, k=1, which="SA")[0][0])

    def check(self, rows, comments):
        failed = abs(self.p["trajectories"] - len(rows))
        for r in rows:
            _, _, _, energy, overlap = r
            if not (energy >= self.lambda0 - TOL and -TOL <= overlap <= 1 + TOL):
                failed += 1
        return failed

    def ops(self):
        return self.p["trajectories"]


WORKLOADS = {w.name: w for w in (EnsembleH4, AnalyticsH5, NoiseH5, EnsembleH10)}
