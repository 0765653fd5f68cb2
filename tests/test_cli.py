import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dqe import cli


def run_cli(argv):
    return cli.main(argv)


class TestSpectrum:
    def test_heisenberg_values(self, capsys):
        assert run_cli(["spectrum", "--heisenberg", "2"]) == 0
        out = capsys.readouterr().out
        assert "lambda0:     -3.0" in out
        assert "gap:         4.0" in out
        assert "suggested_eps: 0.0625" in out

    def test_maxsat(self, capsys):
        code = run_cli(
            ["spectrum", "--maxsat-vars", "2", "--maxsat-clause", "0,1:11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda0:     0.0" in out
        assert "degeneracy:  3" in out

    def test_heisenberg_11_doublet(self, capsys):
        # D = 2048 by blocks: the ground doublet spans the two Sz = +-1/2 sectors
        import scipy.sparse
        import scipy.sparse.linalg

        from dqe import pauli

        assert run_cli(["spectrum", "--heisenberg", "11"]) == 0
        fields = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
        h = scipy.sparse.csr_matrix(pauli.to_dense(pauli.build_heisenberg_chain(11)))
        lam0 = scipy.sparse.linalg.eigsh(h, k=1, which="SA", return_eigenvectors=False)[0]
        assert abs(float(fields["lambda0"]) - lam0) <= 1e-9
        assert int(fields["degeneracy"]) == 2

    def test_resource_limit_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("DQE_DENSE_LIMIT", "3")
        assert run_cli(["spectrum", "--heisenberg", "4"]) == 3

    def test_config_error_exit_code(self, capsys):
        assert run_cli(["spectrum", "--maxsat-vars", "2", "--maxsat-clause", "junk"]) == 2
        assert run_cli(["ensemble", "--heisenberg", "2", "--stopping", "bogus:1"]) == 2

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run_cli(["spectrum", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid JSON" in err

    def test_hamiltonian_file_input(self, tmp_path, capsys):
        from dqe import pauli

        path = tmp_path / "ham.json"
        path.write_text(pauli.hamiltonian_to_json(pauli.build_heisenberg_chain(2)))
        assert run_cli(["spectrum", "--hamiltonian", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lambda0:     -3.0" in out
        bad = tmp_path / "bad.json"
        bad.write_text('{"num_qubits": 2, "terms": [{"coeff": "x", "paulis": "XX"}]}')
        assert run_cli(["spectrum", "--hamiltonian", str(bad)]) == 2
        assert "terms[0]" in capsys.readouterr().err


class TestReproducibility:
    def test_ensemble_bytes_identical(self, tmp_path, capsys):
        args = [
            "ensemble",
            "--heisenberg", "2",
            "--agsp", "linear",
            "--eps", "0.5",
            "--stopping", "run-of-zeros:2",
            "--trajectories", "60",
            "--seed", "9",
        ]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["-o", str(f1)]) == 0
        assert run_cli(args + ["-o", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_header_carries_config_hash(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert (
            run_cli(
                [
                    "run",
                    "--heisenberg", "2",
                    "--agsp", "linear",
                    "--eps", "0.5",
                    "--stopping", "run-of-zeros:2",
                    "--seed", "4",
                    "-o", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# dqe ")
        assert lines[1].startswith("# config_hash: ")
        cfg = json.loads(lines[2].split("# config: ", 1)[1])
        assert cfg["seed"] == 4
        assert lines[3] == "step,outcome,energy,overlap"


class TestConfigHash:
    @staticmethod
    def _hash(capsys, argv):
        assert run_cli(["spectrum"] + argv) == 0
        out = capsys.readouterr().out
        return out.split("config_hash: ", 1)[1].split()[0]

    def test_worker_count_not_hashed(self, capsys):
        one = self._hash(capsys, ["--heisenberg", "2", "--workers", "1"])
        two = self._hash(capsys, ["--heisenberg", "2", "--workers", "2"])
        assert one == two

    def test_hamiltonian_file_hashed_by_content(self, tmp_path, capsys):
        text = json.dumps(
            {"num_qubits": 2, "terms": [{"coeff": 1.0, "paulis": "XX"}, {"coeff": 0.5, "paulis": "ZZ"}]}
        )
        (tmp_path / "sub").mkdir()
        paths = [tmp_path / "a.json", tmp_path / "sub" / "b.json"]
        for path in paths:
            path.write_text(text)
        hashes = [self._hash(capsys, ["--hamiltonian", str(path)]) for path in paths]
        assert hashes[0] == hashes[1]
        other = tmp_path / "c.json"
        other.write_text(text.replace("0.5", "0.25"))
        assert self._hash(capsys, ["--hamiltonian", str(other)]) != hashes[0]

    @staticmethod
    def _config(argv):
        return cli._experiment_from_args(cli.build_parser().parse_args(argv), argv[0])

    def test_hash_without_command_arguments_pinned(self, capsys):
        # spectrum has no arguments of its own, and a clean ensemble gives none
        assert self._hash(capsys, ["--heisenberg", "2"]) == "8451c41419210472"
        argv = ["ensemble", "--heisenberg", "2", "--trajectories", "20", "--stopping", "secretary:50"]
        assert self._config(argv).extra is None
        assert self._config(argv).hash() == "281e9b5d57d369c1"

    def test_defaulted_command_arguments_pinned(self):
        # a subcommand's own arguments enter the hash at their defaults too
        config = self._config(["analytics", "--heisenberg", "2"])
        assert config.extra == {"n_values": "1..8"}
        assert config.hash() == "e54958c7e4835a5c"
        config = self._config(["analytics", "--heisenberg", "2", "--n-values", "1..3"])
        assert config.extra == {"n_values": "1..3"}
        assert config.hash() == "a004a9bd61e2de20"

    @pytest.mark.parametrize(
        "argv,flags",
        [
            (["run", "--heisenberg", "2"], ["--noise-p1", "0.05", "--noise-p2", "0.05"]),
            (["ensemble", "--heisenberg", "2"], ["--noise-p2", "0.05"]),
            (["analytics", "--heisenberg", "2", "--n-values", "1..2"], ["--n-values", "1..3"]),
            (["fixed-point", "--heisenberg", "2"], ["--scale", "0.9"]),
            (["compare-resampling", "--heisenberg", "2"], ["--sizes", "2..4"]),
            (["compare-resampling", "--heisenberg", "2"], ["--n-zeros", "3"]),
            (["noise-sweep", "--heisenberg", "2"], ["--rates", "1e-3"]),
            (["noise-sweep", "--heisenberg", "2"], ["--runtimes", "10"]),
            (["circuit", "--heisenberg", "2"], ["--term-index", "1"]),
            (["circuit", "--heisenberg", "2"], ["--full-sweep"]),
        ],
    )
    def test_command_arguments_hashed(self, argv, flags):
        base, changed = self._config(argv), self._config(argv + flags)
        assert base.hash() != changed.hash()
        name = flags[0][2:].replace("-", "_")
        assert changed.to_dict()["extra"][name] == getattr(cli.build_parser().parse_args(argv + flags), name)

    def test_printed_config_keeps_workers_and_path(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"num_qubits": 1, "terms": [{"coeff": 1.0, "paulis": "Z"}]}))
        out = tmp_path / "run.csv"
        argv = ["run", "--hamiltonian", str(path), "--workers", "3", "--seed", "1", "-o", str(out)]
        assert run_cli(argv) == 0
        capsys.readouterr()
        cfg = json.loads(out.read_text().splitlines()[2].split("# config: ", 1)[1])
        assert cfg["workers"] == 3
        assert cfg["system"] == {"builder": "file", "path": str(path)}


class TestEnsembleOracle:
    def test_z_scores_reported_and_small(self, tmp_path, capsys):
        out = tmp_path / "ens.csv"
        code = run_cli(
            [
                "ensemble",
                "--heisenberg", "3",
                "--agsp", "product",
                "--eps", "0.2",
                "--resampler", "local",
                "--stopping", "run-of-zeros:3",
                "--trajectories", "800",
                "--seed", "12",
                "-o", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        zs = [
            abs(float(line.rsplit(" ", 1)[1]))
            for line in text.splitlines()
            if line.startswith("oracle_")
        ]
        assert len(zs) == 2
        assert all(z <= 4.0 for z in zs)


    def test_one_engine_for_trajectories_and_footer(self, monkeypatch, capsys):
        from dqe import trajectory

        builds = []
        init = trajectory.TrajectoryEngine.__init__

        def counting(self, cfg, *args):
            builds.append(cfg)
            init(self, cfg, *args)

        monkeypatch.setattr(trajectory.TrajectoryEngine, "__init__", counting)
        argv = ["ensemble", "--heisenberg", "2", "--agsp", "product", "--eps", "0.2",
                "--stopping", "run-of-zeros:2", "--trajectories", "5", "--workers", "1",
                "-o", "-"]
        assert run_cli(argv) == 0
        assert "oracle_tau" in capsys.readouterr().out
        assert len(builds) == 1


    def test_global_mode_footer_past_six_qubits(self, capsys):
        # a global mode's oracle is the uncapped population chain, so the
        # footer is printed past the local modes' transfer cap
        flags = ["--heisenberg", "7", "--agsp", "linear", "--eps", "0.9", "-o", "-"]
        ens = ["ensemble", "--stopping", "run-of-zeros:2", "--trajectories", "2", "--workers", "1"]
        assert run_cli(ens + flags) == 0
        footer = {l.split()[0]: float(l.split()[1]) for l in capsys.readouterr().out.splitlines()
                  if l.startswith(("oracle_", "exact_"))}
        assert run_cli(["analytics", "--n-values", "2"] + flags) == 0
        lines = capsys.readouterr().out.splitlines()
        n, overlap, tau = (float(x) for x in lines[4].split(",")[:3])
        (rcond,) = [float(l.split()[2]) for l in lines if l.startswith("# exact_rcond_min ")]
        assert n == 2
        assert footer["oracle_overlap"] == pytest.approx(overlap, rel=1e-12, abs=0)
        assert footer["oracle_tau"] == pytest.approx(tau, rel=1e-12, abs=0)
        assert footer["exact_rcond"] == pytest.approx(rcond, rel=1e-12, abs=0)
        assert 0.0 < rcond <= 1.0


class TestAnalyticsCommand:
    def test_rows_and_bounds(self, tmp_path, capsys):
        out = tmp_path / "an.csv"
        code = run_cli(
            [
                "analytics",
                "--heisenberg", "2",
                "--agsp", "product",
                "--eps", "0.2",
                "--resampler", "local",
                "--n-values", "1,2,3",
                "-o", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert rows[0] == "n,exact_overlap,exact_tau,overlap_lower_bound,tau_upper_bound"
        data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
        assert data.shape == (3, 5)
        assert np.all(data[:, 1] >= data[:, 3] - 1e-9)  # exact >= lower bound
        assert np.all(data[:, 2] <= data[:, 4] + 1e-9)  # exact <= upper bound
        (defect,) = [
            float(l.split()[2])
            for l in out.read_text().splitlines()
            if l.startswith("# exact_trace_defect_max ")
        ]
        assert 0.0 <= defect <= 1e-8

    # the oracle reads no stopping rule and no sweep cap, so a flag or a
    # config-file field that would only change the header is refused
    @pytest.mark.parametrize(
        "flags",
        [["--stopping", "secretary:9"], ["--time-cap", "5"], ["--max-steps", "5"]],
        ids=["stopping", "time-cap", "max-steps"],
    )
    def test_ignored_flags_refused(self, flags, capsys):
        argv = ["analytics", "--heisenberg", "2", "--n-values", "1..2", "--seed", "1", "--workers", "1"]
        assert run_cli(argv + ["-o", "-"]) == 0
        capsys.readouterr()
        assert run_cli(argv + flags + ["-o", "-"]) == 2
        assert "analytics does not read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [{"stopping_rule": "secretary:9"}, {"time_cap": 5}, {"max_steps": 5}],
        ids=["stopping", "time-cap", "max-steps"],
    )
    def test_ignored_fields_from_config_file_refused(self, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, **field}))
        assert run_cli(["analytics", "--config", str(path), "--n-values", "1..2", "-o", "-"]) == 2
        assert "analytics does not read" in capsys.readouterr().err


    def test_global_mode_past_six_qubits(self, capsys):
        # the population chain has no transfer-matrix cap
        assert run_cli(["analytics", "--heisenberg", "7", "--agsp", "linear", "--n-values", "1..3", "-o", "-"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 4


class TestCompareResampling:
    ARGV = ["compare-resampling", "--heisenberg", "2", "--eps", "0.2", "--sizes", "2..3", "--n-zeros", "2"]

    # both columns are product sweeps of open chains under fixed resamplers,
    # so a flag that would only change the header and the hash is refused
    @pytest.mark.parametrize(
        "flags",
        [["--agsp", "linear"], ["--resampler", "identity"], ["--cheb-degree", "5"],
         ["--stopping", "secretary:9"], ["--time-cap", "5"], ["--max-steps", "5"], ["--periodic"]],
        ids=["agsp", "resampler", "cheb-degree", "stopping", "time-cap", "max-steps", "periodic"],
    )
    def test_unread_flags_refused(self, flags, capsys):
        assert run_cli(self.ARGV + ["--agsp", "product", "--seed", "1", "--workers", "1", "-o", "-"]) == 0
        capsys.readouterr()
        assert run_cli(self.ARGV + flags + ["-o", "-"]) == 2
        assert "compare-resampling" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [{"agsp_mode": "mixture-random"}, {"resampler": "local"}, {"cheb_degree": 3},
         {"stopping_rule": "secretary:9"}, {"time_cap": 5}, {"max_steps": 5},
         {"system": {"builder": "heisenberg", "n": 2, "periodic": True}}],
        ids=["agsp", "resampler", "cheb-degree", "stopping", "time-cap", "max-steps", "periodic"],
    )
    def test_unread_fields_from_config_file_refused(self, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, **field}))
        argv = ["compare-resampling", "--config", str(path), "--sizes", "2..3", "--n-zeros", "2", "-o", "-"]
        assert run_cli(argv) == 2
        assert "compare-resampling" in capsys.readouterr().err

    def test_ordering_and_slopes(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run_cli(
            [
                "compare-resampling",
                "--heisenberg", "2",
                "--eps", "0.2",
                "--sizes", "2..3",
                "--n-zeros", "4",
                "-o", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        data = np.array([[float(x) for x in r.split(",")] for r in body[1:]])
        assert np.all(data[:, 2] <= data[:, 1] + 1e-9)


class TestEpsSpecs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["noise-sweep", "--heisenberg", "2", "--rates", "1e-4", "--runtimes", "20",
             "--trajectories", "2", "--workers", "1"],
            ["compare-resampling", "--heisenberg", "2", "--sizes", "2..3", "--n-zeros", "2"],
            ["circuit", "--heisenberg", "2"],
        ],
        ids=["noise-sweep", "compare-resampling", "circuit"],
    )
    def test_auto_resolved_and_decaying_refused(self, argv, capsys):
        assert run_cli(argv + ["--eps", "auto", "-o", "-"]) == 0
        capsys.readouterr()
        assert run_cli(argv + ["--eps", "decaying:0.1"]) == 2
        assert "needs a constant eps schedule" in capsys.readouterr().err

    def test_unparsable_decaying_base_is_a_config_error(self, capsys):
        assert run_cli(["analytics", "--heisenberg", "2", "--eps", "decaying:x"]) == 2
        assert "cannot parse eps spec" in capsys.readouterr().err


class TestFixedPointCommand:
    def test_chebyshev_default_scale(self, capsys):
        code = run_cli(
            ["fixed-point", "--heisenberg", "2", "--agsp", "chebyshev", "--cheb-degree", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        dist = float(out.split("direct_vs_iterate_trace_distance: ")[1].splitlines()[0])
        assert dist <= 1e-8
        overlap = float(out.split("fixed_point_overlap: ")[1].splitlines()[0])
        bound = float(out.split("overlap_bound: ")[1].splitlines()[0])
        assert overlap >= bound - 1e-9

    def test_unset_agsp_runs_and_hashes_linear(self, capsys):
        assert run_cli(["fixed-point", "--heisenberg", "3"]) == 0
        out = capsys.readouterr().out
        assert "config_hash: b3f991dbb423537e" in out
        assert run_cli(["fixed-point", "--heisenberg", "3", "--agsp", "linear"]) == 0
        assert capsys.readouterr().out == out

    # the channel is the bare linear or chebyshev AGSP's under the global
    # resampler, so a flag that would only change the hash is refused
    @pytest.mark.parametrize(
        "flags",
        [["--agsp", "product"], ["--agsp", "mixture"], ["--eps", "0.3"], ["--resampler", "local"],
         ["--weighting", "sum"], ["--stopping", "secretary:9"], ["--time-cap", "5"], ["--max-steps", "5"]],
        ids=["product", "mixture", "eps", "resampler", "weighting", "stopping", "time-cap", "max-steps"],
    )
    def test_unread_flags_refused(self, flags, capsys):
        argv = ["fixed-point", "--heisenberg", "2", "--scale", "0.9", "--seed", "1", "--workers", "1"]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert run_cli(argv + flags) == 2
        assert "fixed-point" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field",
        [{"agsp_mode": "product-sweep"}, {"eps": "0.3"}, {"resampler": "identity"}, {"weighting": "sum"},
         {"max_steps": 5}],
        ids=["agsp", "eps", "resampler", "weighting", "max-steps"],
    )
    def test_unread_fields_from_config_file_refused(self, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, **field}))
        assert run_cli(["fixed-point", "--config", str(path), "--scale", "0.9"]) == 2
        assert "fixed-point" in capsys.readouterr().err

    def test_past_six_qubits(self, capsys):
        # the iterated channel is a chain on H's populations, with no cap
        assert run_cli(["fixed-point", "--heisenberg", "7"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("direct_vs_iterate_trace_distance: ")[1].splitlines()[0]) <= 1e-9

    def test_linear_needs_subunit_scale(self, capsys):
        # Heisenberg n=2 has Gamma = 1: the closed form needs a scale < 1
        assert run_cli(["fixed-point", "--heisenberg", "2", "--agsp", "linear"]) == 4
        assert (
            run_cli(
                ["fixed-point", "--heisenberg", "2", "--agsp", "linear", "--scale", "0.9"]
            )
            == 0
        )


class TestCircuitCommand:
    def test_single_term_qasm(self, capsys):
        code = run_cli(["circuit", "--heisenberg", "2", "--eps", "0.2", "--term-index", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OPENQASM 2.0;" in out
        assert "measure" in out
        from oracles import parse_qasm

        parse_qasm(out.split("// config_hash:")[0] + out.split("\n", 1)[1])

    def test_full_sweep(self, capsys):
        code = run_cli(["circuit", "--heisenberg", "3", "--eps", "0.2", "--full-sweep"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(1 for l in lines if l.startswith("measure")) == 6
        assert sum(1 for l in lines if l.startswith("reset")) == 6

    def test_term_index_range(self, capsys):
        assert run_cli(["circuit", "--heisenberg", "2", "--term-index", "7"]) == 2


class TestNoiseSweepCommand:
    def test_csv_shape(self, tmp_path, capsys):
        out = tmp_path / "noise.csv"
        code = run_cli(
            [
                "noise-sweep",
                "--heisenberg", "2",
                "--eps", "0.2",
                "--rates", "1e-4",
                "--runtimes", "20,40",
                "--trajectories", "20",
                "--seed", "3",
                "-o", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        body = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert body[0] == "delta,runtime_cap,mean_overlap,stderr,bound,baseline_overlap"
        assert len(body) == 3

    # the run is always a product sweep with global resampling and secretary
    # caps from --runtimes, so a flag that would change it is refused
    @pytest.mark.parametrize(
        "flags",
        [["--resampler", "local"], ["--agsp", "mixture"], ["--stopping", "secretary:9"],
         ["--time-cap", "5"], ["--max-steps", "5"]],
        ids=["resampler", "agsp", "stopping", "time-cap", "max-steps"],
    )
    def test_ignored_flags_refused(self, flags, capsys):
        argv = ["noise-sweep", "--heisenberg", "2", "--rates", "1e-4", "--runtimes", "20",
                "--trajectories", "2", "--workers", "1", "-o", "-"]
        assert run_cli(argv + flags) == 2
        assert "noise-sweep" in capsys.readouterr().err

    def test_stopping_rule_from_config_file_refused(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, "stopping_rule": "secretary:9"}))
        assert run_cli(["noise-sweep", "--config", str(path), "--runtimes", "20", "--trajectories", "2"]) == 2
        assert "noise-sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [{"time_cap": 5}, {"max_steps": 5}], ids=["time-cap", "max-steps"])
    def test_sweep_caps_from_config_file_refused(self, field, tmp_path, capsys):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, **field}))
        argv = ["noise-sweep", "--config", str(path), "--runtimes", "20", "--trajectories", "2", "--workers", "1"]
        assert run_cli(argv) == 2
        assert "noise-sweep does not read" in capsys.readouterr().err


class TestModelFlags:
    """Each subcommand takes exactly the model flags it reads; any other is
    refused, as a flag and as a config-file field, since it would only
    change the hash."""

    READS = {
        "spectrum": set(),
        "run": {"agsp", "eps", "resampler", "stopping", "time-cap", "max-steps", "weighting",
                "cheb-degree", "output"},
        "ensemble": {"agsp", "eps", "resampler", "stopping", "time-cap", "max-steps", "weighting",
                     "cheb-degree", "trajectories", "output"},
        "analytics": {"agsp", "eps", "resampler", "weighting", "cheb-degree", "output"},
        "fixed-point": {"agsp", "cheb-degree"},
        "compare-resampling": {"agsp", "eps", "weighting", "output"},
        "noise-sweep": {"eps", "weighting", "trajectories", "output"},
        "circuit": {"eps", "weighting", "output"},
    }
    # small runs of each command
    BASE = {
        "spectrum": [],
        "run": [],
        "ensemble": ["--trajectories", "2"],
        "analytics": ["--n-values", "1..2"],
        "fixed-point": ["--scale", "0.9"],
        "compare-resampling": ["--sizes", "2..3", "--n-zeros", "2"],
        "noise-sweep": ["--rates", "1e-4", "--runtimes", "20", "--trajectories", "2"],
        "circuit": [],
    }
    # a value off the default that every reading command runs with
    # (compare-resampling runs the product sweep only)
    VALUES = {"agsp": "linear", "eps": "0.3", "resampler": "local", "stopping": "run-of-zeros:2",
              "time-cap": 50, "max-steps": 50, "weighting": "sum", "cheb-degree": 3, "trajectories": 2,
              "output": "-"}
    FIELDS = {"agsp": "agsp_mode", "stopping": "stopping_rule"}

    @pytest.mark.parametrize(
        "flag,via",
        [(flag, via) for flag in VALUES for via in ("flag", "file") if (flag, via) != ("output", "file")],
    )
    def test_accepted_exactly_where_read(self, flag, via, tmp_path, capsys):
        path = tmp_path / "config.json"
        wrong = []
        for cmd, reads in self.READS.items():
            value = "product" if (cmd, flag) == ("compare-resampling", "agsp") else self.VALUES[flag]
            argv = [cmd, "--heisenberg", "2", "--workers", "1", *self.BASE[cmd]]
            if via == "flag":
                argv += ["-o" if flag == "output" else f"--{flag}", str(value)]
            else:
                path.write_text(json.dumps({self.FIELDS.get(flag, flag.replace("-", "_")): value}))
                argv += ["--config", str(path)]
            code = run_cli(argv)
            err = capsys.readouterr().err
            ok = code == 0 if flag in reads else code == 2 and f"{cmd} does not read" in err
            if not ok:
                wrong.append((cmd, code, err.strip()))
        assert wrong == []


class TestConfigReplay:
    """A CSV header's config, fed back through --config, replays the run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytics", "--heisenberg", "2", "--n-values", "1..3"],
            ["analytics", "--heisenberg", "2", "--agsp", "linear", "--eps", "0.3"],
            ["noise-sweep", "--heisenberg", "2", "--eps", "0.2", "--rates", "1e-3", "--runtimes", "20,40",
             "--trajectories", "10", "--seed", "3", "--weighting", "sum", "--workers", "1"],
        ],
    )
    def test_header_round_trip(self, tmp_path, capsys, argv):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli(argv + ["-o", str(first)]) == 0
        header = first.read_text().splitlines()[2].split("# config: ", 1)[1]
        (tmp_path / "config.json").write_text(header)
        assert run_cli([argv[0], "--config", str(tmp_path / "config.json"), "-o", str(second)]) == 0
        capsys.readouterr()
        assert second.read_text() == first.read_text()

    def test_flag_beats_file_beats_default(self, tmp_path):
        path = tmp_path / "config.json"
        system = {"builder": "heisenberg", "n": 2, "periodic": False}
        path.write_text(json.dumps({"system": system, "extra": {"n_values": "1..3"}}))
        parse = cli.build_parser().parse_args
        from_file = cli._experiment_from_args(parse(["analytics", "--config", str(path)]), "analytics")
        assert from_file.extra == {"n_values": "1..3"}
        flagged = parse(["analytics", "--config", str(path), "--n-values", "1..8"])
        assert cli._experiment_from_args(flagged, "analytics").extra == {"n_values": "1..8"}
        assert flagged.n_values == "1..8"
        path.write_text(json.dumps({"system": system}))
        defaulted = parse(["analytics", "--config", str(path)])
        assert cli._experiment_from_args(defaulted, "analytics").hash() == "e54958c7e4835a5c"
        assert defaulted.n_values == "1..8"

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("run", "time_cap", "50"),
            ("ensemble", "trajectories", "abc"),
            ("run", "seed", "7"),
            ("run", "max_steps", 2.5),
            ("run", "cheb_degree", "3"),
            ("run", "workers", True),
        ],
    )
    def test_non_integer_field_is_a_config_error(self, command, field, value, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"system": {"builder": "heisenberg", "n": 2}, field: value}))
        assert run_cli([command, "--config", str(path)]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err


class TestBrokenPipe:
    def test_closed_reader_exits_quietly(self):
        # ``dqe ... -o - | head`` once the reader has gone: no traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dqe", "analytics", "--heisenberg", "2", "--n-values", "1..3",
                 "-o", "-"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1
