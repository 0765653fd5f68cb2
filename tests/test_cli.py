import json

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


class TestCompareResampling:
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
        from dqe.circuits import parse_qasm

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
