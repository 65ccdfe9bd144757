import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nccorr as nc
from nccorr import cli, measures


def run(argv, tmp_path=None):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


FAST_FLAGS = ["--samples", "200", "--refine-steps", "10"]
SRC = Path(nc.__file__).resolve().parents[1]


def run_process(argv):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nccorr.cli"] + [str(a) for a in argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestSweep:
    def test_ps_k_column_is_2p(self, tmp_path):
        out = tmp_path / "ps.csv"
        assert run(["sweep", "--family", "ps", "--from", 0, "--to", 1,
                    "--steps", 11, "--measures", "K", "--out", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 11
        for row in rows:
            p = float(row["param"])
            assert float(row["K"]) == pytest.approx(2 * p, abs=1e-10)
            assert row["D"] == "" and row["G"] == "" and row["DG"] == "" and row["N"] == ""

    def test_horodecki_k_n_vanish(self, tmp_path):
        out = tmp_path / "hb.csv"
        assert run(["sweep", "--family", "horodecki", "--from", 0, "--to", 1,
                    "--steps", 5, "--measures", "K,N", "--out", out]) == 0
        for row in read_csv(out):
            assert float(row["K"]) <= 1e-9
            assert float(row["N"]) <= 1e-9

    def test_sigma_origin_row_vanishes(self, tmp_path):
        out = tmp_path / "sig.csv"
        assert run(["sweep", "--family", "sigma", "--from", 0, "--to", 0.5,
                    "--steps", 3, "--measures", "D,G,DG,K,N", "--out", out]
                   + FAST_FLAGS) == 0
        first = read_csv(out)[0]
        assert float(first["param"]) == 0.0
        for col in ("D", "G", "DG", "K", "N"):
            assert abs(float(first[col])) <= 1e-8

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--family", "ps", "--from", 0.1, "--to", 0.9,
                "--steps", 5, "--measures", "D,G"] + FAST_FLAGS
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_column_order(self, tmp_path):
        out = tmp_path / "h.csv"
        run(["sweep", "--family", "ps", "--from", 0, "--to", 1,
             "--steps", 2, "--measures", "N", "--out", out])
        assert out.read_text().splitlines()[0] == "param,D,G,DG,K,N"


class TestStateCommands:
    def test_gen_state_family_round_trip(self, tmp_path):
        out = tmp_path / "sigma.json"
        assert run(["gen-state", "--family", "sigma", "--param", 0.2, "--out", out]) == 0
        rho = nc.load_state(str(out))
        assert rho.dims == (2, 2)
        assert np.allclose(rho.mat, nc.make_sigma(0.2).mat, atol=1e-15)

    def test_gen_state_random_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen-state", "--dims", "2,3", "--rank", 4, "--seed", 11]
        assert run(argv + ["--out", a]) == 0
        assert run(argv + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert nc.load_state(str(a)).dims == (2, 3)

    def test_measure_json_report(self, tmp_path, capsys):
        state = tmp_path / "ps.json"
        run(["gen-state", "--family", "ps", "--param", 0.3, "--out", state])
        assert run(["measure", state, "--measures", "K,N"] + FAST_FLAGS) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"]["value"] == pytest.approx(0.6, abs=1e-10)
        assert report["N"]["value"] <= 1e-12
        assert "witness" in report["K"]

    def test_measure_repeated_name_runs_once(self, tmp_path, capsys, monkeypatch):
        state = tmp_path / "ps.json"
        run(["gen-state", "--family", "ps", "--param", 0.3, "--out", state])
        calls = []

        def counting_negativity(rho):
            calls.append(rho)
            return measures.MeasureReport("N", 0.0, None)

        monkeypatch.setattr(measures, "negativity", counting_negativity)
        assert run(["measure", state, "--measures", "N,K,N"] + FAST_FLAGS) == 0
        assert len(calls) == 1
        assert list(json.loads(capsys.readouterr().out)) == ["N", "K"]

    def test_measure_closed_form_dg(self, tmp_path, capsys):
        state = tmp_path / "sig.json"
        run(["gen-state", "--family", "sigma", "--param", 0.25, "--out", state])
        assert run(["measure", state, "--measures", "DG"] + FAST_FLAGS) == 0
        report = json.loads(capsys.readouterr().out)
        expected = 2 * (-0.25 * np.log2(0.25)) - (-0.5 * np.log2(0.5))
        assert report["DG"]["value"] == pytest.approx(expected, abs=1e-10)


class TestErrorHandling:
    def test_missing_state_file_exit_2(self, tmp_path):
        assert run(["measure", tmp_path / "nope.json", "--measures", "K"]) == 2

    def test_malformed_state_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["measure", bad, "--measures", "K"]) == 2

    def test_non_integer_state_dims_exit_2(self, tmp_path):
        state = tmp_path / "s.json"
        run(["gen-state", "--family", "ps", "--param", 0.5, "--out", state])
        state.write_text(state.read_text().replace('"dims": [2, 2]', '"dims": [2.7, 2]'))
        proc = run_process(["measure", state, "--measures", "K"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_invalid_density_matrix_exit_2(self, tmp_path):
        bad = tmp_path / "nonpsd.json"
        bad.write_text(json.dumps({
            "dims": [2],
            "matrix": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
        }))
        assert run(["measure", bad, "--measures", "K"]) == 2

    def test_param_out_of_range_exit_2(self, tmp_path):
        assert run(["gen-state", "--family", "sigma", "--param", 0.7,
                    "--out", tmp_path / "x.json"]) == 2

    def test_bad_measure_name_exit_2(self, tmp_path):
        state = tmp_path / "s.json"
        run(["gen-state", "--family", "ps", "--param", 0.5, "--out", state])
        assert run(["measure", state, "--measures", "Q"]) == 2

    SWEEP = ["sweep", "--family", "ps", "--from", 0, "--to", 1, "--steps", 2, "--measures", "D"]

    @pytest.mark.parametrize("argv", [
        SWEEP + ["--samples", -1],
        SWEEP + ["--refine-steps", -1],
        SWEEP + ["--chunk-size", 0],
        ["gen-state", "--dims", "2,x"],
        ["gen-state", "--dims", "2,2", "--seed", -5],
        ["gen-state", "--dims", "0,2"],
        SWEEP + ["--partition-cap", -3],
        ["verify", "--tol", "1e-3"],
        ["gen-state", "--family", "ps", "--param", 0.5, "--dims", "2,3"],
        ["gen-state", "--family", "ps", "--param", 0.5, "--rank", 3],
        ["gen-state", "--family", "ps", "--param", 0.5, "--seed", 3],
        ["gen-state", "--dims", "2,2", "--param", 0.7],
    ], ids=["negative-samples", "negative-refine-steps", "zero-chunk-size",
            "non-integer-dims", "negative-seed", "dims-below-2", "negative-partition-cap",
            "tol-removed", "family-and-dims", "family-with-rank",
            "family-with-seed", "dims-with-param"])
    def test_bad_flag_value_exit_2(self, tmp_path, argv):
        if argv[0] == "gen-state":
            argv = argv + ["--out", tmp_path / "x.json"]
        proc = run_process(argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "x.json").exists()

    def test_single_subsystem_k_n_exit_2(self, tmp_path):
        state = tmp_path / "s.json"
        assert run(["gen-state", "--dims", 2, "--out", state]) == 0
        proc = run_process(["measure", state, "--measures", "K,N"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_eigensolver_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        state = tmp_path / "s.json"
        run(["gen-state", "--family", "ps", "--param", 0.5, "--out", state])

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert run(["measure", state, "--measures", "K"]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")


class TestSearchFlagDefaults:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "ps", "--from", "0", "--to", "1", "--steps", "3"],
        ["measure", "state.json"],
        ["verify"],
    ], ids=["sweep", "measure", "verify"])
    def test_defaults_come_from_search_config(self, argv):
        args = cli.build_parser().parse_args(argv)
        want = nc.SearchConfig()
        assert (args.samples, args.seed, args.refine_steps) == (
            want.n_samples, want.seed, want.refine_steps)
        if argv[0] != "verify":
            assert cli._search_config(args) == want


class TestVerify:
    @pytest.fixture(scope="class")
    def verify_out(self):
        """One reduced verify run, shared by the tests of this class."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(["verify", "--samples", "200", "--refine-steps", "10"])
        return code, buf.getvalue()

    def test_reduced_verify_passes(self, verify_out):
        code, out = verify_out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_prints_time_per_criterion(self, verify_out):
        code, out = verify_out
        assert code == 0
        lines = out.splitlines()
        timing = [line for line in lines if re.fullmatch(r"criterion-\d: \d+\.\d\d s", line)]
        assert [line.split(":")[0] for line in timing] == [f"criterion-{n}" for n in range(1, 9)]
        checks = [line for line in lines if line.startswith("[")]
        assert len(checks) + len(timing) + 1 == len(lines)
        assert lines[-1] == f"{len(checks)}/{len(checks)} checks passed"
