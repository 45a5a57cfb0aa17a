import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintomo
from spintomo import cli, frames, matcore
from spintomo.cli import main
from spintomo.matcore import (
    BASIS_QUDIT,
    BASIS_TWO_QUBIT,
    matrix_to_json_dict,
    random_density,
    werner,
    werner_matrix,
)
from spintomo.su2 import EulerAngles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """The environment of a CLI subprocess, this package first on its path."""
    src = str(Path(spintomo.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestValidate:
    def test_werner_in_domain(self, capsys):
        code, out, _ = run(capsys, "validate", "--state", "werner:0.5")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_werner_out_of_domain_reports_psd_failure(self, capsys):
        code, out, _ = run(capsys, "validate", "--state", "werner:1.5")
        assert code == 1
        payload = json.loads(out)
        assert payload["psd_ok"] is False
        assert payload["min_eigenvalue"] == pytest.approx((1 - 1.5) / 4, abs=1e-12)

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 4, "re": [[')
        code, out, err = run(capsys, "validate", "--state", str(bad))
        assert code == 2
        assert "error" in err

    def test_wrong_dimension_rejected(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"dim": 3, "re": [[0] * 3] * 3, "im": [[0] * 3] * 3}))
        code, _, err = run(capsys, "validate", "--state", str(path))
        assert code == 2

    def test_unparseable_werner_parameter(self, capsys):
        code, _, err = run(capsys, "validate", "--state", "werner:abc")
        assert code == 2

    def test_file_state_round_trip(self, capsys, tmp_path):
        rho = random_density(4, 42).mat
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json_dict(rho, basis="two_qubit")))
        code, out, _ = run(capsys, "validate", "--state", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestTomogram:
    def test_qudit_point_value(self, capsys):
        code, out, _ = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit",
                           "--m", "1.5", "--alpha", "0", "--beta", "0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.375, abs=1e-12)

    def test_flat_state_any_point(self, capsys):
        code, out, _ = run(capsys, "tomogram", "--state", "werner:0", "--rep", "qudit",
                           "--m", "-0.5", "--alpha", "2.2", "--beta", "1.3")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-12)

    def test_two_qubit_point_value(self, capsys):
        code, out, _ = run(capsys, "tomogram", "--state", "werner:0.8", "--rep", "two_qubit",
                           "--m1", "0.5", "--m2", "0.5", "--theta1", "0", "--phi1", "0",
                           "--theta2", "0", "--phi2", "0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.45, abs=1e-12)

    def test_missing_point_flags(self, capsys):
        code, _, err = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit")
        assert code == 2
        assert "--m" in err

    def test_basis_mismatch(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json_dict(werner(0.2).mat, basis="two_qubit")))
        code, _, err = run(capsys, "tomogram", "--state", str(path), "--rep", "qudit",
                           "--m", "1.5", "--alpha", "0", "--beta", "0")
        assert code == 2

    def test_full_grid_csv(self, capsys):
        code, out, _ = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit",
                           "--full-grid", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "representation,m,alpha,beta,value"
        assert len(lines) == 1 + 4 * 64
        values = np.array([float(line.split(",")[-1]) for line in lines[1:]])
        assert values.min() >= 0.0 and values.max() <= 1.0

    @pytest.mark.parametrize("rep, basis, spheres",
                             [("qudit", BASIS_QUDIT, 1), ("two_qubit", BASIS_TWO_QUBIT, 2)])
    def test_full_grid_writes_the_table(self, capsys, tmp_path, rep, basis, spheres):
        table = frames.tomogram_table(werner(0.5), basis, frames.make_grid(8, 8, spheres=spheres))
        argv = ("tomogram", "--state", "werner:0.5", "--rep", rep, "--full-grid")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and out == table.to_csv_string()
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, *argv, "--format", "csv", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_bytes() == table.to_csv_string().encode()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["rows"] == table.rows.tolist()

    @pytest.mark.parametrize("m", ["0.7", "nan", "inf", "-inf"])
    def test_projection_not_a_half_integer_is_usage_error(self, capsys, m):
        code, out, err = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit",
                             f"--m={m}", "--alpha", "0", "--beta", "0")
        assert (code, out, err) == (2, "", f"error: {float(m)} is not a half-integer\n")

    def test_out_of_domain_parameter_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "tomogram", "--state", "werner:1.5", "--rep", "qudit",
                         "--m", "1.5", "--alpha", "0", "--beta", "0")
        assert code == 2

    @pytest.mark.parametrize("flags", [("--grid-azimuth", "-1"),
                                       ("--grid-azimuth", "40", "--grid-polar", "40")])
    def test_point_mode_checks_grid_flags(self, capsys, flags):
        # a point value needs no grid, but bad grid flags are still a usage error
        code, out, err = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit",
                             "--m", "1.5", "--alpha", "0", "--beta", "0", *flags)
        assert code == 2
        assert out == "" and "grid too" in err

    @pytest.mark.parametrize("flags, builds_grid", [((), False), (("--full-grid",), True)])
    def test_point_mode_builds_no_grid(self, flags, builds_grid):
        # a point checks the grid flags without building the frame tables of a
        # grid (a fresh interpreter shows the table builds)
        script = ("import sys\nfrom spintomo.cli import main\nfrom spintomo import frames\n"
                  "code = main(sys.argv[1:])\n"
                  "print(code, frames._qudit_tables.cache_info().misses > 0)\n")
        src = str(Path(spintomo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run(
            [sys.executable, "-c", script, "tomogram", "--state", "werner:0.5",
             "--rep", "qudit", "--m", "1.5", "--alpha", "0", "--beta", "0", *flags],
            capture_output=True, text=True, env=env, check=True, timeout=60)
        assert result.stdout.splitlines()[-1] == f"0 {builds_grid}"


class TestReconstruct:
    def test_werner_two_qubit(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--state", "werner:0.7",
                           "--rep", "two_qubit")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-10
        assert payload["matrix"]["dim"] == 4
        assert payload["matrix"]["basis"] == "two_qubit"

    def test_maximally_mixed(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--state", "werner:0", "--rep", "qudit")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12

    def test_qudit_includes_quantizer_report(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json_dict(random_density(4, 42).mat)))
        code, out, _ = run(capsys, "reconstruct", "--state", str(path), "--rep", "qudit")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-8
        assert payload["quantizer_report"]["selected"] == "dual_frame"

    def test_quantizer_report_schema(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--state", "werner:0.3", "--rep", "qudit")
        assert code == 0
        report = json.loads(out)["quantizer_report"]
        assert set(report) == {
            "scheme", "threshold", "selected", "dual_frame_max_residual",
            "explicit_residuals", "werner_residuals", "hermiticity_failures",
            "entry_deviations_vs_dual"}
        assert report["selected"] == "dual_frame"
        assert report["scheme"] == [8, 8]

    def test_coarse_grid_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "reconstruct", "--state", "werner:0.5",
                         "--rep", "two_qubit", "--grid-azimuth", "4")
        assert code == 2


class TestGridBound:
    # Both inputs exceed the node cap; the cap is looked up first, so a
    # build without it fails here instead of running the oversized grid.
    def test_huge_polar_count_is_usage_error(self, capsys):
        assert 8 * 100000 > frames.MAX_SPHERE_NODES
        code, out, err = run(capsys, "reconstruct", "--state", "werner:0.5",
                             "--rep", "qudit", "--grid-polar", "100000")
        assert code == 2
        assert out == ""
        assert "at most 1024 nodes" in err

    def test_huge_two_sphere_table_is_usage_error(self, capsys):
        assert 64 * 64 > frames.MAX_SPHERE_NODES
        code, out, err = run(capsys, "tomogram", "--state", "werner:0.5",
                             "--rep", "two_qubit", "--full-grid",
                             "--grid-azimuth", "64", "--grid-polar", "64")
        assert code == 2
        assert out == ""
        assert "at most 1024 nodes" in err

    def test_two_sphere_table_above_row_cap_is_usage_error(self, capsys):
        assert 4 * 1024**2 > frames.MAX_TABLE_ROWS
        code, out, err = run(capsys, "tomogram", "--state", "werner:0.5",
                             "--rep", "two_qubit", "--full-grid",
                             "--grid-azimuth", "32", "--grid-polar", "32")
        assert code == 2
        assert out == ""
        assert f"at most {frames.MAX_TABLE_ROWS} rows" in err


class TestOptionScope:
    # each shared option is registered only on the commands that read it
    @pytest.mark.parametrize("argv", [
        ("validate", "--state", "werner:0.5", "--grid-azimuth", "8"),
        ("validate", "--state", "werner:0.5", "--format", "json"),
        ("validate", "--state", "werner:0.5", "--seed", "1"),
        ("reconstruct", "--state", "werner:0.5", "--rep", "qudit", "--format", "csv"),
        ("map", "--state", "werner:0", "--direction", "2q_to_qudit", "--m", "0.5",
         "--alpha", "1", "--beta", "2", "--seed", "1"),
        ("correlation", "--state", "werner:0.4", "--tol", "1"),
        ("steering", "--state", "werner:0.4", "--tol", "1"),
        ("steering", "--state", "werner:0.4", "--format", "json"),
        ("selftest", "--state", "werner:0.5"),
        ("selftest", "--tol", "1"),
    ])
    def test_option_the_command_ignores_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err

    def test_csv_needs_full_grid(self, capsys):
        code, out, err = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", "qudit",
                             "--m", "1.5", "--alpha", "0", "--beta", "0", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--full-grid" in err


class TestMap:
    def test_qudit_to_pair(self, capsys):
        code, out, _ = run(capsys, "map", "--state", "werner:0.5",
                           "--direction", "qudit_to_2q",
                           "--m1", "0.5", "--m2", "0.5", "--theta1", "0", "--phi1", "0",
                           "--theta2", "0", "--phi2", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.375, abs=1e-8)
        assert payload["residual"] <= 1e-8

    def test_flat_state(self, capsys):
        code, out, _ = run(capsys, "map", "--state", "werner:0",
                           "--direction", "2q_to_qudit",
                           "--m", "0.5", "--alpha", "1.0", "--beta", "2.0")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, abs=1e-10)

    def test_round_trip_residual_reported(self, capsys):
        code, out, _ = run(capsys, "map", "--state", "werner:1",
                           "--direction", "2q_to_qudit",
                           "--m", "1.5", "--alpha", "0.7", "--beta", "1.1")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-8


class TestTolerance:
    MAP_ARGS = ("map", "--direction", "qudit_to_2q", "--state", "werner:0.5",
                "--m1", "0.5", "--m2", "-0.5", "--theta1", "0.4", "--phi1", "1.1",
                "--theta2", "2.0", "--phi2", "0.3")

    @pytest.mark.parametrize("argv", [
        ("reconstruct", "--state", "werner:0.5", "--rep", "two_qubit"),
        MAP_ARGS,
    ])
    def test_zero_is_honoured(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--tol=0")
        payload = json.loads(out)
        assert payload["tolerance"] == 0.0
        assert code == (0 if payload["residual"] <= 0.0 else 1)

    def test_zero_reaches_validation(self, capsys, tmp_path):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        rho[0, 1] = 1e-14
        path = tmp_path / "state.json"
        path.write_text(json.dumps(matrix_to_json_dict(rho)))
        code, _, _ = run(capsys, "validate", "--state", str(path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--state", str(path), "--tol=0")
        assert code == 1
        assert json.loads(out)["hermitian_ok"] is False

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("argv", [
        ("validate", "--state", "werner:0.5"),
        ("reconstruct", "--state", "werner:0.5", "--rep", "qudit"),
        MAP_ARGS,
    ])
    def test_negative_or_non_finite_is_usage_error(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(list(argv) + [f"--tol={value}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--tol" in captured.err


class TestCorrelationAndSteering:
    def test_correlation_forms(self, capsys):
        code, out, _ = run(capsys, "correlation", "--state", "werner:0.4",
                           "--k1", "z", "--k2", "z")
        assert code == 0
        payload = json.loads(out)
        assert payload["forms"]["direct"] == pytest.approx(0.4, abs=1e-12)
        assert payload["max_pairwise_deviation"] <= 1e-8

    def test_steering_schema_and_values(self, capsys):
        code, out, _ = run(capsys, "steering", "--state", "werner:0.4")
        assert code == 0
        payload = json.loads(out)
        for key in ("p", "tensor", "lhs", "rhs_all_entries", "rhs_diagonal",
                    "inequality_holds", "chsh_max", "bell_violated",
                    "correlation_forms", "max_directions"):
            assert key in payload
        assert payload["p"] == 0.4
        assert payload["chsh_max"] == pytest.approx(1.1313708, abs=1e-3)
        np.testing.assert_allclose(payload["tensor"],
                                   np.diag([0.4, -0.4, 0.4]), atol=1e-12)

    def test_steering_zero_state(self, capsys):
        code, out, _ = run(capsys, "steering", "--state", "werner:0")
        assert code == 0
        payload = json.loads(out)
        assert payload["chsh_max"] == pytest.approx(0.0, abs=1e-9)
        assert payload["bell_violated"] is False

    def test_bad_direction(self, capsys):
        code, _, err = run(capsys, "steering", "--state", "werner:0.4", "--k1", "0,0,2")
        assert code == 2

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "steering", "--state", "werner:0.3")
        _, out2, _ = run(capsys, "steering", "--state", "werner:0.3")
        assert out1 == out2

    @pytest.mark.parametrize("command", ("correlation", "steering"))
    def test_two_by_two_state_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "qubit.json"
        path.write_text(json.dumps(matrix_to_json_dict(np.eye(2) / 2)))
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 2
        assert out == ""
        assert "act on 4x4 states" in err
        assert "matmul" not in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "steering", "--state", "werner:0.2",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["p"] == 0.2


class TestStateFiles:
    """Each command reads its state once, as a DensityMatrix that keeps a
    state file's basis tag."""

    @pytest.mark.parametrize("argv", [
        ("tomogram", "--rep", "qudit", "--m", "1.5", "--alpha", "0", "--beta", "0"),
        ("tomogram", "--rep", "two_qubit", "--full-grid"),
        ("reconstruct", "--rep", "two_qubit"),
        ("map", "--direction", "2q_to_qudit", "--m", "1.5", "--alpha", "0", "--beta", "0"),
        ("correlation",),
        ("steering",),
    ])
    def test_werner_state_validated_once(self, capsys, monkeypatch, argv):
        checks = []
        report = matcore._validation_report
        monkeypatch.setattr(matcore, "_validation_report", lambda a: checks.append(1) or report(a))
        code, _, _ = run(capsys, *argv, "--state", "werner:0.5")
        assert code == 0
        assert len(checks) == 1

    @pytest.mark.parametrize("argv", [
        ("map", "--direction", "qudit_to_2q", "--m1", "0.5", "--m2", "-0.5",
         "--theta1", "0.4", "--phi1", "1.2", "--theta2", "2.1", "--phi2", "0.7"),
        ("map", "--direction", "2q_to_qudit", "--m", "0.5", "--alpha", "1.3", "--beta", "0.9"),
        ("correlation", "--k1", "x", "--k2", "0.6,0,0.8"),
        ("steering",),
    ])
    def test_basis_tag_leaves_output_unchanged(self, capsys, tmp_path, argv):
        rho = random_density(4, 19).mat
        outputs = []
        for basis in (None, BASIS_TWO_QUBIT, BASIS_QUDIT):
            path = tmp_path / f"{basis}.json"
            path.write_text(json.dumps(matrix_to_json_dict(rho, basis=basis)))
            outputs.append(run(capsys, *argv, "--state", str(path)))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_invalid_state_file(self, capsys, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(matrix_to_json_dict(werner_matrix(1.5), basis=BASIS_QUDIT)))
        code, out, err = run(capsys, "reconstruct", "--rep", "qudit", "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: input is not a valid density matrix: ")
        code, out, _ = run(capsys, "validate", "--state", str(path))
        assert code == 1
        assert json.loads(out)["psd_ok"] is False


class TestMalformedStateFiles:
    """A state file that JSON or the matrix decoder cannot read exits 2 with
    one ``error:`` line, whichever command reads it."""

    ZERO = [[0] * 4] * 4

    @pytest.mark.parametrize("command", ["validate", "steering"])
    @pytest.mark.parametrize("text, message", [
        (json.dumps({"dim": 4, "re": {}, "im": ZERO}), "bad matrix JSON in "),
        (json.dumps({"dim": 4, "re": [[{}] * 4] * 4, "im": ZERO}), "bad matrix JSON in "),
        ("[" * 100_000 + "]" * 100_000, "is not valid JSON: "),
        (json.dumps({"dim": 4, "re": [[10**400] + [0] * 3] + ZERO[1:], "im": ZERO}),
         "bad matrix JSON in "),
    ], ids=["object_re", "object_entry", "deep_nesting", "overflow"])
    def test_one_line_usage_error(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestClosedStdout:
    @staticmethod
    def read_and_close(read, *flags):
        """Write the two-qubit table, far larger than a pipe buffer, let
        ``read`` take from stdout, close it: (bytes read, exit code, stderr)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "spintomo.cli", "tomogram", "--state", "werner:0.5",
             "--rep", "two_qubit", "--full-grid", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        try:
            first = read(proc.stdout)
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        return first, code, err

    def test_reader_closing_the_pipe_exits_141_silently(self):
        # `| head -n 1`: the writer meets the closed pipe and ends as a
        # SIGPIPE would, with no message
        first, code, err = self.read_and_close(lambda out: out.readline(), "--format", "csv")
        assert code == 141
        assert first == b"representation,m1,m2,theta1,phi1,theta2,phi2,value\n"
        assert err == b""

    @pytest.mark.parametrize("flags", ((), ("--format", "csv")), ids=("json", "csv"))
    def test_reader_closing_after_ten_bytes_exits_141_silently(self, flags):
        # `| head -c 10`, in either output format
        first, code, err = self.read_and_close(lambda out: out.read(10), *flags)
        assert len(first) == 10
        assert code == 141
        assert err == b""


class TestNumericalRefusal:
    def test_table_below_roundoff_is_a_one_line_error(self, capsys, tmp_path):
        # rho = (1 + eps)|psi><psi| - eps|phi><phi|, phi the top eigenvector of the
        # m = 3/2 dequantizer at the first 8x8 node and psi orthogonal to it: its
        # least eigenvalue -eps passes PSD_TOL, its tomogram there, -eps, does not
        # pass the table's -1e-12 bound
        grid = frames.make_grid(8, 8)
        point = frames.FramePointQudit(1.5, EulerAngles(grid.azimuth[0], grid.polar[0]))
        _, vectors = np.linalg.eigh(frames.dequantizer_qudit(point))
        phi, psi = vectors[:, -1], vectors[:, 0]
        eps = 5e-11
        rho = (1 + eps) * np.outer(psi, psi.conj()) - eps * np.outer(phi, phi.conj())
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(matrix_to_json_dict(rho)))
        code, out, _ = run(capsys, "validate", "--state", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True
        proc = subprocess.run(
            [sys.executable, "-m", "spintomo.cli", "tomogram", "--state", str(path),
             "--rep", "qudit", "--full-grid"],
            capture_output=True, env=cli_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b"error: tomogram values leave [0, 1] beyond roundoff\n"


class TestSelftestCommand:
    def test_default_grids_pass(self, capsys):
        code, out, err = run(capsys, "selftest")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "selftest: PASS"
        assert sum(1 for line in lines if line.startswith("PASS")) == 12

    def test_coarse_grid_fails_reconstruction(self, capsys):
        # every criterion runs on the 2x2 grid; those that need an exact
        # quadrature fail, each with its number
        code, out, _ = run(capsys, "selftest", "--coarse")
        assert code == 1
        failed = [int(line.split()[1]) for line in out.split("\n") if line.startswith("FAIL")]
        assert failed == [2, 3, 5, 7]
        assert "error=" not in out

    @pytest.mark.parametrize("flags", [("--grid-azimuth", "32"), ("--grid-polar", "16"),
                                       ("--grid-azimuth", "8"), ("--grid-polar", "8")])
    def test_coarse_takes_no_node_counts(self, capsys, flags):
        code, out, err = run(capsys, "selftest", "--coarse", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: coarse runs on its own 2x2 grid")
        assert err.count("\n") == 1

    def test_out_file_holds_the_report(self, capsys, tmp_path):
        target = tmp_path / "selftest.json"
        code, _, _ = run(capsys, "selftest", "--out", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert len(report["results"]) == 12
        assert report["all_passed"] is True

    @pytest.mark.parametrize("value", ["-5000", "-1", "1.5", "abc"])
    def test_seed_must_be_non_negative_integer(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", value])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_stdout_deterministic_for_fixed_seed(self, capsys):
        _, out1, _ = run(capsys, "selftest", "--seed", "7")
        _, out2, _ = run(capsys, "selftest", "--seed", "7")
        assert out1 == out2


class TestNegativeDirection:
    def test_attached_minus_axis(self, capsys):
        # T = diag(p, -p, p) for Werner states, so E(x, -x) = -p in every form
        code, out, _ = run(capsys, "correlation", "--state", "werner:0.5",
                           "--k1=x", "--k2=-x")
        assert code == 0
        payload = json.loads(out)
        assert payload["k2"] == [-1.0, 0.0, 0.0]
        assert set(payload["forms"]) == {"direct", "tomo_2q_a", "tomo_2q_b", "tomo_qudit"}
        for value in payload["forms"].values():
            assert value == pytest.approx(-0.5, abs=1e-12)

    def test_separate_minus_axis_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correlation", "--state", "werner:0.5", "--k1", "x", "--k2", "-x"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --k2: expected one argument" in captured.err


class TestReportKeys:
    """The exact key sets of the JSON reports, so that a field added to or
    dropped from a report class shows up here."""

    def test_validate(self, capsys):
        for spec, expected_code in (("werner:0.5", 0), ("werner:1.5", 1)):
            code, out, _ = run(capsys, "validate", "--state", spec)
            assert code == expected_code
            assert set(json.loads(out)) == {
                "hermiticity_defect", "trace_defect", "min_eigenvalue",
                "hermitian_ok", "trace_ok", "psd_ok", "passed"}

    def test_steering(self, capsys):
        code, out, _ = run(capsys, "steering", "--state", "werner:0.4")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "p", "tensor", "lhs", "rhs_all_entries", "rhs_diagonal",
            "inequality_holds", "chsh_max", "bell_violated",
            "correlation_forms", "max_directions", "notes"}
        assert set(payload["correlation_forms"]) == {
            "direct", "tomo_2q_a", "tomo_2q_b", "tomo_qudit"}
        assert set(payload["max_directions"]) == {"k1", "k2"}
        assert isinstance(payload["notes"], list)

    @pytest.mark.parametrize("rep, point, keys", [
        ("qudit", ["--m", "1.5", "--alpha", "0.3", "--beta", "0.7", "--gamma", "1"],
         {"m", "alpha", "beta"}),
        ("two_qubit", ["--m1", "0.5", "--m2", "-0.5", "--theta1", "0.3", "--phi1", "0.2",
                       "--theta2", "1.1", "--phi2", "2.0", "--psi1", "1"],
         {"m1", "m2", "theta1", "phi1", "theta2", "phi2"}),
    ])
    def test_tomogram_point(self, capsys, rep, point, keys):
        code, out, _ = run(capsys, "tomogram", "--state", "werner:0.5", "--rep", rep, *point)
        assert code == 0
        assert set(json.loads(out)) == keys | {"representation", "value"}

    def test_selftest_out(self, capsys, tmp_path):
        target = tmp_path / "selftest.json"
        code, _, _ = run(capsys, "selftest", "--out", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert set(report) == {"results", "wall_clock_seconds", "all_passed"}
        for entry in report["results"]:
            assert set(entry) == {"index", "name", "passed", "details",
                                  "seconds", "budget_seconds"}
        assert [entry["index"] for entry in report["results"]] == list(range(1, 13))
        assert report["results"][-1]["budget_seconds"] == 60.0


class TestOneParser:
    @pytest.mark.parametrize("argv", [("validate", "--state", "werner:0.5"), ("--help",),
                                      ("nosuch",)])
    def test_main_builds_the_parser_once(self, capsys, monkeypatch, argv):
        calls = []
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda *args, **kwargs: calls.append((args, kwargs)) or full())
        try:
            main(list(argv))
        except SystemExit:
            pass
        capsys.readouterr()
        assert calls == [((), {})]


class TestParserIdentity:
    """Each command's help, missing-flag and bad ``--tol`` outcomes through
    ``main``, and those of an argv without a command: stdout, stderr and the
    exit code are the full parser's, byte for byte."""

    COMMANDS = ("validate", "tomogram", "reconstruct", "map", "correlation", "steering",
                "selftest")

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def compare(self, capsys, monkeypatch, argv):
        own = self.outcome(capsys, argv)
        full = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda command=None: full())
            reference = self.outcome(capsys, argv)
        assert own == reference
        return own[0]

    @pytest.mark.parametrize("argv", [("--help",), ("nosuch",), ("nosuch", "--help"), (),
                                      ("--state", "werner:0.5", "validate")])
    def test_without_a_command(self, capsys, monkeypatch, argv):
        assert self.compare(capsys, monkeypatch, argv) == (0 if argv == ("--help",) else 2)

    def test_a_later_argument_naming_a_command(self, capsys, monkeypatch):
        # the command is the first name: here a state file called 'selftest'
        assert self.compare(capsys, monkeypatch, ("validate", "--state", "selftest")) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help(self, capsys, monkeypatch, command):
        assert self.compare(capsys, monkeypatch, (command, "--help")) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_required_flag(self, capsys, monkeypatch, command):
        # selftest requires no flag: its --seed misses its value
        argv = (command, "--seed") if command == "selftest" else (command,)
        assert self.compare(capsys, monkeypatch, argv) == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_tolerance(self, capsys, monkeypatch, command):
        argv = (command, "--state", "werner:0.5", "--tol", "nan")
        assert self.compare(capsys, monkeypatch, argv) == 2


class TestProcessEntry:
    """``python -m spintomo.cli`` runs ``cli.run``, which flushes and ends the
    process without interpreter finalization: what a command writes, and its
    exit code, are those of ``main`` in process."""

    @staticmethod
    def env():
        # buffered streams, as the installed script has them, so that only
        # the entry's own flush can deliver what is still buffered
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        return env

    def fresh(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True, env=self.env(),
                              timeout=120)

    def test_selftest_out_writes_the_full_report(self, tmp_path):
        target = tmp_path / "selftest.json"
        proc = self.fresh("-m", "spintomo.cli", "selftest", "--out", str(target))
        assert proc.returncode == 0
        report = json.loads(target.read_text())
        assert set(report) == {"results", "wall_clock_seconds", "all_passed"}
        assert report["all_passed"] is True
        assert [entry["index"] for entry in report["results"]] == list(range(1, 13))

    def test_csv_table_to_a_file_is_main_output(self, capsys, tmp_path):
        argv = ("tomogram", "--state", "werner:0.5", "--rep", "two_qubit", "--full-grid",
                "--format", "csv")
        target = tmp_path / "table.csv"
        with open(target, "wb") as fh:
            proc = subprocess.run([sys.executable, "-m", "spintomo.cli", *argv], stdout=fh,
                                  stderr=subprocess.PIPE, env=self.env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        data = target.read_bytes()
        assert data.count(b"\n") == 16_385
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert data == out.encode()

    @pytest.mark.parametrize("argv, code", [(("validate", "--state", "werner:0.5", "--bogus"), 2),
                                            (("validate", "--help"), 0)],
                             ids=("usage_error", "help"))
    def test_argparse_exit_is_main_outcome(self, capsys, monkeypatch, argv, code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its lines to this width
        proc = self.fresh("-m", "spintomo.cli", *argv)
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == code
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            code, captured.out, captured.err)

    def test_an_unexpected_error_prints_a_traceback_and_exits_1(self):
        script = ("from spintomo import cli\n"
                  "def fail(args):\n"
                  "    raise RuntimeError('handler failed')\n"
                  "cli.cmd_validate = fail\n"
                  "cli.run()\n")
        proc = self.fresh("-c", script, "validate", "--state", "werner:0.5")
        assert proc.returncode == 1
        assert b"Traceback" in proc.stderr
        assert proc.stderr.rstrip().endswith(b"RuntimeError: handler failed")

    def test_main_returns_and_keeps_the_process(self, capsys):
        for _ in range(2):
            code = main(["validate", "--state", "werner:0.5"])
            assert isinstance(code, int) and code == 0
        capsys.readouterr()
