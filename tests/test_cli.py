import json
import math
from pathlib import Path

import numpy as np
import pytest

from sungeo import random_special_unitary
from sungeo.cli import MatrixFile, main

PI = math.pi


def write_matrix(tmp_path, name, entries):
    path = tmp_path / name
    MatrixFile.from_entries(np.asarray(entries, dtype=complex)).dump(str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def files(tmp_path):
    return {
        "I2": write_matrix(tmp_path, "I2.json", np.eye(2)),
        "mI2": write_matrix(tmp_path, "mI2.json", -np.eye(2)),
        "I3": write_matrix(tmp_path, "I3.json", np.eye(3)),
        "I4": write_matrix(tmp_path, "I4.json", np.eye(4)),
        "w3": write_matrix(tmp_path, "w3.json", np.exp(2j * PI / 3) * np.eye(3)),
        "tmp": tmp_path,
    }


class TestMatrixFile:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        entries = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        entries[0, 0] = complex(-0.0, 0.0)
        entries[1, 1] = complex(1e-300, -1e300)
        path = tmp_path / "m.json"
        MatrixFile.from_entries(entries).dump(str(path))
        back = MatrixFile.load(str(path)).matrix
        assert back.tobytes() == entries.tobytes()

    def test_rejects_ragged_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "matrix": [[[1, 0]], [[0, 0], [1, 0]]]}')
        code = main(["dist", str(path), str(path)])
        assert code == 2

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["plog", str(path)]) == 2


class TestDist:
    def test_antipodal(self, capsys, files):
        code, report, _ = run_cli(capsys, "dist", files["I2"], files["mI2"])
        assert code == 0
        assert report["outputs"]["distance"] == pytest.approx(PI * math.sqrt(2), abs=1e-9)
        assert report["outputs"]["zeta"] == 1
        assert report["outputs"]["s"] == 2
        assert report["outputs"]["m"] == pytest.approx(2 * PI**2, abs=1e-9)

    def test_same_point(self, capsys, files):
        code, report, _ = run_cli(capsys, "dist", files["I3"], files["I3"])
        assert code == 0
        assert report["outputs"]["distance"] <= 1e-9

    def test_corrupted_input_exits_2(self, capsys, files):
        bad = write_matrix(files["tmp"], "bad.json", 1.5 * np.eye(2))
        code = main(["dist", bad, files["I2"]])
        err = capsys.readouterr().err
        assert code == 2
        assert "not_unitary" in err


class TestLog:
    def test_antipodal(self, capsys, files):
        code, report, _ = run_cli(capsys, "log", files["I2"], files["mI2"])
        assert code == 0
        x = np.array([[complex(re, im) for re, im in row]
                      for row in report["outputs"]["log"]])
        eigs = sorted(np.linalg.eigvals(x).imag.tolist())
        assert eigs == pytest.approx([-PI, PI], abs=1e-9)
        assert report["outputs"]["norm"] == pytest.approx(PI * math.sqrt(2), abs=1e-9)

    def test_same_point_gives_zero(self, capsys, files):
        code, report, _ = run_cli(capsys, "log", files["I3"], files["I3"])
        assert code == 0
        x = np.array(report["outputs"]["log"])
        assert np.abs(x).max() <= 1e-9

    def test_random_pair_roundtrip_residual(self, capsys, files):
        p = write_matrix(files["tmp"], "p.json", random_special_unitary(4, seed=1).entries)
        q = write_matrix(files["tmp"], "q.json", random_special_unitary(4, seed=2).entries)
        code, report, _ = run_cli(capsys, "log", p, q)
        assert code == 0
        assert report["residuals"]["exp_roundtrip"] < 1e-8

    def test_out_file(self, capsys, files):
        out = str(files["tmp"] / "x.json")
        code, report, _ = run_cli(capsys, "log", files["I2"], files["mI2"], "--out", out)
        assert code == 0
        x = MatrixFile.load(out).matrix
        assert np.allclose(sorted(np.linalg.eigvals(x).imag), [-PI, PI], atol=1e-9)


class TestGeo:
    def test_endpoints(self, capsys, files):
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"], "--t", "0,1")
        assert code == 0
        pts = report["outputs"]["points"]
        first = np.array([[complex(re, im) for re, im in row] for row in pts[0]["matrix"]])
        last = np.array([[complex(re, im) for re, im in row] for row in pts[1]["matrix"]])
        assert np.allclose(first, np.eye(2), atol=1e-12)
        assert np.allclose(last, -np.eye(2), atol=1e-9)

    def test_midpoint_and_family_flag(self, capsys, files):
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"], "--t", "0.5")
        assert code == 0
        assert report["outputs"]["unique"] is False
        assert report["outputs"]["grassmannian"] == "Gr(1;C^2)"
        pt = np.array([[complex(re, im) for re, im in row]
                       for row in report["outputs"]["points"][0]["matrix"]])
        assert np.allclose(pt, np.diag([1j, -1j]), atol=1e-9)


class TestPlog:
    def test_antipodal(self, capsys, files):
        code, report, _ = run_cli(capsys, "plog", files["mI2"])
        assert code == 0
        assert report["outputs"]["nonempty"] is True
        assert report["outputs"]["grassmannian"] == "Gr(1;C^2)"
        assert report["outputs"]["singleton"] is False

    def test_empty(self, capsys, files):
        code, report, _ = run_cli(capsys, "plog", files["w3"])
        assert code == 0
        assert report["outputs"]["nonempty"] is False
        assert report["outputs"]["grassmannian"] == "empty"

    def test_identity_singleton(self, capsys, files):
        code, report, _ = run_cli(capsys, "plog", files["I4"])
        assert code == 0
        assert report["outputs"]["nonempty"] is True
        assert report["outputs"]["singleton"] is True


class TestDiam:
    def test_even(self, capsys):
        code, report, _ = run_cli(capsys, "diam", "4")
        assert code == 0
        assert report["outputs"]["diameter"] == pytest.approx(2 * PI, abs=1e-12)

    def test_with_point(self, capsys, files):
        code, report, _ = run_cli(capsys, "diam", "3", "--point", files["I3"])
        assert code == 0
        pts = report["outputs"]["points"]
        assert len(pts) == 2
        phases = sorted(np.angle(complex(*pt[0][0])) for pt in pts)
        assert phases == pytest.approx([-2 * PI / 3, 2 * PI / 3], abs=1e-9)
        assert all(v <= 1e-9 for k, v in report["residuals"].items()
                   if k.endswith("distance_vs_diameter"))

    def test_order_one_exits_2(self, capsys):
        assert main(["diam", "1"]) == 2


class TestRandom:
    def test_deterministic_bytes(self, capsys, files):
        out1 = str(files["tmp"] / "r1.json")
        out2 = str(files["tmp"] / "r2.json")
        assert main(["random", "3", "--seed", "7", "--out", out1]) == 0
        capsys.readouterr()
        assert main(["random", "3", "--seed", "7", "--out", out2]) == 0
        capsys.readouterr()
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_output_revalidates(self, capsys, files):
        code, report, _ = run_cli(capsys, "random", "4", "--seed", "3")
        assert code == 0
        assert report["residuals"]["Q_unitarity"] < 1e-12
        assert report["residuals"]["Q_determinant"] < 1e-12

    def test_two_seeds_differ(self, capsys, files):
        out1 = str(files["tmp"] / "s1.json")
        out2 = str(files["tmp"] / "s2.json")
        main(["random", "3", "--seed", "1", "--out", out1])
        capsys.readouterr()
        main(["random", "3", "--seed", "2", "--out", out2])
        capsys.readouterr()
        a = MatrixFile.load(out1).matrix
        b = MatrixFile.load(out2).matrix
        assert np.linalg.norm(a - b) > 1e-6


class TestTheta:
    def test_samples(self, capsys, files):
        code, report, _ = run_cli(capsys, "theta", files["mI2"], "--samples", "3",
                                  "--seed", "5")
        assert code == 0
        out = report["outputs"]
        assert out["grassmannian"] == "Gr(1;C^2)"
        assert len(out["samples"]) == 3
        assert out["m"] == pytest.approx(2 * PI**2, abs=1e-9)
        for i in range(3):
            assert report["residuals"][f"sample{i}_exp_roundtrip"] <= 1e-9
            assert report["residuals"][f"sample{i}_norm_vs_m"] <= 1e-9

    def test_singleton_samples_skipped(self, capsys, files):
        code, report, _ = run_cli(capsys, "theta", files["I3"], "--samples", "2")
        assert code == 0
        assert report["outputs"]["singleton"] is True
        assert report["outputs"]["samples"] == []
        assert "samples_skipped" in report["outputs"]


class TestOracle:
    def test_agreement(self, capsys, files):
        code, report, _ = run_cli(capsys, "oracle", files["w3"])
        assert code == 0
        assert report["outputs"]["agreement"] is True
        assert report["outputs"]["minimizer_structure_ok"] is True
        assert report["residuals"]["m_gap"] <= 1e-9

    def test_random_matrix(self, capsys, files):
        path = write_matrix(files["tmp"], "r.json", random_special_unitary(5, seed=8).entries)
        code, report, _ = run_cli(capsys, "oracle", path)
        assert code == 0
        assert report["outputs"]["agreement"] is True


class TestContract:
    def test_usage_error_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "only_one_file.json"])
        assert exc.value.code == 4

    def test_unknown_command_exits_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 4

    def test_reports_are_single_documents(self, capsys, files):
        for argv in (["dist", files["I2"], files["mI2"]],
                     ["plog", files["I4"]],
                     ["diam", "2"]):
            code, report, _ = run_cli(capsys, *argv)
            assert code == 0
            assert set(report) == {"command", "inputs", "outputs", "residuals"}

    def test_env_tolerance_override(self, capsys, files, monkeypatch):
        # A slightly perturbed matrix passes with a loose tolerance and
        # fails with a strict one.
        q = random_special_unitary(3, seed=4).entries.copy()
        q[0, 0] += 1e-6
        path = write_matrix(files["tmp"], "near.json", q)
        monkeypatch.setenv("SUNGEO_TOL", "1e-3")
        assert main(["plog", path]) == 0
        capsys.readouterr()
        monkeypatch.setenv("SUNGEO_TOL", "1e-12")
        assert main(["plog", path]) == 2
        capsys.readouterr()

    def test_flag_overrides_env(self, capsys, files, monkeypatch):
        monkeypatch.setenv("SUNGEO_TOL", "1e-30")
        code, report, _ = run_cli(capsys, "dist", files["I2"], files["I2"],
                                  "--tol", "1e-8")
        assert code == 0


def strict_json(text):
    """Parse JSON that may hold no NaN or infinity."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in a report")
    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    """No report or error payload holds NaN or an infinity."""

    def test_non_finite_report_exits_3(self, capsys, files, monkeypatch):
        # A NaN distance would put NaN into the diam report's residuals.
        monkeypatch.setattr("sungeo.cli.distance", lambda *args, **kwargs: math.nan)
        assert main(["diam", "2", "--point", files["I2"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert strict_json(captured.err)["error"] == "non_finite_result"

    def test_overflowing_input_exits_2(self, capsys, files):
        # The Gram product of diag(1e300, 1e-300) overflows: its NaN
        # residual is within no tolerance and is left out of the payload.
        path = write_matrix(files["tmp"], "huge.json", np.diag([1e300, 1e-300]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["plog", path]) == 2
        payload = strict_json(capsys.readouterr().err)
        assert payload["error"] == "not_unitary" and "residual" not in payload


class TestFlagValues:
    """Flag values outside their domain are usage errors (exit 4)."""

    @pytest.fixture
    def det14(self, files):
        return write_matrix(files["tmp"], "det14.json", np.diag([14.0, 1.0]))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    def test_tol_must_be_finite_and_positive(self, det14, value):
        with pytest.raises(SystemExit) as exc:
            main(["plog", det14, f"--tol={value}"])
        assert exc.value.code == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_env_tol_must_be_finite_and_positive(self, capsys, det14, monkeypatch, value):
        monkeypatch.setenv("SUNGEO_TOL", value)
        assert main(["plog", det14]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse"

    @pytest.mark.parametrize("t", ["nan", "0,inf", "-inf,1"])
    def test_curve_parameters_must_be_finite(self, files, t):
        with pytest.raises(SystemExit) as exc:
            main(["geo", files["I2"], files["mI2"], f"--t={t}"])
        assert exc.value.code == 4

    def test_sample_count_must_be_nonnegative(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["theta", files["mI2"], "--samples", "-3"])
        assert exc.value.code == 4


def test_oracle_rejects_orders_too_large_to_enumerate(capsys, files):
    path = write_matrix(files["tmp"], "r10.json", random_special_unitary(10, seed=3).entries)
    assert main(["oracle", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "unsupported_n"
