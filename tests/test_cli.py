import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sungeo.cli as cli
from sungeo import ParseError, random_special_unitary, spectral_summary
from sungeo.cli import MatrixFile, main

PI = math.pi


def write_matrix(tmp_path, name, entries):
    path = tmp_path / name
    MatrixFile(np.asarray(entries, dtype=complex)).dump(str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def cli_process(argv, **streams):
    """``python -m sungeo.cli argv`` in a separate process that imports this
    checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "sungeo.cli", *argv],
                          env=env, timeout=120, **streams)


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
        MatrixFile(entries).dump(str(path))
        back = MatrixFile.load(str(path)).matrix
        assert back.tobytes() == entries.tobytes()

    @pytest.mark.parametrize("rows, text", [
        ([[complex(-0.0, 5e-324)]], "[[-0.0, 5e-324]]"),
        ([[complex(0.1, -0.0), complex(1e16, 1.0)], [complex(5e-324, 0.1), complex(-1e16, -0.0)]],
         "[[0.1, -0.0], [1e+16, 1.0]],\n    [[5e-324, 0.1], [-1e+16, -0.0]]"),
    ], ids=["n1", "n2"])
    def test_rows_per_line_in_shortest_form(self, rows, text):
        entries = np.array(rows, dtype=complex)
        doc = MatrixFile(entries).dumps()
        assert doc == '{\n  "n": %d,\n  "matrix": [\n    %s\n  ]\n}\n' % (len(rows), text)
        assert MatrixFile.loads(doc).matrix.tobytes() == entries.tobytes()

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                       complex(-math.inf, math.nan)])
    def test_non_finite_entry_raises_and_writes_nothing(self, tmp_path, value):
        entries = np.eye(2, dtype=complex)
        entries[1, 0] = value
        first = next(v for v in (value.real, value.imag) if not math.isfinite(v))
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError) as exc:
            MatrixFile(entries).dump(str(path))
        # The indented stdlib encoder's text, as for a report.
        assert str(exc.value) == f"Out of range float values are not JSON compliant: {first!r}"
        assert not path.exists()

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

    def test_answers_when_the_pair_drifts_in_determinant(self, capsys, files):
        # P and Q turned by e^{+-0.9e-8 i} pass validation with det
        # e^{+-2.7e-8 i}, inside the n = 3 gate of 3e-8; arg det(P^*Q) reaches
        # 5.4e-8, past the su(n) gate on a trace, and the logarithm is still
        # traceless and reaches Q.
        paths = [write_matrix(files["tmp"], f"{name}.json",
                              random_special_unitary(3, seed=seed).entries * np.exp(s * 0.9e-8j))
                 for name, seed, s in (("p", 5, 1), ("q", 6, -1))]
        code, report, _ = run_cli(capsys, "log", *paths)
        assert code == 0
        assert 0 <= report["residuals"]["exp_roundtrip"] <= 3e-7

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

    def test_both_orders_print_one_label(self, capsys, files):
        # P^*Q winds 1 with s = 3 and Q^*P winds 2: Gr(1;C^3) and Gr(2;C^3)
        # name one manifold, and both orders print the second.
        args = [PI] * 3 + [-(PI / 2 + 0.3), -(PI / 2 - 0.3)]
        i5 = write_matrix(files["tmp"], "I5.json", np.eye(5))
        q5 = write_matrix(files["tmp"], "Q5.json", np.diag(np.exp(1j * np.array(args))))
        labels = []
        for pair in ((i5, q5), (q5, i5)):
            code, report, _ = run_cli(capsys, "geo", *pair)
            assert code == 0 and report["outputs"]["unique"] is False
            labels.append(report["outputs"]["grassmannian"])
        assert labels == ["Gr(2;C^3)"] * 2

    def test_overflowing_phases_exit_2_with_one_json_line(self, files):
        # A separate process, so that any numpy warning reaches stderr.
        done = cli_process(["geo", files["I3"], files["w3"], "--t", "1e308"],
                           capture_output=True, text=True)
        assert done.returncode == 2 and done.stdout == ""
        [line] = done.stderr.splitlines()
        assert json.loads(line)["error"] == "not_finite"

    def test_large_finite_parameter_gives_a_point_in_the_group(self, capsys, tmp_path):
        p = write_matrix(tmp_path, "P3.json", random_special_unitary(3, seed=10).entries)
        q = write_matrix(tmp_path, "Q3.json", random_special_unitary(3, seed=20).entries)
        code, report, err = run_cli(capsys, "geo", p, q, "--t", "1e10")
        assert code == 0 and err == ""
        [key] = [k for k in report["residuals"] if k.startswith("gamma(")]
        assert report["residuals"][key] <= report["inputs"]["tol"]
        [point] = report["outputs"]["points"]
        g = np.array([[complex(re, im) for re, im in row] for row in point["matrix"]])
        assert abs(np.linalg.det(g) - 1.0) <= report["inputs"]["tol"]

    def test_residual_keys_name_the_echoed_parameters(self, capsys, files):
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"],
                                  "--t", "0.1,1e16,5e-324,-0.0,3")
        assert code == 0
        keys = [k for k in report["residuals"] if k.startswith("gamma(")]
        assert keys == [f"gamma({t!r})_unitarity" for t in report["inputs"]["t"]]
        assert keys[1] == "gamma(1e+16)_unitarity"

    def test_default_parameters_survive_earlier_requests(self, capsys, files):
        # The parser is built once per process, so its defaults are shared
        # by every request.
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"], "--t", "0.5")
        assert code == 0 and report["inputs"]["t"] == [0.5]
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"])
        assert code == 0 and report["inputs"]["t"] == [0.0, 1.0]
        assert [pt["t"] for pt in report["outputs"]["points"]] == [0.0, 1.0]

    @pytest.mark.parametrize("text, t", [("-0.5,0.5", [-0.5, 0.5]), ("-1e-3", [-1e-3]),
                                         ("-1,1", [-1.0, 1.0])])
    def test_parameters_may_start_with_a_minus_sign(self, capsys, files, text, t):
        # A separate value that argparse's own negative-number rule misses.
        code, report, _ = run_cli(capsys, "geo", files["I2"], files["mI2"], "--t", text)
        assert code == 0 and report["inputs"]["t"] == t
        assert [pt["t"] for pt in report["outputs"]["points"]] == t

    def test_distance_is_the_dist_report(self, capsys, files):
        for i in range(8):
            n = (2, 3, 4, 5, 8)[i % 5]
            p = write_matrix(files["tmp"], "p.json", random_special_unitary(n, seed=40 + i).entries)
            q = write_matrix(files["tmp"], "q.json", random_special_unitary(n, seed=80 + i).entries)
            distances = {cmd: run_cli(capsys, cmd, p, q)[1]["outputs"]["distance"]
                         for cmd in ("dist", "geo", "log")}
            assert len(set(distances.values())) == 1, distances


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


@pytest.mark.parametrize("command", ["dist", "geo", "plog"])
def test_noisy_su2_input_within_tolerance_exits_0(capsys, tmp_path, command):
    # 1e-10 on one entry of a random SU(2) matrix passes validation, so every
    # stage after it must succeed.
    p, q = str(tmp_path / "p2.json"), str(tmp_path / "q2.json")
    assert main(["random", "2", "--seed", "3", "--out", p]) == 0
    assert main(["random", "2", "--seed", "4", "--out", q]) == 0
    capsys.readouterr()
    entries = MatrixFile.load(q).matrix.copy()
    entries[0, 0] += 1e-10
    noisy = write_matrix(tmp_path, "q2n.json", entries)
    argv = {"dist": ["dist", p, noisy], "geo": ["geo", p, noisy, "--t", "0.5"],
            "plog": ["plog", noisy]}[command]
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["command"] == command


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

    def test_tol_is_not_a_flag(self):
        # The sampler checks no tolerance, so random offers none.
        with pytest.raises(SystemExit) as exc:
            main(["random", "3", "--tol", "1e-8"])
        assert exc.value.code == 4

    def test_env_tolerance_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("SUNGEO_TOL", "abc")
        code, report, _ = run_cli(capsys, "random", "3")
        assert code == 0 and report["command"] == "random"


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

    def test_m_is_the_oracle_closed_form(self, capsys, files):
        # One formula for m: theta's m is oracle's m_value of the same
        # spectrum, to the bit; ||base_log||_F^2 reads ...415 here.
        path = str(files["tmp"] / "q.json")
        assert run_cli(capsys, "random", "5", "--seed", "1", "--out", path)[0] == 0
        code, theta, _ = run_cli(capsys, "theta", path)
        assert code == 0 and not theta["outputs"]["oriented"]
        code, oracle, _ = run_cli(capsys, "oracle", path)
        assert code == 0
        assert theta["outputs"]["m"] == oracle["outputs"]["m_closed_form"] == 21.28927978558416

    @pytest.mark.parametrize("n", range(3, 9))
    def test_m_is_the_oracle_closed_form_on_negative_winding(self, capsys, files, n):
        # Both read m off the spectrum of Q as it is; theta reports the
        # negative winding as oriented.
        qs = [q for q in (random_special_unitary(n, seed=700 * n + i) for i in range(400))
              if spectral_summary(q).zeta < 0][:8]
        assert len(qs) == 8
        for i, q in enumerate(qs):
            path = write_matrix(files["tmp"], f"neg{i}.json", q.entries)
            code, theta, _ = run_cli(capsys, "theta", path)
            assert code == 0 and theta["outputs"]["oriented"]
            code, oracle, _ = run_cli(capsys, "oracle", path)
            assert code == 0
            assert theta["outputs"]["m"] == oracle["outputs"]["m_closed_form"]


    def test_negative_winding_reports_the_winding_of_the_adjoint(self, capsys, files):
        # e^{-2 pi i/3} I3 winds -1: one of three arguments shifts up a turn.
        # The report gives Q^*'s winding, 1, flags it, and gives Q's own
        # argument on the kept side of the boundary.
        path = write_matrix(files["tmp"], "w3bar.json", np.exp(-2j * PI / 3) * np.eye(3))
        code, report, _ = run_cli(capsys, "theta", path, "--samples", "2")
        out = report["outputs"]
        assert code == 0 and (out["zeta"], out["oriented"]) == (1, True)
        assert (out["nu1"], out["nu2"], out["grassmannian"]) == (2, 1, "Gr(1;C^3)")
        assert out["beta_arg"] == pytest.approx(-2 * PI / 3, abs=1e-12)
        assert out["m"] == pytest.approx(8 * PI**2 / 3, abs=1e-12)
        assert all(report["residuals"][f"sample{i}_exp_roundtrip"] <= 1e-12 for i in range(2))

    def test_label_is_the_one_geo_prints(self, capsys, files):
        # Q = diag(-1, -1, -1, e^{-i(pi/2 + 0.3)}, e^{-i(pi/2 - 0.3)}) winds 1
        # with s = 3: one -1 member shifts, Gr(1; C^3), while Q^* winds 2, two
        # shifted, Gr(2; C^3). theta Q and geo I Q print one name, Q^*'s.
        args = [PI] * 3 + [-(PI / 2 + 0.3), -(PI / 2 - 0.3)]
        q = write_matrix(files["tmp"], "q5.json", np.diag(np.exp(1j * np.array(args))))
        i5 = write_matrix(files["tmp"], "i5.json", np.eye(5))
        code, theta, _ = run_cli(capsys, "theta", q)
        assert code == 0 and (theta["outputs"]["nu1"], theta["outputs"]["nu2"]) == (2, 1)
        labels = [theta["outputs"]["grassmannian"]]
        for pair in ((i5, q), (q, i5)):
            code, geo, _ = run_cli(capsys, "geo", *pair)
            assert code == 0
            labels.append(geo["outputs"]["grassmannian"])
        assert labels == ["Gr(2;C^3)"] * 3


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

    def test_negative_winding_minimizers_move_up(self, capsys, files):
        # e^{-2 pi i/3} I ties three minimizers; Haar SU(5) seed 108 winds -1.
        entries = [np.exp(-2j * PI / 3) * np.eye(3), random_special_unitary(5, seed=108).entries]
        for i, a in enumerate(entries):
            code, report, _ = run_cli(capsys, "oracle", write_matrix(files["tmp"], f"neg{i}.json", a))
            assert code == 0
            out = report["outputs"]
            assert out["zeta"] == -1
            assert out["minimizers"] and out["minimizer_structure_ok"] is True


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

    @pytest.mark.parametrize("command", ["dist", "log", "plog", "oracle"])
    def test_loose_tol_scales_the_winding_tolerance(self, capsys, files, command):
        # Noise of 1e-5 moves the argument sum of P^*Q by about 1e-5, past the
        # default winding tolerance 1e-6; --tol 1e-3 admits the noisy file, so
        # every later stage must accept it too.
        rng = np.random.default_rng(14)
        for i in range(4):
            q = random_special_unitary(3, seed=[14, i]).entries.copy()
            q += 1e-5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            path = write_matrix(files["tmp"], f"noisy{i}.json", q)
            operands = [path] if command in ("plog", "oracle") else [files["I3"], path]
            assert main([command, *operands]) == 2
            code, report, err = run_cli(capsys, command, *operands, "--tol", "1e-3")
            assert code == 0, err
            assert report["inputs"]["tol"] == 1e-3

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


def test_random_rejects_orders_too_large_to_allocate(capsys):
    # A 1e8 x 1e8 array of doubles (71 PiB) is larger than a process's
    # address space, so the allocation fails at once and touches no memory.
    assert main(["random", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "unsupported_n"


def test_diam_order_beyond_float_range_exits_2(capsys):
    assert main(["diam", str(10 ** 400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "unsupported_n"


# Each of these also fails at once and touches no memory: numpy raises
# MemoryError for 1e15 stacked 2 x 2 samples (57 PiB), and ValueError for
# 1e10 x 1e10 doubles or 1e30 samples, sizes beyond its size type.
@pytest.mark.parametrize("argv, code", [
    (["random", "10000000000"], "unsupported_n"),
    (["theta", "mI2", "--samples", str(10 ** 15)], "shape"),
    (["theta", "mI2", "--samples", str(10 ** 30)], "shape"),
], ids=["random-size", "theta-memory", "theta-size"])
def test_requests_too_large_to_allocate_exit_2(capsys, files, argv, code):
    assert main([files.get(a, a) for a in argv]) == 2
    assert one_error_line(capsys)["error"] == code


def one_error_line(capsys) -> dict:
    """The error payload of a request that wrote nothing on stdout and one
    JSON line, no traceback, on stderr."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv, code, message", [
    (["geo", "I2", "mI2", "--t", ","], "shape", "the list of curve parameters must be nonempty"),
    (["diam", "3", "--point", "I4"], "shape", "point has order 4, expected 3"),
    (["random", "0"], "unsupported_n", "order must be at least 1"),
    (["log", "I2", "mI2", "--out", "MISSING"], "parse", "cannot write "),
], ids=["geo-no-parameters", "diam-point-order", "random-order-zero", "log-out-missing-dir"])
def test_rejected_request_exits_2_with_one_json_line(capsys, files, argv, code, message):
    files = {**files, "MISSING": str(files["tmp"] / "missing" / "x.json")}
    assert main([files.get(a, a) for a in argv]) == 2
    payload = one_error_line(capsys)
    assert payload["error"] == code and payload["message"].startswith(message)
    assert not (files["tmp"] / "missing").exists()


DEEP = "[" * 100_000 + "]" * 100_000
HUGE = "1" + "0" * 400    # an integer literal beyond float range
LONG = "1" * 5000         # more digits than Python converts to int


@pytest.mark.parametrize("content, argv, code", [
    ('{"n": true, "matrix": [[[1, 0]]]}', ["dist", "F", "F"], 2),
    ('{"n": 1, "matrix": [[[%s, 0]]]}' % HUGE, ["dist", "F", "F"], 2),
    ('{"n": 1, "matrix": [[[%s, 0]]]}' % LONG, ["plog", "F"], 2),
    (b"\xff\xfe", ["dist", "F", "F"], 2),
    (DEEP, ["plog", "F"], 2),
    ('{"n": 2, "matrix": [[[true, 0], [0, 0]], [[0, 0], [1, 0]]]}', ["dist", "F", "F"], 2),
    ('{"n": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, false]]]}', ["plog", "F"], 2),
    ('{"n": 2}', ["dist", "F", "F"], 2),
    (None, ["random", "3", "--seed", "-1"], 4),
    (np.diag([-1.0, -1.0]), ["theta", "F", "--samples", "2", "--seed", "-1"], 4),
], ids=["n-true", "huge-int", "long-int", "not-utf8", "deep-nesting", "bool-entry",
        "bool-imag", "no-matrix", "random-negative-seed", "theta-negative-seed"])
def test_outside_input_gets_one_line_and_its_exit_code(tmp_path, capsys, content, argv,
                                                       code):
    path = tmp_path / "F.json"
    if isinstance(content, np.ndarray):
        MatrixFile(content).dump(str(path))
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    try:
        got = main([str(path) if a == "F" else a for a in argv])
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code and captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    if code == 2:
        assert json.loads(lines[0])["error"] == "parse"
    else:
        assert "usage error" in lines[0]


def _doc(rows, n=2):
    return '{"n": %d, "matrix": [%s]}' % (n, ", ".join(rows))


OK_ROW = "[[1, 0], [0, 0]]"


@pytest.mark.parametrize("text, message", [
    (_doc(["[[1, 0]]", OK_ROW]), "row 0 must hold 2 entries"),
    (_doc([OK_ROW, "5"]), "row 1 must hold 2 entries"),
    (_doc([OK_ROW, "[[0, 0], [1, 0, 0]]"]), "entry (1,1) must be an [re, im] pair"),
    (_doc(["[[1, 0], [true, 0]]", OK_ROW]), "entry (0,1) must be an [re, im] pair"),
    (_doc([OK_ROW, '[[0, 0], [1, "0"]]']), "entry (1,1) must be an [re, im] pair"),
    (_doc([OK_ROW, "[null, [1, 0]]"]), "entry (1,0) must be an [re, im] pair"),
    (_doc([OK_ROW, "[[0, null], [1, 0]]"]), "entry (1,0) must be an [re, im] pair"),
    (_doc(["[[1, 0], [[0], 0]]", OK_ROW]), "entry (0,1) must be an [re, im] pair"),
    (_doc([OK_ROW, "[[%s, 0], [1, 0]]" % HUGE]),
     "entry (1,0) is out of range: int too large to convert to float"),
    (_doc([OK_ROW, "[[0, -%s], [1, 0]]" % HUGE]),
     "entry (1,0) is out of range: int too large to convert to float"),
    (_doc(["[[NaN, 0], [0, 0]]", OK_ROW]), "matrix entries must be finite"),
    (_doc([OK_ROW, "[[0, Infinity], [1, 0]]"]), "matrix entries must be finite"),
    (_doc([OK_ROW, "[[0, 0], [-Infinity, 0]]"]), "matrix entries must be finite"),
    (_doc([OK_ROW, "[[0, 0], [1e400, 0]]"]), "matrix entries must be finite"),
    # The first offending row or entry in row-major order is named.
    (_doc(["[[1, 0], [true, 0]]", "[[0, 0]]"]), "entry (0,1) must be an [re, im] pair"),
    (_doc(["[[1, 0]]", '[["x", 0], [1, 0]]']), "row 0 must hold 2 entries"),
    (_doc(["[[%s, 0], [0, 0]]" % HUGE, "[[0, 0]]"]),
     "entry (0,0) is out of range: int too large to convert to float"),
    (_doc(["[[1, 0], [%s, 0]]" % HUGE, '[[0, 0], [1, "0"]]']),
     "entry (0,1) is out of range: int too large to convert to float"),
    (_doc(['[["x", %s], [0, 0]]' % HUGE, OK_ROW]), "entry (0,0) must be an [re, im] pair"),
    (_doc(["[[1, 0], [0, 0]]", "[[NaN, 0], [true, 0]]"]),
     "entry (1,1) must be an [re, im] pair"),
    (_doc([OK_ROW], n=2), '"matrix" must be a list of 2 rows'),
], ids=["short-row", "row-not-list", "triple", "bool", "string", "null-cell",
        "null-value", "nested-list", "huge-int", "huge-negative-imag", "nan", "infinity",
        "minus-infinity", "float-overflow", "cell-before-short-row",
        "short-row-before-cell", "huge-before-short-row", "huge-before-bad-cell",
        "bad-cell-holding-huge", "bad-cell-after-nan", "too-few-rows"])
def test_malformed_file_messages(text, message):
    with pytest.raises(ParseError) as exc:
        MatrixFile.loads(text)
    assert str(exc.value) == message


def test_loads_converts_each_entry_exactly():
    text = _doc(["[[%d, -0.0], [5e-324, %d]]" % (2 ** 53 + 1, 10 ** 30),
                 "[[0, 1.7976931348623157e308], [-0, 0.1]]"])
    expected = np.array([[complex(2 ** 53 + 1, -0.0), complex(5e-324, 10 ** 30)],
                         [complex(0, 1.7976931348623157e308), complex(0, 0.1)]])
    assert MatrixFile.loads(text).matrix.tobytes() == expected.tobytes()


# One argv per row: valid calls of every subcommand with every option, then
# top-level and subcommand usage errors. "P", "Q", "P4", "mI4" and "OUT" name
# files made by ``argv_files``.
ARGV_TABLE = [
    ["dist", "P", "Q"],
    ["dist", "P", "Q", "--tol", "1e-6"],
    ["log", "P", "Q", "--tol", "1e-6", "--out", "OUT"],
    ["geo", "P", "Q", "--tol", "1e-6", "--t", "0,0.5,1"],
    ["geo", "P", "Q", "--t=-1,1"],
    ["geo", "P", "Q", "--t", "-0.5"],
    ["plog", "Q", "--tol", "1e-6"],
    ["diam", "4", "--point", "P4", "--tol", "1e-6"],
    ["diam", "3"],
    ["random", "3", "--seed", "5", "--out", "OUT"],
    ["random", "3", "--seed", "5"],
    ["theta", "mI4", "--tol", "1e-6", "--samples", "2", "--seed", "3"],
    ["theta", "mI4", "--sam", "3"],
    ["oracle", "Q", "--tol", "1e-6"],
    ["dist", "--", "P", "Q"],
    ["dist", "P", "--", "Q"],
    ["dist", "P", "nosuch.json"],
    [],
    ["nosuch"],
    ["nosuch", "P", "Q"],
    ["dis", "P", "Q"],
    ["-h"],
    ["--help"],
    ["-h", "dist"],
    ["dist", "-h"],
    ["dist", "P", "Q", "-h"],
    ["theta", "--help"],
    ["--tol", "1e-6", "dist", "P", "Q"],
    ["dist", "P"],
    ["dist", "P", "Q", "R"],
    ["dist", "P", "Q", "--", "R"],
    ["dist", "P", "Q", "--bogus"],
    ["dist", "P", "Q", "--tol"],
    ["dist", "P", "Q", "--tol", "0"],
    ["dist", "P", "Q", "--tol", "nan"],
    ["theta", "mI4", "--samples", "-1"],
    ["geo", "P", "Q", "--t", "1,inf"],
    ["diam", "x"],
    ["random", "3", "--tol", "1e-8", "extra"],
]


@pytest.fixture
def argv_files(tmp_path):
    return {
        "P": write_matrix(tmp_path, "P.json", random_special_unitary(3, seed=61).entries),
        "Q": write_matrix(tmp_path, "Q.json", random_special_unitary(3, seed=62).entries),
        "P4": write_matrix(tmp_path, "P4.json", random_special_unitary(4, seed=63).entries),
        "mI4": write_matrix(tmp_path, "mI4.json", -np.eye(4)),
        "OUT": str(tmp_path / "out.json"),
    }


def cli_outcome(argv, out_path):
    """Exit code, stdout, stderr and the bytes written to ``out_path`` of one
    in-process call of ``main``; argparse exits through SystemExit."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = Path(out_path).read_bytes() if os.path.exists(out_path) else None
    return code, stdout.getvalue(), stderr.getvalue(), written


@pytest.mark.parametrize("argv", ARGV_TABLE, ids=" ".join)
def test_main_answers_as_the_full_parser(argv, argv_files, monkeypatch):
    """``main`` gives every argv the exit code, stdout, stderr and output file
    that it gives when the argv goes through the full two-level parser: a
    fresh parser whose table of subcommand parsers is empty, so that no argv
    is handed to its subcommand parser directly."""
    argv = [argv_files.get(a, a) for a in argv]
    got = cli_outcome(argv, argv_files["OUT"])
    full = cli.build_parser.__wrapped__()
    full.commands = {}
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda: full)
        expected = cli_outcome(argv, argv_files["OUT"])
    assert got == expected
    assert got[0] in (0, 2, 3, 4)


@pytest.mark.parametrize("stream, argv, code", [
    ("stdout", ["dist", "I2", "mI2"], 0),
    ("stdout", ["random", "64"], 0),     # a report longer than the stream's buffer
    ("stderr", ["dist", "I2", "nosuch.json"], 2),
], ids=["report", "long-report", "error-line"])
def test_a_closed_reader_keeps_the_exit_code(files, stream, argv, code):
    """The report or error line goes to a pipe whose read end is closed
    (``sungeo dist P Q | true``): the request exits with its own code, and
    nothing, no traceback either, reaches the other stream."""
    read, write = os.pipe()
    os.close(read)
    other = "stderr" if stream == "stdout" else "stdout"
    try:
        done = cli_process([files.get(a, a) for a in argv],
                           **{stream: write, other: subprocess.PIPE})
    finally:
        os.close(write)
    assert done.returncode == code
    assert getattr(done, other) == b""
