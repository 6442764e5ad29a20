import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from ehncs import cli
from ehncs.cli import main
from ehncs.config import (ConfigError, build_limiter, build_model, build_setup,
                          parse_config, parse_config_text)
from ehncs.numerics import spectral_radius
from ehncs.plant import design_gain_ce
from ehncs.precoder import decision_region_scan

BUNDLED = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"
# the float and integer literals of an output line
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"[-+]?\d+")


def assert_outputs_agree(lines, lines_other):
    """Two runs' output lines agree: the same first two lines and, after the
    `# numpy=` line, the same text and integers and every float within
    1e-12 relative."""
    assert len(lines) == len(lines_other) and lines[:2] == lines_other[:2]
    for line, line_other in zip(lines[3:], lines_other[3:]):
        parts, parts_other = _NUMBER.split(line), _NUMBER.split(line_other)
        assert parts[::2] == parts_other[::2], (line, line_other)
        for a, b in zip(parts[1::2], parts_other[1::2]):
            if _INTEGER.fullmatch(a):
                assert a == b, (line, line_other)
            else:
                assert abs(float(a) - float(b)) <= 1e-12 * abs(float(a)), (line, line_other)


def small_config_text(**overrides):
    base = BUNDLED.read_text()
    values = dict(n_paths=2, n_slots=25, seed=11)
    values.update(overrides)
    for key, val in values.items():
        lines = []
        replaced = False
        for line in base.splitlines():
            if line.split("=")[0].strip() == key:
                lines.append(f"{key} = {val}")
                replaced = True
            else:
                lines.append(line)
        if not replaced:
            lines.append(f"{key} = {val}")
        base = "\n".join(lines)
    return base


class TestParse:
    def test_bundled_config_round_trip(self):
        cfg = parse_config(BUNDLED)
        assert np.allclose(cfg.A, [[1.3, 0.1], [-0.2, 1.2]])
        assert np.allclose(cfg.W, np.diag([1.0, 2.0]))
        assert cfg.eps == 0.05 and cfg.theta == 80.0 and cfg.tau == 0.01
        assert cfg.N_s == 3 and cfg.N_c == 2 and cfg.K == 2
        assert cfg.arrival == "poisson" and cfg.mean_alpha == 40.0
        assert cfg.sweep_values == [40.0, 60.0, 80.0, 100.0, 120.0]
        setup = build_setup(cfg)
        assert setup.E0 == 40.0  # default half-full battery

    def test_bundled_resource_importable(self):
        text = (resources.files("ehncs") / "configs" / "reference.cfg").read_text()
        parse_config_text(text)

    def test_eps_out_of_range_names_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(eps=1.5))
        assert any(v.startswith("eps") for v in err.value.violations)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(A="[[1.3, 0.1, 0.0], [-0.2, 1.2, 0.0]]"))
        assert any(v.startswith("A") for v in err.value.violations)

    def test_k_exceeds_antennas(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(N_c=1))
        assert any(v.startswith("K") for v in err.value.violations)

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(eps=1.5, theta=-3))
        fields = {v.split(":")[0] for v in err.value.violations}
        assert {"eps", "theta"} <= fields

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(bogus=1))
        assert any(v.startswith("bogus") for v in err.value.violations)

    def test_missing_field_reported(self):
        text = "\n".join(line for line in BUNDLED.read_text().splitlines()
                         if not line.startswith("theta"))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert any("theta: missing" in v for v in err.value.violations)

    def test_duplicate_key_reported(self):
        lines = BUNDLED.read_text().splitlines() + ["theta = 500.0"]
        with pytest.raises(ConfigError) as err:
            parse_config_text("\n".join(lines))
        assert err.value.violations == [f"line {len(lines)}: duplicate key 'theta'"]

    @pytest.mark.parametrize("key, value", [("N_s", "abc"), ("A", "[[1, 'a'], [0, 1]]"),
                                            ("theta", "'x'")])
    def test_malformed_required_key_reported_once(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(**{key: value}))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"{key}: ")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(small_config_text(seed=-3))
        assert any(v.startswith("seed") for v in err.value.violations)

    def test_gain_design_from_weights(self):
        text = small_config_text(P="[[1.0, 0.0], [0.0, 1.0]]",
                                 R="[[1.0, 0.0], [0.0, 1.0]]")
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("Psi"))
        cfg = parse_config_text(text)
        assert np.array_equal(cfg.Psi, design_gain_ce(cfg.A, cfg.B, np.eye(2), np.eye(2)))
        assert spectral_radius(cfg.A - cfg.B @ cfg.Psi @ cfg.A) < 1.0
        build_setup(cfg)

    def test_weight_asymmetry_inside_the_check_tolerance_designs(self):
        # the weight check tolerates this P; the design symmetrizes it
        text = small_config_text(P="[[1.0, 1e-12], [0.0, 1.0]]",
                                 R="[[1.0, 0.0], [0.0, 1.0]]")
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("Psi"))
        cfg = parse_config_text(text)
        ref = design_gain_ce(cfg.A, cfg.B, np.eye(2), np.eye(2))
        assert np.abs(cfg.Psi - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("P, R, message", [
        ("[[-1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.0], [0.0, 1.0]]",
         "P: must be symmetric positive semidefinite (eig_sym: input is not PSD"),
        ("[[1.0, 0.5], [0.0, 1.0]]", "[[1.0, 0.0], [0.0, 1.0]]",
         "P: must be symmetric positive semidefinite (eig_sym: input is not symmetric)"),
        ("[[1.0]]", "[[1.0, 0.0], [0.0, 1.0]]", "P: must be 2 x 2, got shape (1, 1)"),
        ("[[1.0, 0.0], [0.0, 1.0]]", "[[0.0, 0.0], [0.0, 0.0]]",
         "R: must be positive definite (min eigenvalue 0.000e+00)"),
        ("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 2.0], [2.0, 1.0]]",
         "R: must be symmetric positive definite (eig_sym: input is not PSD"),
        ("[[1.0, 0.0], [0.0, 1.0]]", "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]",
         "R: must be 2 x 2, got shape (3, 3)"),
    ])
    def test_weights_outside_the_lqr_assumptions_rejected(self, P, R, message):
        text = small_config_text(P=P, R=R)
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("Psi"))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(message)

    def test_unstabilizable_weights_rejected(self):
        # B = 0 leaves the unstable plant out of reach of any gain
        text = small_config_text(B="[[0.0, 0.0], [0.0, 0.0]]",
                                 P="[[1.0, 0.0], [0.0, 1.0]]",
                                 R="[[1.0, 0.0], [0.0, 1.0]]")
        text = "\n".join(line for line in text.splitlines()
                         if not line.startswith("Psi"))
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert any(v.startswith("P/R: gain design failed") for v in err.value.violations)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "exp.cfg"
        path.write_text(small_config_text(**overrides))
        return path

    def test_run_writes_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1].startswith("# seed=")
        assert lines[2].startswith("# numpy=")
        assert lines[3].split(",")[0] == "path"
        assert len(lines) == 4 + 2 + 2  # header + paths + mean/ci rows

    def test_run_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "run.csv").read_bytes() == \
            (tmp_path / "b" / "run.csv").read_bytes()

    def test_sweep_row_count(self, tmp_path):
        cfg = self.write_config(tmp_path, n_paths=2, n_slots=10,
                                sweep_values="[60.0, 80.0]")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4 + 6 * 2  # headers + column row + policies x values

    def divergent_config(self, tmp_path):
        # the reference at theta = 40, where baseline2's every-third-slot
        # updates let the unstable plant run away on every path
        path = tmp_path / "theta40.cfg"
        path.write_text(small_config_text(seed=20260823, theta=40.0,
                                          sweep_values="[40.0]"))
        return path

    def test_run_divergence_exits_three(self, tmp_path):
        cfg = self.divergent_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--policy", "baseline2", "--paths",
                     "4", "--slots", "300", "--out", str(tmp_path)])
        assert code == cli.EXIT_DIVERGENCE == 3
        lines = (tmp_path / "run.csv").read_text().splitlines()
        column = lines[4].split(",").index("diverged")
        assert [line.split(",")[column] for line in lines[5:9]] == ["1"] * 4
        assert lines[9].startswith("mean,") and lines[9].endswith(",4")

    def test_sweep_divergence_exits_three(self, tmp_path):
        cfg = self.divergent_config(tmp_path)
        code = main(["sweep", "--config", str(cfg), "--paths", "4", "--slots", "300",
                     "--out", str(tmp_path)])
        assert code == cli.EXIT_DIVERGENCE
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        columns = lines[4].split(",")
        n_diverged = {row[0]: row[columns.index("n_diverged")]
                      for row in (line.split(",") for line in lines[5:])}
        assert n_diverged == {name: "4" if name == "baseline2" else "0"
                              for name in cli.POLICY_NAMES}

    def test_analyze_channel_fields_do_not_depend_on_the_seed(self, tmp_path):
        # the reference channel is 2 x 3, whose pi_tilde law is exact; only
        # the arrival-side fields (lhs, margin, eta) move with the seed
        fields = ("rhs_max:", "xi_star:", "delta:", "requirement limiter_eps_cap:",
                  "requirement battery_theta_floor:")
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["analyze", "--config", str(BUNDLED), "--out", str(out),
                         "--seed", seed]) == 0
            lines = (out / "stability_report.txt").read_text().splitlines()
            reports.append([line for line in lines if line.startswith(fields)])
        assert len(reports[0]) == len(fields)
        assert reports[0] == reports[1]

    def test_analyze_writes_report(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "stability_report.txt").read_text()
        assert "satisfied:" in text
        assert "rhs_max:" in text
        assert "requirement limiter_eps_cap" in text

    @pytest.mark.parametrize("arrival", ["deterministic", "poisson"])
    def test_analyze_zero_arrival_mean_is_validation_error(self, tmp_path, capsys,
                                                           arrival):
        # no energy ever arrives, so E[1/alpha] is undefined
        cfg = self.write_config(tmp_path, arrival=arrival, mean_alpha=0.0)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "stability_report.txt").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("tau", "nan", "tau: must be finite"),
        ("mean_alpha", "nan", "mean_alpha: must be finite"),
        ("theta", "1e400", "theta: must be finite"),
        ("A", "[[1e400, 0.1], [-0.2, 1.2]]", "A: entries must be finite"),
        ("sweep_values", "[1, 'a']", "sweep_values: not a list of numbers"),
        ("N_s", "2.9", "N_s: must be an integer"),
        ("n_paths", "2.7", "n_paths: must be an integer"),
    ])
    def test_non_finite_or_non_integral_value_is_validation_error(
            self, tmp_path, capsys, key, value, message):
        cfg = self.write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "stability_report.txt").exists()

    def test_regions_grid(self, tmp_path):
        cfg = self.write_config(tmp_path, A="[[1.6, 0.0], [0.0, 1.1]]",
                                W="[[1.0, 0.0], [0.0, 1.0]]",
                                Psi="[[0.5, 0.0], [0.0, 0.5]]", eps=0.1,
                                theta=36.0, tau=1.0)
        code = main(["regions", "--config", str(cfg), "--out", str(tmp_path),
                     "--grid", "5", "--energy", "12"])
        assert code == 0
        lines = (tmp_path / "regions.csv").read_text().splitlines()
        assert len(lines) == 4 + 25
        # sigma2-major rows of (E, h2, sigma2, count), as the scan lays them out
        parsed = parse_config(cfg)
        model = build_model(parsed)
        h2, sigma2 = np.linspace(1.6, 8.0, 5), np.linspace(20.0, 100.0, 5)
        scan = decision_region_scan(model, build_limiter(parsed, model), 12.0, 4.0,
                                    70.0, h2, sigma2, 36.0, 1.0)
        assert lines[3] == "E,h2,sigma2,active_streams"
        assert lines[4:] == [f"12.0,{h!r},{s!r},{scan['active_streams'][i, j]}"
                             for i, s in enumerate(sigma2.tolist())
                             for j, h in enumerate(h2.tolist())]
        assert len(set(scan["active_streams"].ravel().tolist())) > 1

    @pytest.mark.parametrize("flag, value", [("--grid", "0"), ("--grid", "-1"),
                                             ("--energy", "-5"), ("--energy", "nan")])
    def test_regions_bad_argument_is_validation_error(self, tmp_path, capsys, flag,
                                                      value):
        cfg = self.write_config(tmp_path)
        assert main(["regions", "--config", str(cfg), "--out", str(tmp_path),
                     flag, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "regions.csv").exists()

    @pytest.mark.parametrize("command", ["run", "analyze", "sweep", "regions"])
    def test_negative_seed_flag_is_validation_error(self, tmp_path, capsys, command):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--seed" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["analyze", "--paths", "5"],
                                      ["regions", "--policy", "baseline1"],
                                      ["sweep", "--policy", "baseline1"]])
    def test_flag_the_subcommand_ignores_is_rejected(self, tmp_path, capsys, argv):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_control_weight_is_validation_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, P="[[1.0, 0.0], [0.0, 1.0]]",
                                R="[[0.0, 0.0], [0.0, 0.0]]")
        cfg.write_text("\n".join(line for line in cfg.read_text().splitlines()
                                 if not line.startswith("Psi")))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] \
            == ["error: invalid configuration:"]
        assert "R: must be positive definite" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_in_config_is_validation_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, seed=-3)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] \
            == ["error: invalid configuration:"]
        assert "seed: must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_k_key_is_validation_error(self, tmp_path, capsys):
        # K is read from A, so a config that still sets it is rejected
        cfg = self.write_config(tmp_path, K=2)
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] \
            == ["error: invalid configuration:"]
        assert "K: unknown key" in err and "Traceback" not in err
        assert not out.exists()

    def test_policy_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path),
                     "--policy", "baseline2"])
        assert code == 0

    def test_header_names_the_flags_that_override_the_config(self, tmp_path):
        cfg = self.write_config(tmp_path, n_slots=10, sweep_values="[60.0]")
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "plain")])
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "flags"),
              "--policy", "baseline1", "--paths", "2", "--slots", "10"])
        plain = (tmp_path / "plain" / "run.csv").read_text().splitlines()
        flags = (tmp_path / "flags" / "run.csv").read_text().splitlines()
        assert plain[3].startswith("path,")
        assert flags[:3] == plain[:3]
        assert flags[3] == "# overrides=--paths 2 --slots 10 --policy baseline1"
        assert flags[4] == plain[3]
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
              "--slots", "5"])
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[3] == "# overrides=--slots 5"

    def test_every_output_names_its_numpy_and_blas(self, tmp_path):
        # the third line of run.csv, sweep.csv, regions.csv and
        # stability_report.txt names the NumPy version, the BLAS build and
        # the SIMD target of float64 exp
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        simd = opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]
        expected = (f"# numpy={np.__version__} blas={blas['name']}-{blas['version']} "
                    f"simd={simd}")
        cfg = self.write_config(tmp_path, n_paths=2, n_slots=5, sweep_values="[60.0]")
        for command, name in (("run", "run.csv"), ("sweep", "sweep.csv"),
                              ("analyze", "stability_report.txt")):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[2] == expected
            assert sum(line.startswith("# numpy=") for line in lines) == 1
        assert main(["regions", "--config", str(BUNDLED), "--out", str(tmp_path),
                     "--grid", "2"]) == 0
        assert (tmp_path / "regions.csv").read_text().splitlines()[2] == expected

    def test_outputs_agree_across_simd_targets(self, tmp_path):
        # `analyze` and `regions` on the reference, and `analyze` on a copy
        # with N_c = 3 (CI's three_rx.cfg, the sampled pi_tilde route), in
        # child processes: natively, with the host's above-baseline NumPy
        # dispatch targets disabled, and with OpenBLAS's kernels forced to
        # Haswell (on a host with AVX2 and FMA3), each set only in the
        # child's environment: the same exit codes and discrete fields,
        # every float within 1e-12 relative, and with NumPy's targets
        # disabled a header naming each process's own target
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        features = umath.__cpu_features__
        targets = [t for t in umath.__cpu_dispatch__ if features.get(t)]
        settings = [{"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}] if targets else []
        if features.get("AVX2") and features.get("FMA3"):
            settings.append({"OPENBLAS_CORETYPE": "Haswell"})
        if not settings:
            pytest.skip("no other NumPy or OpenBLAS dispatch target on this host")
        three_rx = tmp_path / "three_rx.cfg"
        three_rx.write_text(re.sub(r"(?m)^N_c = .*$", "N_c = 3", BUNDLED.read_text()))
        assert "\nN_c = 3\n" in three_rx.read_text()
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
        runs = ((["analyze"], BUNDLED, "stability_report.txt"),
                (["regions", "--grid", "10"], BUNDLED, "regions.csv"),
                (["analyze"], three_rx, "stability_report.txt"))
        outputs = []
        for extra in ({}, *settings):
            codes, files = [], []
            for j, (command, config, name) in enumerate(runs):
                out = tmp_path / f"{len(outputs)}-{j}"
                codes.append(subprocess.run(
                    [sys.executable, "-m", "ehncs.cli", *command, "--config", str(config),
                     "--out", str(out)], env={**env, **extra}, timeout=300).returncode)
                files.append((out / name).read_text().splitlines())
            outputs.append((codes, files))
        (codes, native), *others = outputs
        assert codes == [0, 0, 0]
        for extra, (codes_other, other) in zip(settings, others):
            assert codes_other == codes, extra
            for lines, lines_other in zip(native, other):
                if "NPY_DISABLE_CPU_FEATURES" in extra:
                    simd = [line.split("simd=")[1] for line in (lines[2], lines_other[2])]
                    assert simd[0] != simd[1], simd
                assert_outputs_agree(lines, lines_other)

    def test_simulation_outputs_agree_across_dispatch_targets(self, tmp_path):
        # `run` and `sweep` in child processes: natively, with the host's
        # above-baseline NumPy dispatch targets disabled, and with OpenBLAS's
        # kernels forced to Haswell (on a host with AVX2 and FMA3), each set
        # only in the child's environment: the same exit codes and discrete
        # fields, and every float within 1e-12 relative
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        features = umath.__cpu_features__
        targets = [t for t in umath.__cpu_dispatch__ if features.get(t)]
        settings = [{"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}] if targets else []
        if features.get("AVX2") and features.get("FMA3"):
            settings.append({"OPENBLAS_CORETYPE": "Haswell"})
        if not settings:
            pytest.skip("no other NumPy or OpenBLAS dispatch target on this host")
        env = {k: v for k, v in os.environ.items()
               if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
        outputs = []
        for extra in ({}, *settings):
            out = tmp_path / str(len(outputs))
            codes = [subprocess.run([sys.executable, "-m", "ehncs.cli", *command,
                                     "--config", str(BUNDLED), "--out", str(out)],
                                    env={**env, **extra}, timeout=300).returncode
                     for command in (["run", "--paths", "4", "--slots", "20"],
                                     ["sweep", "--paths", "2", "--slots", "10"])]
            outputs.append((codes, *((out / name).read_text().splitlines()
                                     for name in ("run.csv", "sweep.csv"))))
        (codes, *native), *others = outputs
        for codes_other, *other in others:
            assert codes_other == codes
            for lines, lines_other in zip(native, other):
                assert_outputs_agree(lines, lines_other)

    def test_sweep_without_an_axis_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("\n".join(line for line in small_config_text().splitlines()
                                  if not line.startswith("sweep_")))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "sweep_axis/sweep_values: required" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_zero_plant_noise_is_validation_error(self, tmp_path, capsys):
        # the simulation rejects W = 0 before any slot; analyze still reports
        cfg = self.write_config(tmp_path, W="[[0.0, 0.0], [0.0, 0.0]]")
        for command in ("run", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "plant noise W" in err and "Traceback" not in err
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_unknown_policy_is_validation_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--policy", "baseline9"]) == 2

    def test_missing_config_is_validation_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 2

    def test_duplicate_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(small_config_text() + "\neps = 0.5\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "duplicate key 'eps'" in err and "Traceback" not in err
        assert not out.exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = self.write_config(tmp_path, eps=1.5)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
