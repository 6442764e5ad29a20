from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ehncs.cli import main
from ehncs.config import ConfigError, build_setup, parse_config, parse_config_text
from ehncs.numerics import spectral_radius
from ehncs.plant import design_gain_ce

BUNDLED = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"


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
        assert lines[2].split(",")[0] == "path"
        assert len(lines) == 3 + 2 + 2  # header + paths + mean/ci rows

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
        assert len(lines) == 3 + 6 * 2  # headers + column row + policies x values

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
        assert len(lines) == 3 + 25

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
