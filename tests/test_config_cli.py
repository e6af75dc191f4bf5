import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cyberinvest import ConfigError, load_field, save_field, validate
from cyberinvest.cli import main
from cyberinvest.config import COARSE_PRESET

REPO = Path(__file__).resolve().parents[1]
STANDARD = REPO / "configs" / "standard.cfg"

TINY = """
[grid]
lambda_max = 57
d_lambda = 3
h_max = 10
d_h = 1
time_steps = 20

[premium]
mc_paths = 20000
"""


class TestValidate:
    def test_standard_file_matches_default_parameter_set(self):
        cfg = validate(STANDARD, use_env=False)
        assert (cfg.hawkes.alpha, cfg.hawkes.lambda0, cfg.hawkes.xi, cfg.hawkes.beta) == (27, 27, 15, 9)
        assert (cfg.breach.v, cfg.breach.a, cfg.breach.b) == (0.65, 0.1, 1.0)
        assert cfg.costs.gamma == 0.05 and cfg.costs.eta_mean == 10.0
        assert cfg.costs.rho == 0.2 and cfg.costs.horizon == 1.0
        assert cfg.costs.terminal_utility == "sqrt" and cfg.costs.delta == 1.0
        assert cfg.grid.lambda_min == 27.0 and cfg.grid.lambda_max == 216.0
        assert cfg.grid.d_lambda == 1.0 and cfg.grid.d_h == 0.5
        assert cfg.grid.h_min == 0.0 and cfg.grid.h_max == 50.0
        assert cfg.theta == 0.3 and cfg.eta_vars == (10.0, 50.0, 100.0)

    def test_defaults_without_file(self):
        cfg = validate(use_env=False)
        assert cfg.costs.gamma == 0.05  # default applied when the key is missing
        assert cfg.mc_paths == 100_000

    def test_stability_rejected_with_diagnostic(self):
        with pytest.raises(ConfigError) as err:
            validate("[hawkes]\nbeta = 20\n", use_env=False)
        assert any("beta" in d and "xi" in d for d in err.value.diagnostics)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate("[hawkes]\nfoo = 3\n", use_env=False)
        assert any("foo" in d for d in err.value.diagnostics)

    def test_retired_solver_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate("[solver]\nmethod = Radau\n", use_env=False)
        assert err.value.diagnostics == ["unknown key 'method' in section [solver]"]

    def test_multiple_diagnostics_collected(self):
        with pytest.raises(ConfigError) as err:
            validate("[hawkes]\nbeta = 20\n[breach]\nv = 7\n", use_env=False)
        assert len(err.value.diagnostics) >= 2

    @pytest.mark.parametrize("garbage", ["= = =", "[hawkes\nalpha", "[costs]\ngamma = banana\n"])
    def test_total_on_garbage(self, garbage):
        with pytest.raises(ConfigError):
            validate(garbage, use_env=False)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CYBERINVEST_HAWKES__BETA", "0")
        cfg = validate()
        assert cfg.hawkes.beta == 0.0

    def test_grid_must_cover_lambda0(self):
        with pytest.raises(ConfigError) as err:
            validate("[grid]\nlambda_min = 40\nlambda_max = 60\nd_lambda = 1\n", use_env=False)
        assert any("lambda0" in d for d in err.value.diagnostics)

    def test_coarse_preset(self):
        cfg = validate(use_env=False).coarse()
        assert cfg.grid.d_lambda == COARSE_PRESET["d_lambda"]
        assert cfg.grid.d_h == COARSE_PRESET["d_h"]
        assert cfg.grid.lambda_max == COARSE_PRESET["lambda_max"]


class TestFieldIO:
    def test_round_trip(self, tmp_path, coarse_solution):
        save_field(coarse_solution.value, tmp_path / "v")
        loaded = load_field(tmp_path / "v")
        np.testing.assert_array_equal(loaded.values, coarse_solution.value.values)
        assert loaded.meta.hawkes == coarse_solution.value.meta.hawkes
        assert loaded.grid.d_lambda == coarse_solution.value.grid.d_lambda

    def test_checksum_detects_corruption(self, tmp_path, coarse_solution):
        save_field(coarse_solution.value, tmp_path / "v")
        raw = bytearray((tmp_path / "v.f64").read_bytes())
        raw[100] ^= 0xFF
        (tmp_path / "v.f64").write_bytes(bytes(raw))
        with pytest.raises(OSError):
            load_field(tmp_path / "v")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_field(tmp_path / "nothing")

    @staticmethod
    def write_field_with_options(prefix, options):
        """A 2-snapshot, 2x2 value field in the on-disk format, with the given solver options."""
        data = np.arange(8, dtype="<f8")
        meta = {
            "format_version": 1,
            "kind": "value",
            "dimension": "hawkes",
            "poisson_intensity": None,
            "extrapolation": "clamp-at-lambda-max",
            "grid": {
                "lambda_min": 27.0, "lambda_max": 36.0, "d_lambda": 9.0,
                "h_min": 0.0, "h_max": 1.0, "d_h": 1.0, "t_snapshots": [1.0, 0.0],
            },
            "hawkes": {"alpha": 27.0, "lambda0": 27.0, "xi": 15.0, "beta": 9.0},
            "breach": {"family": "class1", "v": 0.65, "a": 0.1, "b": 1.0},
            "costs": {
                "gamma": 0.05, "eta_mean": 10.0, "eta_var": 10.0, "rho": 0.2, "horizon": 1.0,
                "terminal_utility": "sqrt", "delta": 1.0, "eta_family": "lognormal",
            },
            "options": options,
            "shape": [2, 2, 2],
            "dtype": "<f8",
            "order": "(snapshot, lambda, h)",
            "checksum_sha256": hashlib.sha256(data.tobytes()).hexdigest(),
        }
        prefix.with_suffix(".f64").write_bytes(data.tobytes())
        prefix.with_suffix(".json").write_text(json.dumps(meta))
        return data

    def test_loads_field_with_retired_integrator_options(self, tmp_path):
        # fields written by the former Radau solver carry rtol, atol and method
        old = {"rtol": 1e-6, "atol": 1e-9, "method": "Radau", "upwind": False,
               "jump_interp": False, "interp_query": True, "max_nodes": 200_000_000}
        data = self.write_field_with_options(tmp_path / "v", old)
        loaded = load_field(tmp_path / "v")
        np.testing.assert_array_equal(loaded.values.ravel(), data)
        assert loaded.meta.options.interp_query is True

    def test_unknown_option_still_rejected(self, tmp_path):
        self.write_field_with_options(tmp_path / "v", {"upwind": False, "foo": 1})
        with pytest.raises(TypeError):
            load_field(tmp_path / "v")


class TestCli:
    def run(self, tmp_path, *argv):
        cfgize = [a.replace("@TMP@", str(tmp_path)) for a in argv]
        return main(cfgize)

    def write_tiny(self, tmp_path):
        p = tmp_path / "tiny.cfg"
        p.write_text(TINY)
        return str(p)

    def test_validate_ok(self, tmp_path, capsys):
        assert main(["validate", "--config", str(STANDARD)]) == 0
        assert "configuration OK" in capsys.readouterr().out

    def test_validate_bad_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[hawkes]\nbeta = 99\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "stability" in capsys.readouterr().err

    def test_missing_field_exit_4(self, tmp_path, capsys):
        cfg = self.write_tiny(tmp_path)
        rc = main(["trace", "--config", cfg, "--field", str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc == 4

    def test_moments_output(self, capsys):
        assert main(["moments", "--times", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "67.3996105368" in out and "60.7667315772" in out
        assert "308.99775755" in out

    def test_static_gl_output(self, capsys):
        assert main(["static-gl", "--p", "1", "--loss", "400"]) == 0
        assert "40.9901951359" in capsys.readouterr().out

    def test_solve_trace_gain_pipeline(self, tmp_path, capsys):
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out, "--csv"]) == 0
        for name in ("value.json", "value.f64", "policy.json", "policy.f64", "quality.json", "field.csv"):
            assert (Path(out) / name).exists()
        assert main(["solve-poisson", "--config", cfg, "--mode", "baseline", "--out", out]) == 0
        assert main(
            ["trace", "--config", cfg, "--field", f"{out}/policy", "--n-paths", "2", "--out", out]
        ) == 0
        trace = (Path(out) / "trace_0.csv").read_text().splitlines()
        assert trace[0] == "t,lambda,z,H"
        path_csv = (Path(out) / "path_0.csv").read_text().splitlines()
        assert path_csv[0] == "index,tau"
        assert main(
            [
                "gain",
                "--config",
                cfg,
                "--value-field",
                f"{out}/value",
                "--benchmark",
                "poisson-baseline",
                "--poisson-field",
                f"{out}/poisson_baseline",
                "--hs",
                "0,2",
                "--out",
                out,
            ]
        ) == 0
        gains = (Path(out) / "gains.csv").read_text().splitlines()
        assert gains[0] == "t,lambda,h,gain_pct,benchmark"
        assert len(gains) == 3

    def test_solve_rerun_byte_identical(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["solve", "--config", cfg, "--out", out1]) == 0
        assert main(["solve", "--config", cfg, "--out", out2]) == 0
        for name in ("value.f64", "policy.f64", "value.json", "policy.json"):
            a = (Path(out1) / name).read_bytes()
            b = (Path(out2) / name).read_bytes()
            assert a == b

    def test_premium_command(self, tmp_path):
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        rc = main(["premium", "--config", cfg, "--policy-field", f"{out}/policy", "--out", out, "--mc-paths", "20000"])
        assert rc == 0
        head = (Path(out) / "table_premia.csv").read_text().splitlines()[0]
        assert head == "eta_mean,eta_var,premium_baseline,premium_optimal,reduction_pct"

    def test_zero_vulnerability_traces_are_flat(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY + "\n[breach]\nv = 0\n\n[costs]\nutility = zero\n")
        out = str(tmp_path / "z")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        assert main(["trace", "--config", str(cfg), "--field", f"{out}/policy", "--n-paths", "1", "--out", out]) == 0
        rows = (Path(out) / "trace_0.csv").read_text().splitlines()[1:]
        zs = [float(r.split(",")[2]) for r in rows]
        assert all(z == 0.0 for z in zs)
