import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cyberinvest as ci
from cyberinvest import ConfigError, load_field, save_field, validate
from cyberinvest.cli import main
from cyberinvest.config import COARSE_PRESET
from cyberinvest.hjb import FieldMeta

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

    def test_stability_rejected_with_diagnostic(self):
        with pytest.raises(ConfigError) as err:
            validate("[hawkes]\nbeta = 20\n", use_env=False)
        assert any("beta" in d and "xi" in d for d in err.value.diagnostics)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate("[hawkes]\nfoo = 3\n", use_env=False)
        assert any("foo" in d for d in err.value.diagnostics)

    def test_retired_solver_key_rejected(self):
        # the scheme has no option left, so the whole [solver] section is retired
        with pytest.raises(ConfigError) as err:
            validate("[solver]\nmethod = Radau\n", use_env=False)
        assert err.value.diagnostics == ["unknown section [solver]"]

    def test_each_eta_var_checked_against_the_costs(self):
        # the premium command prices every eta_var under [costs], and a fixed loss has no variance
        with pytest.raises(ConfigError) as err:
            validate("[costs]\neta_family = fixed\neta_var = 0\n[premium]\neta_vars = 0,50\n", use_env=False)
        assert err.value.diagnostics == ["[premium] eta_vars 50: fixed loss family requires eta_var = 0"]

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
        fine = validate(use_env=False)
        cfg = fine.coarse()
        assert cfg.grid.d_lambda == COARSE_PRESET["d_lambda"]
        assert cfg.grid.d_h == COARSE_PRESET["d_h"]
        # the preset coarsens the steps and keeps the configured domain
        assert (cfg.grid.lambda_min, cfg.grid.lambda_max) == (fine.grid.lambda_min, fine.grid.lambda_max)
        assert (cfg.grid.h_min, cfg.grid.h_max) == (fine.grid.h_min, fine.grid.h_max)
        np.testing.assert_array_equal(cfg.grid.t_snapshots, fine.grid.t_snapshots)


class TestFieldIO:
    def test_round_trip(self, tmp_path, coarse_solution):
        save_field(coarse_solution.value, tmp_path / "v")
        loaded = load_field(tmp_path / "v")
        np.testing.assert_array_equal(loaded.values, coarse_solution.value.values)
        assert loaded.meta == coarse_solution.value.meta
        # every field has the one scheme, so the file carries no scheme tag, and nothing the grid fixes
        meta = json.loads((tmp_path / "v.json").read_text())
        assert not {"options", "extrapolation", "shape", "dtype", "order"} & meta.keys()
        assert meta["format_version"] == 2 and meta["grid"] == dataclasses.asdict(coarse_solution.value.grid)
        assert loaded.grid == coarse_solution.value.grid

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

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw + bytes(8)], ids=["truncated", "extended"])
    def test_wrong_length_rejected(self, tmp_path, edit):
        data = self.write_field_with_options(tmp_path / "v", {"upwind": False})
        # the checksum in the metadata matches the edited bytes, so only the length is wrong
        raw = edit(data.tobytes())
        meta = json.loads((tmp_path / "v.json").read_text())
        meta["checksum_sha256"] = hashlib.sha256(raw).hexdigest()
        (tmp_path / "v.json").write_text(json.dumps(meta))
        (tmp_path / "v.f64").write_bytes(raw)
        with pytest.raises(OSError, match="64 bytes"):
            load_field(tmp_path / "v")

    def test_load_holds_one_copy(self, tmp_path, coarse_solution):
        save_field(coarse_solution.policy, tmp_path / "p")
        tracemalloc.start()
        try:
            loaded = load_field(tmp_path / "p")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.controls, coarse_solution.policy.controls)
        assert loaded.meta == coarse_solution.policy.meta
        assert peak <= 1.1 * loaded.controls.nbytes

    def test_written_bytes_pinned(self, tmp_path):
        # digests of the two files: the .f64 as written before save_field hashed the
        # array it writes instead of serializing it a second time, the .json since
        # format 2 stores the grid as its eight numbers, with no snapshot times,
        # shape, dtype or order
        expected = (
            "0b2a9d473f9a5678cff17a606b7cef428f4b7e4be3a1bec96329679622c0a813",
            "30d2bc565e5c29f30d6ce2adbfbf757cae5fa96ffd6547013954f0736949fffe",
        )
        grid = ci.SolverGrid(27.0, 36.0, 9.0, 0.0, 1.0, 1.0, 1.0, 1)
        costs = ci.CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0)
        model = ci.BreachModel(ci.BreachFamily.CLASS_I, 0.65, 0.1, 1.0)
        meta = FieldMeta(ci.HawkesParams(27.0, 27.0, 15.0, 9.0), model, costs)
        values = np.arange(8.0).reshape(2, 2, 2) / 3.0
        # a big-endian, column-major copy of the same numbers writes the same bytes
        for data in (values, np.asfortranarray(values.astype(">f8"))):
            save_field(ci.ValueField(grid, data, meta), tmp_path / "v")
            digests = tuple(hashlib.sha256((tmp_path / f"v.{ext}").read_bytes()).hexdigest() for ext in ("f64", "json"))
            assert digests == expected

    @staticmethod
    def write_field_with_options(prefix, options, **edits):
        """A 2-snapshot value field in the on-disk format, 2x2 unless `edits` give another grid
        and shape, with the given solver options and top-level metadata `edits`."""
        meta = {
            "format_version": 1,
            "kind": "value",
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
            **edits,
        }
        data = np.arange(np.prod(meta["shape"]), dtype="<f8")
        meta["checksum_sha256"] = hashlib.sha256(data.tobytes()).hexdigest()
        prefix.with_suffix(".f64").write_bytes(data.tobytes())
        prefix.with_suffix(".json").write_text(json.dumps(meta))
        return data

    # the model that write_field_with_options records
    META = FieldMeta(
        ci.HawkesParams(27.0, 27.0, 15.0, 9.0),
        ci.BreachModel(ci.BreachFamily.CLASS_I, 0.65, 0.1, 1.0),
        ci.CostParams(gamma=0.05, eta_mean=10.0, eta_var=10.0, rho=0.2, horizon=1.0),
    )

    def test_loads_field_with_retired_integrator_options(self, tmp_path):
        # fields written by the former Radau solver carry rtol, atol and method,
        # and older fields the query-mode default and the node limit
        old = {"rtol": 1e-6, "atol": 1e-9, "method": "Radau", "upwind": False,
               "jump_interp": False, "interp_query": True, "max_nodes": 200_000_000}
        data = self.write_field_with_options(tmp_path / "v", old)
        loaded = load_field(tmp_path / "v")
        np.testing.assert_array_equal(loaded.values.ravel(), data)
        assert loaded.meta == self.META

    @pytest.mark.parametrize("jump_interp", [False, True])
    def test_loads_field_with_jump_interp(self, tmp_path, jump_interp):
        # either setting of the retired switches, and either closure tag: the shift now always
        # interpolates, which on a whole-node shift is the former node shift, and the scheme is fixed
        extrapolation = "linear-past-lambda-max" if jump_interp else "clamp-at-lambda-max"
        self.write_field_with_options(tmp_path / "v", {"upwind": True, "jump_interp": jump_interp}, extrapolation=extrapolation)
        assert load_field(tmp_path / "v").meta == self.META

    def test_unknown_kind_rejected(self, tmp_path):
        self.write_field_with_options(tmp_path / "v", {"upwind": False}, kind="valu")
        with pytest.raises(OSError, match="unknown field kind 'valu'"):
            load_field(tmp_path / "v")

    def test_loads_files_with_retired_poisson_marker(self, tmp_path):
        # earlier versions wrote "dimension" and "poisson_intensity"; a one-node
        # intensity axis alone now marks a constant-intensity field
        self.write_field_with_options(tmp_path / "v", {}, dimension="hawkes", poisson_intensity=None)
        assert load_field(tmp_path / "v").meta == self.META
        one_node = {
            "lambda_min": 27.0, "lambda_max": 27.0, "d_lambda": 9.0,
            "h_min": 0.0, "h_max": 1.0, "d_h": 1.0, "t_snapshots": [1.0, 0.0],
        }
        for kind in ("value", "policy"):
            self.write_field_with_options(
                tmp_path / f"p_{kind}", {}, kind=kind, grid=one_node, shape=[2, 1, 2],
                dimension="poisson", poisson_intensity=27.0,
            )
        bench = ci.load_poisson(tmp_path / "p")
        assert bench.intensity == 27.0 and bench.grid.n_lambda == 1
        assert bench.value.meta == bench.policy.meta == self.META

    def test_format_1_grid_is_its_numbers(self, tmp_path):
        # a format-1 file stored its snapshot times; the regular ones give the equal grid
        data = self.write_field_with_options(tmp_path / "v", {})
        loaded = load_field(tmp_path / "v")
        assert loaded.grid == ci.SolverGrid(27.0, 36.0, 9.0, 0.0, 1.0, 1.0, 1.0, 1)
        np.testing.assert_array_equal(loaded.values.ravel(), data)

    @pytest.mark.parametrize("snaps", [[1.0, 0.25, 0.0], [1.0, 0.5, 0.25], [1.0], []], ids=["uneven", "not-to-0", "one", "none"])
    def test_format_1_irregular_snapshots_rejected(self, tmp_path, snaps):
        grid = {"lambda_min": 27.0, "lambda_max": 36.0, "d_lambda": 9.0, "h_min": 0.0, "h_max": 1.0, "d_h": 1.0}
        self.write_field_with_options(tmp_path / "v", {}, grid={**grid, "t_snapshots": snaps}, shape=[max(len(snaps), 1), 2, 2])
        with pytest.raises(OSError, match=r"v\.json: metadata does not describe a field"):
            load_field(tmp_path / "v")

    BAD_META = [
        ("hawkes", {"alpha": 27.0, "lambda0": 27.0, "xi": 15.0, "beta": 20.0}, "StabilityError"),
        ("costs", {"gamma": 0.05, "eta_mean": 10.0, "eta_var": 10.0, "horizon": 1.0}, "TypeError"),
        ("breach", {"family": "class3", "v": 0.65, "a": 0.1, "b": 1.0}, "ValueError"),
        ("breach", {"family": "class1", "v": 0.65, "a": 0.1}, "KeyError"),
        ("grid", {"lambda_min": 27.0, "lambda_max": 36.0, "d_lambda": 9.0, "h_min": 0.0, "h_max": 1.0, "d_h": 1.0,
                  "horizon": 1.0, "time_steps": 0}, "ValueError"),
        ("grid", {"lambda_min": 27.0, "lambda_max": 36.0, "d_lambda": 9.0, "h_min": 0.0, "h_max": 1.0, "d_h": 1.0,
                  "horizon": 1.0}, "TypeError"),
        ("kind", None, "KeyError"),
    ]

    @pytest.mark.parametrize("key, value, error", BAD_META, ids=["beta", "no-rho", "family", "no-b", "no-steps", "steps-missing", "no-kind"])
    def test_bad_metadata_is_an_io_error(self, tmp_path, key, value, error):
        self.write_field_with_options(tmp_path / "v", {})
        meta = json.loads((tmp_path / "v.json").read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        (tmp_path / "v.json").write_text(json.dumps(meta))
        with pytest.raises(OSError, match=rf"v\.json: metadata does not describe a field: {error}"):
            load_field(tmp_path / "v")

    def test_length_checked_before_the_buffer_is_allocated(self, tmp_path):
        # 10^12 steps of a 2x2 grid would be a 32 TB buffer; the 64-byte file is rejected first
        self.write_field_with_options(tmp_path / "v", {})
        meta = json.loads((tmp_path / "v.json").read_text())
        meta["grid"]["t_snapshots"] = np.linspace(1.0, 0.0, 3).tolist()
        (tmp_path / "v.json").write_text(json.dumps(meta))
        with pytest.raises(OSError, match=r"not hold exactly the 96 bytes of a \(3, 2, 2\) field"):
            load_field(tmp_path / "v")
        del meta["grid"]["t_snapshots"]
        (tmp_path / "v.json").write_text(json.dumps({**meta, "grid": {**meta["grid"], "horizon": 1.0, "time_steps": 10**12}}))
        with pytest.raises(OSError, match="does not hold exactly the 32000000000032 bytes"):
            load_field(tmp_path / "v")

    def test_metadata_not_json_is_an_io_error(self, tmp_path):
        self.write_field_with_options(tmp_path / "v", {})
        (tmp_path / "v.json").write_text("{")
        with pytest.raises(OSError, match="metadata does not describe a field: JSONDecodeError"):
            load_field(tmp_path / "v")

    def test_unknown_option_still_rejected(self, tmp_path):
        self.write_field_with_options(tmp_path / "v", {"upwind": False, "foo": 1})
        with pytest.raises(OSError, match=r"unknown solver options \['foo'\]"):
            load_field(tmp_path / "v")


@pytest.fixture(scope="module")
def coarse_tables(tmp_path_factory):
    """The coarse standard value field and baseline Poisson pair, seed 0."""
    out = tmp_path_factory.mktemp("coarse")
    common = ["--config", str(STANDARD), "--coarse", "--out", str(out)]
    assert main(["solve", *common]) == 0
    assert main(["solve-poisson", "--mode", "baseline", *common]) == 0
    return out


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
        assert main(["validate", "--config", str(STANDARD), "--coarse"]) == 0
        assert "configuration OK" in capsys.readouterr().out
        # no command takes a Monte Carlo path count: the premium report simulates no path
        with pytest.raises(SystemExit):
            main(["validate", "--config", str(STANDARD), "--mc-paths", "20000"])
        assert "unrecognized arguments: --mc-paths" in capsys.readouterr().err

    def test_coarse_off_the_coarse_lattice_exit_2(self, monkeypatch, capsys):
        # 216 - 28 = 188 intensity units: whole steps at d_lambda = 1, not at 3
        for key in ("GRID__LAMBDA_MIN", "HAWKES__LAMBDA0", "HAWKES__ALPHA"):
            monkeypatch.setenv(f"CYBERINVEST_{key}", "28")
        assert main(["validate", "--config", str(STANDARD)]) == 0
        capsys.readouterr()
        assert main(["validate", "--config", str(STANDARD), "--coarse"]) == 2
        err = capsys.readouterr().err
        assert "[grid] lambda_min=28..lambda_max=216" in err and "d_lambda=3" in err

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            ("[solver]\ninterp_query = true\n", "unknown section [solver]"),
            ("[solver]\nmax_nodes = 10\n", "unknown section [solver]"),
            ("[benchmark]\npoisson_mode = baseline\n", "unknown section [benchmark]"),
            ("[premium]\nmc_paths = 100000\n", "unknown key 'mc_paths' in section [premium]"),
            ("[run]\nthreads = 2\n", "unknown key 'threads' in section [run]"),
            ("[solver]\njump_interp = true\n", "unknown section [solver]"),
            ("[solver]\nupwind = true\n", "unknown section [solver]"),
        ],
        ids=["interp_query", "max_nodes", "poisson_mode", "mc_paths", "threads", "jump_interp", "upwind"],
    )
    def test_retired_keys_exit_2(self, tmp_path, capsys, text, diagnostic):
        cfg = tmp_path / "retired.cfg"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert diagnostic in capsys.readouterr().err

    NON_FINITE = [
        ("COSTS__GAMMA=nan", "[costs] gamma must be finite"),
        ("COSTS__RHO=nan", "[costs] rho must be finite"),
        ("COSTS__ETA_MEAN=inf", "[costs] eta_mean must be finite"),
        ("COSTS__ETA_VAR=inf", "[costs] eta_var must be finite"),
        ("COSTS__DELTA=nan", "[costs] delta must be finite"),
        ("BREACH__A=nan", "[breach] shape parameter a must be finite"),
        ("BREACH__B=inf", "[breach] shape parameter b must be finite"),
        ("GRID__LAMBDA_MAX=inf", "[grid] lambda_max must be finite"),
        ("GRID__D_H=inf", "[grid] d_h must be finite"),
        ("GRID__H_MAX=nan", "[grid] h_max must be finite"),
        ("GRID__D_H=1e-320", "[grid] d_h=1e-320 is too small: (h_max - h_min) / d_h overflows"),
        ("PREMIUM__THETA=nan", "[premium] theta must be finite"),
        ("PREMIUM__ETA_VARS=10,nan", "[premium] eta_vars nan: eta_var must be finite"),
        ("PREMIUM__ETA_VARS=-5", "[premium] eta_vars -5: breach-loss variance must be nonnegative"),
    ]

    @pytest.mark.parametrize("override, diagnostic", NON_FINITE, ids=[o for o, _ in NON_FINITE])
    def test_non_finite_value_exit_2(self, monkeypatch, capsys, override, diagnostic):
        # one diagnostic naming the key, before any solve
        key, value = override.split("=")
        monkeypatch.setenv(f"CYBERINVEST_{key}", value)
        assert main(["validate", "--config", str(STANDARD)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err
        assert err.count("\n  - ") == 1 and diagnostic in err

    @pytest.mark.parametrize("steps", ["0", "-1", "2.5"])
    def test_time_steps_not_a_positive_int_exit_2(self, monkeypatch, capsys, steps):
        monkeypatch.setenv("CYBERINVEST_GRID__TIME_STEPS", steps)
        assert main(["validate", "--config", str(STANDARD)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - ") == 1 and "[grid] time_steps" in err and "Traceback" not in err

    @pytest.mark.parametrize("loss", ["inf", "nan"])
    def test_static_gl_non_finite_loss_exit_2(self, capsys, loss):
        assert main(["static-gl", "--loss", loss]) == 2
        assert f"loss must be finite and nonnegative, got {loss}" in capsys.readouterr().err

    def test_threads_flag_retired(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_validate_bad_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[hawkes]\nbeta = 99\n")
        assert main(["validate", "--config", str(bad)]) == 2
        assert "stability" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--times", "0,abc"],
            ["moments", "--times", "-1"],
            ["static-gl", "--p", "2"],
            ["gain", "--value-field", "@OUT@/value", "--lambdas", "27,x"],
            ["gain", "--value-field", "@OUT@/value", "--hs", "1,x"],
            ["trace", "--field", "@OUT@/policy", "--n-paths", "-1"],
        ],
        ids=["times-not-a-number", "times-negative", "p-above-one", "lambdas", "hs", "n-paths-negative"],
    )
    def test_bad_flag_value_exit_2(self, tmp_path, capsys, argv):
        # an exception escaping main, the traceback of the command line, fails the call itself
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        if any("@OUT@" in a for a in argv):
            assert main(["solve", "--config", cfg, "--out", out]) == 0
            capsys.readouterr()
        argv = [a.replace("@OUT@", out) for a in argv]
        assert main([*argv, "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:") and "Traceback" not in captured.err
        assert argv[-2] in captured.err and "wrote" not in captured.out

    def test_missing_field_exit_4(self, tmp_path, capsys):
        cfg = self.write_tiny(tmp_path)
        rc = main(["trace", "--config", cfg, "--field", str(tmp_path / "nope"), "--out", str(tmp_path)])
        assert rc == 4

    @pytest.mark.parametrize("h_init", ["-1", "nan", "inf"])
    def test_trace_bad_initial_level_exit_2(self, tmp_path, capsys, h_init):
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        argv = ["trace", "--config", cfg, "--field", f"{out}/policy", "--out", out, f"--h-init={h_init}"]
        assert main(argv) == 2
        assert "initial level must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("hs", ["-5", "nan", "1,inf"])
    @pytest.mark.parametrize("against", ["constant", "poisson-baseline"])
    def test_gain_bad_level_exit_2(self, tmp_path, capsys, against, hs):
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert main(["solve-poisson", "--config", cfg, "--mode", "baseline", "--out", out]) == 0
        argv = ["gain", "--config", cfg, "--value-field", f"{out}/value", "--benchmark", against]
        argv += ["--poisson-field", f"{out}/poisson_baseline", f"--hs={hs}", "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "gain at t=0, lambda=27" in err and "finite" in err
        assert not (Path(out) / f"gain_{against}.csv").exists()

    @pytest.mark.parametrize(
        "states, shown",
        [
            (["--lambdas", "1000", "--hs", "5"], "lambda=1000, h=5"),
            (["--lambdas", "10"], "lambda=10, h=0.5"),
            (["--hs", "80"], "lambda=27, h=80"),
        ],
        ids=["lambda-above", "lambda-below", "h-above"],
    )
    @pytest.mark.parametrize("against", ["constant", "poisson-baseline"])
    def test_gain_off_the_field_exit_2(self, coarse_tables, capsys, against, states, shown):
        """A state off the coarse field's box [27, 216] x [0, 50] is one
        diagnostic and exit 2, not a gain read at the box's edge."""
        argv = ["gain", "--config", str(STANDARD), "--coarse", "--value-field", f"{coarse_tables}/value"]
        argv += ["--benchmark", against, "--poisson-field", f"{coarse_tables}/poisson_baseline", *states]
        out = coarse_tables / against
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a diagnostic, not a warning and a number
            assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n  - ") == 1
        assert f"gain at t=0, {shown}:" in err and "lies outside the field's box [27, 216] x [0, 50]" in err
        assert not (out / f"gain_{against}.csv").exists()

    def test_gain_has_no_step_in_t(self, coarse_tables):
        """gain --t reads the value field linearly in t between snapshots, so
        across t = 0.0025, the midpoint of the coarse field's first interval
        [0, 0.005], where the nearest snapshot changes, the gain moves in
        even steps."""
        out = coarse_tables / "gain-t"
        argv = ["gain", "--config", str(STANDARD), "--coarse", "--value-field", f"{coarse_tables}/value"]
        argv += ["--lambdas", "27", "--hs", "1", "--out", str(out)]
        gains = []
        for t in np.linspace(0.0015, 0.0035, 9):
            assert main(argv + ["--t", repr(float(t))]) == 0
            gains.append(float((out / "gain_constant.csv").read_text().splitlines()[1].split(",")[3]))
        steps = np.diff(gains)
        assert steps.min() > 0.0 and steps.max() <= 1.1 * steps.min(), gains

    def test_gain_undefined_exit_2(self, tmp_path, capsys):
        # an invulnerable firm with zero terminal utility: every benchmark value is 0
        cfg = tmp_path / "invulnerable.cfg"
        cfg.write_text(TINY + "\n[breach]\nv = 0\n\n[costs]\nutility = zero\n")
        out = str(tmp_path / "run")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        assert main(["gain", "--config", str(cfg), "--value-field", f"{out}/value", "--hs", "0", "--out", out]) == 2
        assert "benchmark value 0.0 is not positive" in capsys.readouterr().err

    @pytest.mark.parametrize("against", ["constant", "poisson-baseline"])
    def test_gain_on_field_of_another_model_exit_2(self, tmp_path, monkeypatch, capsys, against):
        cfg = self.write_tiny(tmp_path)
        out = str(tmp_path / "run")
        assert main(["solve", "--config", cfg, "--out", out]) == 0
        assert main(["solve-poisson", "--config", cfg, "--mode", "baseline", "--out", out]) == 0
        capsys.readouterr()
        monkeypatch.setenv("CYBERINVEST_HAWKES__BETA", "3")
        monkeypatch.setenv("CYBERINVEST_COSTS__GAMMA", "0.5")
        argv = ["gain", "--config", cfg, "--value-field", f"{out}/value", "--benchmark", against]
        argv += ["--poisson-field", f"{out}/poisson_baseline", "--hs", "0", "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        # one diagnostic per part that differs, not one per grid point
        assert err.count("\n  - field solved for ") == 2 and "gain at" not in err and "Traceback" not in err
        assert "HawkesParams(alpha=27.0, lambda0=27.0, xi=15.0, beta=9.0)" in err and "CostParams(gamma=0.05" in err
        assert not (Path(out) / f"gain_{against}.csv").exists()

    def test_trace_on_field_of_another_model_exit_2(self, tmp_path, monkeypatch, capsys):
        # the paths follow the configured Hawkes process, so the policy must be solved for it
        cfg = self.write_tiny(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("CYBERINVEST_HAWKES__BETA", "3")
        argv = ["trace", "--config", cfg, "--field", f"{out}/policy", "--n-paths", "1", "--out", str(out / "t")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n  - field solved for ") == 1 and "HawkesParams(alpha=27.0, lambda0=27.0, xi=15.0, beta=9.0)" in err
        assert not (out / "t" / "trace_0.csv").exists()

    @pytest.mark.parametrize(
        "command, field, part, edit, error",
        [
            (["premium", "--policy-field"], "policy", "hawkes", lambda d: d.update(beta=20.0), "StabilityError"),
            (["gain", "--value-field"], "value", "costs", lambda d: d.pop("rho"), "TypeError"),
            (["trace", "--field"], "policy", "grid", lambda d: d.update(time_steps=2.5), "ValueError"),
        ],
        ids=["premium-beta", "gain-no-rho", "trace-steps"],
    )
    def test_field_with_bad_metadata_exit_4(self, tmp_path, capsys, command, field, part, edit, error):
        cfg = self.write_tiny(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / f"{field}.json").read_text())
        edit(meta[part])
        (out / f"{field}.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main([*command, str(out / field), "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: {out / field}.json: metadata does not describe a field: {error}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value, policy, message",
        [
            ("poisson_baseline_value", "poisson_baseline_value", "must hold a value and a policy field"),
            ("value", "policy", "does not hold a constant-intensity benchmark field"),
            ("poisson_baseline_value", "policy", "different grids"),
            ("poisson_baseline_value", "poisson_expectation_policy", "different grids"),
            ("poisson_baseline_value", "rho/poisson_baseline_policy", "different models"),
        ],
        ids=["policy-is-a-value-field", "hawkes-pair", "hawkes-policy", "other-intensity", "other-costs"],
    )
    def test_mismatched_poisson_pair_exit_4(self, tmp_path, monkeypatch, capsys, value, policy, message):
        cfg = self.write_tiny(tmp_path)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        for mode in ("baseline", "expectation"):
            assert main(["solve-poisson", "--config", cfg, "--mode", mode, "--out", str(out)]) == 0
        with monkeypatch.context() as env:
            env.setenv("CYBERINVEST_COSTS__RHO", "0.3")
            assert main(["solve-poisson", "--config", cfg, "--mode", "baseline", "--out", str(out / "rho")]) == 0
        pair = tmp_path / "pair"
        pair.mkdir()
        for name, half in ((value, "value"), (policy, "policy")):
            for ext in ("json", "f64"):
                (pair / f"bench_{half}.{ext}").write_bytes((out / f"{name}.{ext}").read_bytes())
        capsys.readouterr()
        argv = ["gain", "--config", cfg, "--value-field", f"{out}/value", "--benchmark", "poisson-baseline"]
        assert main(argv + ["--poisson-field", str(pair / "bench"), "--hs", "0", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and message in err and "Traceback" not in err
        assert not (out / "gain_poisson-baseline.csv").exists()

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
        assert "lookups read at the grid's edge: " in capsys.readouterr().out
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
        gains = (Path(out) / "gain_poisson-baseline.csv").read_text().splitlines()
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
        rc = main(["premium", "--config", cfg, "--policy-field", f"{out}/policy", "--out", out])
        assert rc == 0
        head = (Path(out) / "table_premia.csv").read_text().splitlines()[0]
        assert head == "eta_mean,eta_var,premium_baseline,premium_optimal,reduction_pct"
        reports = json.loads((Path(out) / "premium_reports.json").read_text())
        assert reports[0]["optimal"]["diagnostics"] == {"method": "frozen-policy-pide", "time_steps": 20}
        assert reports[0]["optimal"]["standard_errors"] == {"expected_loss": 0.0, "loss_std": 0.0}

    def test_premium_eta_vars_share_one_pass(self, tmp_path):
        """Three eta_vars on one loaded field, which share one pair of loss-surface
        solves, give the files of one run per eta_var, byte for byte, and a
        rerun gives the same files."""
        out = tmp_path / "field"
        assert main(["solve", "--config", self.write_tiny(tmp_path), "--out", str(out)]) == 0

        def premium(tag, eta_vars):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(TINY + f"eta_vars = {eta_vars}\n")
            run = tmp_path / tag
            argv = ["premium", "--config", str(cfg), "--policy-field", f"{out}/policy", "--out", str(run)]
            assert main(argv) == 0
            return {p.name: p.read_bytes() for p in sorted(run.iterdir())}

        one, two = premium("t1", "10,50,100"), premium("t2", "10,50,100")
        assert one == two
        assert set(one) == {"premium_reports.json", "table_premia.csv", "table_std.csv"}
        reports = json.loads(one["premium_reports.json"])
        for k, ev in enumerate(("10", "50", "100")):
            alone = premium(f"alone{ev}", ev)
            assert json.loads(alone["premium_reports.json"]) == [reports[k]]
            for table in ("table_std.csv", "table_premia.csv"):
                head, *rows = one[table].decode().splitlines()
                assert alone[table].decode().splitlines() == [head, rows[k]]

    def test_zero_vulnerability_traces_are_flat(self, tmp_path):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(TINY + "\n[breach]\nv = 0\n\n[costs]\nutility = zero\n")
        out = str(tmp_path / "z")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0
        assert main(["trace", "--config", str(cfg), "--field", f"{out}/policy", "--n-paths", "1", "--out", out]) == 0
        rows = (Path(out) / "trace_0.csv").read_text().splitlines()[1:]
        zs = [float(r.split(",")[2]) for r in rows]
        assert all(z == 0.0 for z in zs)


class TestReproduceScript:
    SCRIPT = REPO / "scripts" / "reproduce_tables.py"

    def run(self, out, **overrides):
        env = {**os.environ, **{f"CYBERINVEST_{key}": value for key, value in overrides.items()}}
        argv = [sys.executable, str(self.SCRIPT), "--out", str(out)]
        return subprocess.run(argv, capture_output=True, text=True, timeout=600, env=env)

    def test_writes_every_table(self, tmp_path):
        out = tmp_path / "tables"
        proc = self.run(out)
        assert proc.returncode == 0, proc.stderr
        gain_head = "t,lambda,h,gain_pct,benchmark"
        expected = {
            "moments.csv": ("t,E_lambda,E_N,Var_lambda,Var_N,lambda_max_heuristic", 5),
            "gain_constant.csv": (gain_head, 6),
            "gain_poisson-baseline.csv": (gain_head, 7),
            "gain_poisson-expectation.csv": (gain_head, 7),
            "table_std.csv": ("eta_mean,eta_var,std_baseline,std_optimal,reduction_pct", 3),
            "table_premia.csv": ("eta_mean,eta_var,premium_baseline,premium_optimal,reduction_pct", 3),
        }
        assert {p.name for p in out.glob("*.csv")} == set(expected)
        for name, (head, n_rows) in expected.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == head and len(lines) == 1 + n_rows, name

    def test_stops_with_the_cli_exit_code(self, tmp_path):
        # 217 - 27 = 190 intensity units are not a whole number of the coarse preset's d_lambda = 3
        proc = self.run(tmp_path / "tables", GRID__LAMBDA_MAX="217")
        assert proc.returncode == 2
        assert "lambda_max=217" in proc.stderr and "is not a whole number of the coarse preset's steps" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "cyberinvest solve" not in proc.stdout


def test_import_defers_slow_scipy_modules(tmp_path):
    """Importing the package, valuing the static and constant-rate benchmarks
    in the library, and every command that does not solve (validate, moments,
    static-gl, gain against each benchmark) load no scipy module. The commands
    that solve, premium on a saved policy (its two loss-surface solves) first
    and then solve and solve-poisson, bind LAPACK gtsv from scipy's compiled
    extension and load none of the scipy.linalg package, scipy.optimize,
    scipy.integrate and scipy.sparse. No stage draws a random number, so none
    loads numpy.random."""
    (tmp_path / "tiny.cfg").write_text(TINY)
    common = ["--config", str(tmp_path / "tiny.cfg"), "--out", str(tmp_path)]
    for argv in (["solve"], *(["solve-poisson", "--mode", m] for m in ("baseline", "expectation"))):
        assert main(argv + common) == 0  # the saved fields that the commands below read
    gain = ["gain", "--value-field", str(tmp_path / "value"), "--hs", "0,2"]
    commands = [
        ["validate"],
        ["moments"],
        ["static-gl"],
        gain,
        *(gain + ["--benchmark", f"poisson-{m}", "--poisson-field", str(tmp_path / f"poisson_{m}"), "--lambdas", "27,45"]
          for m in ("baseline", "expectation")),
    ]
    premium = ["premium", "--policy-field", str(tmp_path / "policy")]
    code = f"""
import sys

def report(stage):
    print(stage, sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m.startswith("numpy.random")), file=sys.stderr)

import cyberinvest as ci
from cyberinvest.cli import main
report("import")
cfg = ci.validate({str(tmp_path / "tiny.cfg")!r})
hk, bm, costs = cfg.hawkes, cfg.breach, cfg.costs
ci.static_optimum(bm, 1.0, 400.0)
ci.optimize_constant(0.0, 27.0, 1.0, hk, bm, costs)
ci.evaluate_deterministic(0.0, 27.0, 1.0, ci.ConstantRate(5.0), hk, bm, costs)
ci.gain_vs_constant(0.0, 27.0, 1.0, ci.load_field({str(tmp_path / "value")!r}), hk, bm, costs)
for argv in {commands!r}:
    assert main(argv + {common!r}) == 0, argv
report("no-solve")
assert main({premium!r} + {common!r}) == 0
report("premium")
assert main(["solve", *{common!r}]) == 0
assert main(["solve-poisson", "--mode", "baseline", *{common!r}]) == 0
report("solve")
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    stages = dict(line.split(" ", 1) for line in proc.stderr.splitlines() if line.startswith(("import ", "no-solve ", "premium ", "solve ")))
    assert stages["import"] == stages["no-solve"] == "[]"
    for stage in ("premium", "solve"):
        loaded = ast.literal_eval(stages[stage])
        assert "scipy.linalg" not in loaded, (stage, loaded)
        assert not [m for m in loaded if m.startswith(("scipy.optimize", "scipy.integrate", "scipy.sparse", "numpy.random"))], (stage, loaded)


def test_import_loads_no_process_pool():
    code = "import sys, cyberinvest; print(sorted(m for m in sys.modules if m.partition('.')[0] in ('concurrent', 'multiprocessing')))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_imports_neither_scipy_sparse_nor_expm():
    """The subprocess check above sees only the code its commands run; the
    package's import statements show every scipy.sparse or expm import."""
    for path in sorted((REPO / "src" / "cyberinvest").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not [n for n in names if n.startswith("scipy.sparse") or n.endswith(".expm")], (path.name, names)
