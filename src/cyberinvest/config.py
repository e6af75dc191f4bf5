"""Run configuration: flat INI-style files, defaults, env overrides, validation.

Sections mirror the library modules. Every key is typed, unknown keys are
rejected, and all violations are reported together. Environment variables of
the form CYBERINVEST_<SECTION>__<KEY> override file values.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .breach import BreachFamily, BreachModel
from .dynamics import CostParams
from .errors import ConfigError, StabilityError
from .hawkes import HawkesParams
from .hjb import SolverGrid, SolverOptions

__all__ = ["RunConfig", "validate", "COARSE_PRESET", "ENV_PREFIX", "STANDARD_CONFIG"]

ENV_PREFIX = "CYBERINVEST_"

# Desk-scale preset: coarser steps on the configured domain.
COARSE_PRESET = {"d_lambda": 3.0, "d_h": 1.0}


def _parse_float_list(s: str) -> list:
    return [float(tok) for tok in s.replace(";", ",").split(",") if tok.strip()]


_SCHEMA = {
    "hawkes": {"alpha": float, "lambda0": float, "xi": float, "beta": float},
    "breach": {"family": str, "v": float, "a": float, "b": float},
    "costs": {
        "gamma": float,
        "eta_mean": float,
        "eta_var": float,
        "rho": float,
        "horizon": float,
        "utility": str,
        "delta": float,
        "eta_family": str,
    },
    "grid": {
        "lambda_min": float,
        "lambda_max": float,
        "d_lambda": float,
        "h_min": float,
        "h_max": float,
        "d_h": float,
        "time_steps": int,
    },
    "premium": {"theta": float, "eta_vars": _parse_float_list},
    "run": {"seed": int, "out_dir": str},
}

# Default values: the standard parameter set of the study.
_DEFAULTS = {
    "hawkes": {"alpha": 27.0, "lambda0": 27.0, "xi": 15.0, "beta": 9.0},
    "breach": {"family": "class1", "v": 0.65, "a": 0.1, "b": 1.0},
    "costs": {
        "gamma": 0.05,
        "eta_mean": 10.0,
        "eta_var": 10.0,
        "rho": 0.2,
        "horizon": 1.0,
        "utility": "sqrt",
        "delta": 1.0,
        "eta_family": "lognormal",
    },
    "grid": {
        "lambda_min": None,  # defaults to lambda0
        "lambda_max": 216.0,
        "d_lambda": 1.0,
        "h_min": 0.0,
        "h_max": 50.0,
        "d_h": 0.5,
        "time_steps": 200,
    },
    "premium": {"theta": 0.3, "eta_vars": [10.0, 50.0, 100.0]},
    "run": {"seed": 0, "out_dir": "out"},
}

STANDARD_CONFIG = "configs/standard.cfg"


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one batch run."""

    hawkes: HawkesParams
    breach: BreachModel
    costs: CostParams
    grid: SolverGrid
    options: SolverOptions  # empty, and ignored by solve; see SolverOptions
    theta: float
    eta_vars: tuple
    seed: int
    out_dir: str
    # Read by nothing in the library and set only by perfbench/workloads.py;
    # to be dropped with the premium reports' ignored arguments in a change
    # that may edit the benchmark.
    mc_paths: int = 0
    threads: int = 1

    def coarse(self) -> "RunConfig":
        """This configuration with the desk-scale steps of COARSE_PRESET on its domain.

        Raises ConfigError when the domain is not a whole number of coarse steps.
        """
        g = self.grid
        try:
            grid = replace(g, **COARSE_PRESET)
        except ValueError as exc:
            raise ConfigError(
                f"[grid] lambda_min={g.lambda_min:g}..lambda_max={g.lambda_max:g}, h_min={g.h_min:g}..h_max={g.h_max:g} "
                f"is not a whole number of the coarse preset's steps d_lambda={COARSE_PRESET['d_lambda']:g}, "
                f"d_h={COARSE_PRESET['d_h']:g}: {exc}"
            ) from None
        return replace(self, grid=grid)


def _read_raw(source: Optional[Union[str, Path]]) -> tuple:
    """Parse the file (if any) into {section: {key: str}}, collecting diagnostics."""
    raw = {}
    diagnostics = []
    if source is not None:
        parser = configparser.ConfigParser(interpolation=None)
        s = str(source)
        looks_inline = "\n" in s or s.lstrip().startswith("[")
        try:
            text = s if looks_inline and not isinstance(source, Path) else Path(source).read_text()
        except OSError as exc:
            return raw, [f"cannot read config: {exc}"]
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            return raw, [f"cannot parse config: {exc}"]
        for section in parser.sections():
            if section not in _SCHEMA:
                diagnostics.append(f"unknown section [{section}]")
                continue
            raw[section] = dict(parser.items(section))
    return raw, diagnostics


def _apply_env(raw: dict, diagnostics: list) -> None:
    for name, value in os.environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX) :]
        if "__" not in body:
            diagnostics.append(f"malformed override {name}; expected {ENV_PREFIX}SECTION__KEY")
            continue
        section, key = body.split("__", 1)
        section, key = section.lower(), key.lower()
        if section not in _SCHEMA:
            diagnostics.append(f"override {name}: unknown section [{section}]")
            continue
        raw.setdefault(section, {})[key] = value


def validate(source: Optional[Union[str, Path]] = None, use_env: bool = True) -> RunConfig:
    """Build a RunConfig from a file (or text), env overrides, and defaults.

    Raises ConfigError carrying one diagnostic per violation; never crashes on
    malformed input.
    """
    raw, diagnostics = _read_raw(source)
    if use_env:
        _apply_env(raw, diagnostics)

    values = {s: dict(d) for s, d in _DEFAULTS.items()}
    for section, entries in raw.items():
        for key, text in entries.items():
            if key not in _SCHEMA[section]:
                diagnostics.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                values[section][key] = _SCHEMA[section][key](text)
            except (ValueError, TypeError) as exc:
                diagnostics.append(f"[{section}] {key}={text!r}: {exc}")

    def build():
        errs = list(diagnostics)
        hk = bm = costs = grid = None
        try:
            hk = HawkesParams(**values["hawkes"])
        except StabilityError as exc:
            errs.append(f"[hawkes] stability condition violated: {exc}")
        except ValueError as exc:
            errs.append(f"[hawkes] {exc}")
        try:
            b = values["breach"]
            bm = BreachModel(BreachFamily(b["family"]), b["v"], b["a"], b["b"])
        except ValueError as exc:
            errs.append(f"[breach] {exc}")
        try:
            c = values["costs"]
            costs = CostParams(
                gamma=c["gamma"],
                eta_mean=c["eta_mean"],
                eta_var=c["eta_var"],
                rho=c["rho"],
                horizon=c["horizon"],
                terminal_utility=c["utility"],
                delta=c["delta"],
                eta_family=c["eta_family"],
            )
        except ValueError as exc:
            errs.append(f"[costs] {exc}")
        g = values["grid"]
        lam_min = g["lambda_min"]
        if lam_min is None and hk is not None:
            lam_min = hk.lambda0
        if costs is not None and lam_min is not None:
            try:
                grid = SolverGrid.regular(
                    lam_min,
                    g["lambda_max"],
                    g["d_lambda"],
                    g["h_min"],
                    g["h_max"],
                    g["d_h"],
                    costs.horizon,
                    g["time_steps"],
                )
            except ValueError as exc:
                errs.append(f"[grid] {exc}")
        p = values["premium"]
        if not (0 <= p["theta"] < math.inf):  # nan fails both comparisons
            errs.append(f"[premium] theta must be finite and nonnegative, got {p['theta']}")
        for eta_var in p["eta_vars"] if costs is not None else ():
            try:  # the premium command prices each eta_var under these costs
                replace(costs, eta_var=eta_var)
            except ValueError as exc:
                errs.append(f"[premium] eta_vars {eta_var:g}: {exc}")
        r = values["run"]
        if hk is not None and grid is not None:
            if not (grid.lambda_min <= hk.lambda0 <= grid.lambda_max):
                errs.append(
                    f"[grid] intensity grid [{grid.lambda_min}, {grid.lambda_max}] does not cover lambda0={hk.lambda0}"
                )
        if errs:
            raise ConfigError(errs)
        return RunConfig(
            hawkes=hk,
            breach=bm,
            costs=costs,
            grid=grid,
            options=SolverOptions(),
            theta=p["theta"],
            eta_vars=tuple(p["eta_vars"]),
            seed=r["seed"],
            out_dir=r["out_dir"],
        )

    return build()
