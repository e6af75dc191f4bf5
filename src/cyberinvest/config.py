"""Run configuration: flat INI-style files, defaults, env overrides, validation.

Sections mirror the library modules: [hawkes], [breach], [costs] and [grid]
build HawkesParams, BreachModel, CostParams and SolverGrid from their keys by
field name. Every key is typed, unknown keys are rejected, and all violations
are reported together. Environment variables of
the form CYBERINVEST_<SECTION>__<KEY> override file values.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Union

from .breach import BreachModel
from .dynamics import CostParams
from .errors import ConfigError, StabilityError
from .hawkes import HawkesParams
from .hjb import SolverGrid, SolverOptions

__all__ = ["RunConfig", "validate", "COARSE_PRESET", "ENV_PREFIX"]

ENV_PREFIX = "CYBERINVEST_"

# Desk-scale preset: a coarser intensity step on the configured domain. The grid error of V, the
# gains and E[L*] is almost all in h (not that of sd(L*); see the README's Grid presets), and V is
# close to affine in lambda, so the preset keeps the fine d_h = 0.5 and takes d_lambda = 9, the
# standard beta: the widest step at which the jump still spans a whole cell.
COARSE_PRESET = {"d_lambda": 9.0, "d_h": 0.5}


def _parse_float_list(s: str) -> list:
    return [float(tok) for tok in s.replace(";", ",").split(",") if tok.strip()]


# Every key as (parser, default); the defaults are the standard parameter set of the study.
_KEYS = {
    "hawkes": {"alpha": (float, 27.0), "lambda0": (float, 27.0), "xi": (float, 15.0), "beta": (float, 9.0)},
    "breach": {"family": (str, "class1"), "v": (float, 0.65), "a": (float, 0.1), "b": (float, 1.0)},
    "costs": {
        "gamma": (float, 0.05),
        "eta_mean": (float, 10.0),
        "eta_var": (float, 10.0),
        "rho": (float, 0.2),
        "horizon": (float, 1.0),
        "utility": (str, "sqrt"),  # CostParams.terminal_utility
        "delta": (float, 1.0),
        "eta_family": (str, "lognormal"),
    },
    "grid": {
        "lambda_min": (float, None),  # defaults to lambda0
        "lambda_max": (float, 216.0),
        "d_lambda": (float, 1.0),
        "h_min": (float, 0.0),
        "h_max": (float, 50.0),
        "d_h": (float, 0.5),
        "time_steps": (int, 200),
    },
    "premium": {"theta": (float, 0.3), "eta_vars": (_parse_float_list, (10.0, 50.0, 100.0))},
    "run": {"seed": (int, 0), "out_dir": (str, "out")},
}


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
            if section not in _KEYS:
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
        if section not in _KEYS:
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

    values = {section: {key: default for key, (_, default) in keys.items()} for section, keys in _KEYS.items()}
    for section, entries in raw.items():
        for key, text in entries.items():
            if key not in _KEYS[section]:
                diagnostics.append(f"unknown key {key!r} in section [{section}]")
                continue
            try:
                values[section][key] = _KEYS[section][key][0](text)
            except (ValueError, TypeError) as exc:
                diagnostics.append(f"[{section}] {key}={text!r}: {exc}")

    def build(section: str, part: type, **fields):
        """part(**fields), or None with a diagnostic for the section when the part rejects them."""
        try:
            return part(**fields)
        except StabilityError as exc:
            diagnostics.append(f"[{section}] stability condition violated: {exc}")
        except ValueError as exc:
            diagnostics.append(f"[{section}] {exc}")
        return None

    hawkes = build("hawkes", HawkesParams, **values["hawkes"])
    breach = build("breach", BreachModel, **values["breach"])
    c = values["costs"]
    costs = build("costs", CostParams, terminal_utility=c.pop("utility"), **c)
    g, grid = values["grid"], None
    if g["lambda_min"] is None and hawkes is not None:
        g["lambda_min"] = hawkes.lambda0
    if costs is not None and g["lambda_min"] is not None:
        grid = build("grid", SolverGrid, horizon=costs.horizon, **g)
    p = values["premium"]
    if not (0 <= p["theta"] < math.inf):  # nan fails both comparisons
        diagnostics.append(f"[premium] theta must be finite and nonnegative, got {p['theta']}")
    if not p["eta_vars"]:  # the premium command prices each one: an empty list prices nothing
        diagnostics.append("[premium] eta_vars must list at least one breach-loss variance")
    for eta_var in p["eta_vars"] if costs is not None else ():
        try:  # the premium command prices each eta_var under these costs
            replace(costs, eta_var=eta_var)
        except ValueError as exc:
            diagnostics.append(f"[premium] eta_vars {eta_var:g}: {exc}")
    if values["run"]["seed"] < 0:  # the root of trace's SeedSequence
        diagnostics.append(f"[run] seed must be nonnegative, got {values['run']['seed']}")
    if hawkes is not None and grid is not None and not (grid.lambda_min <= hawkes.lambda0 <= grid.lambda_max):
        diagnostics.append(
            f"[grid] intensity grid [{grid.lambda_min}, {grid.lambda_max}] does not cover lambda0={hawkes.lambda0}"
        )
    if diagnostics:
        raise ConfigError(diagnostics)
    return RunConfig(
        hawkes=hawkes,
        breach=breach,
        costs=costs,
        grid=grid,
        options=SolverOptions(),
        theta=p["theta"],
        eta_vars=tuple(p["eta_vars"]),
        seed=values["run"]["seed"],
        out_dir=values["run"]["out_dir"],
    )
