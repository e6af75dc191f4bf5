"""Persistence for solved fields: JSON metadata plus raw little-endian doubles.

A field is stored as `<prefix>.json` (grid, model parameters, solver options,
sha256 checksum) and `<prefix>.f64` (dense 64-bit floats, row-major in
(snapshot, lambda, h) order). Identical solves produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Union

import numpy as np

from .breach import BreachFamily, BreachModel
from .dynamics import CostParams, utility_label
from .hawkes import HawkesParams
from .hjb import FieldMeta, PolicyField, SolverGrid, SolverOptions, ValueField
from .poisson import PoissonField

__all__ = ["save_field", "load_field", "save_poisson", "load_poisson", "write_field_csv"]

FORMAT_VERSION = 1

# Options of the former implicit Runge-Kutta integrator, still present in
# fields written before the ADI solver; they have no meaning now.
_RETIRED_OPTIONS = ("rtol", "atol", "method")


def _meta_dict(field) -> dict:
    grid = field.grid
    meta = field.meta
    data = field.values if isinstance(field, ValueField) else field.controls
    return {
        "format_version": FORMAT_VERSION,
        "kind": meta.kind,
        "dimension": meta.dimension,
        "poisson_intensity": meta.poisson_intensity,
        "extrapolation": meta.extrapolation,
        "grid": {
            "lambda_min": grid.lambda_min,
            "lambda_max": grid.lambda_max,
            "d_lambda": grid.d_lambda,
            "h_min": grid.h_min,
            "h_max": grid.h_max,
            "d_h": grid.d_h,
            "t_snapshots": grid.t_snapshots.tolist(),
        },
        "hawkes": asdict(meta.hawkes),
        "breach": {
            "family": meta.model.family.value,
            "v": meta.model.v,
            "a": meta.model.a,
            "b": meta.model.b,
        },
        "costs": {
            "gamma": meta.costs.gamma,
            "eta_mean": meta.costs.eta_mean,
            "eta_var": meta.costs.eta_var,
            "rho": meta.costs.rho,
            "horizon": meta.costs.horizon,
            "terminal_utility": utility_label(meta.costs.terminal_utility),
            "delta": meta.costs.delta,
            "eta_family": meta.costs.eta_family,
        },
        "options": asdict(meta.options),
        "shape": list(data.shape),
        "dtype": "<f8",
        "order": "(snapshot, lambda, h)",
        "checksum_sha256": hashlib.sha256(np.ascontiguousarray(data, dtype="<f8").tobytes()).hexdigest(),
    }


def save_field(field: Union[ValueField, PolicyField], prefix: Union[str, Path]) -> None:
    """Write `<prefix>.json` and `<prefix>.f64` for a solved field."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    data = field.values if isinstance(field, ValueField) else field.controls
    raw = np.ascontiguousarray(data, dtype="<f8").tobytes()
    prefix.with_suffix(".f64").write_bytes(raw)
    meta = _meta_dict(field)
    prefix.with_suffix(".json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _grid_from_dict(d: dict) -> SolverGrid:
    return SolverGrid(
        lambda_min=d["lambda_min"],
        lambda_max=d["lambda_max"],
        d_lambda=d["d_lambda"],
        h_min=d["h_min"],
        h_max=d["h_max"],
        d_h=d["d_h"],
        t_snapshots=np.array(d["t_snapshots"], dtype=float),
    )


def load_field(prefix: Union[str, Path]):
    """Load a field pair written by save_field; verifies the checksum."""
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".f64")
    if not meta_path.exists() or not bin_path.exists():
        raise OSError(f"missing field files {meta_path} / {bin_path}")
    meta = json.loads(meta_path.read_text())
    raw = bin_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != meta["checksum_sha256"]:
        raise OSError(f"checksum mismatch for {bin_path}: file is corrupt or stale")
    shape = tuple(meta["shape"])
    data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    grid = _grid_from_dict(meta["grid"])
    hawkes = HawkesParams(**meta["hawkes"])
    b = meta["breach"]
    model = BreachModel(BreachFamily(b["family"]), b["v"], b["a"], b["b"])
    costs = CostParams(**meta["costs"])
    options = SolverOptions(**{k: v for k, v in meta["options"].items() if k not in _RETIRED_OPTIONS})
    fmeta = FieldMeta(
        kind=meta["kind"],
        hawkes=hawkes,
        model=model,
        costs=costs,
        options=options,
        dimension=meta["dimension"],
        poisson_intensity=meta["poisson_intensity"],
        extrapolation=meta["extrapolation"],
    )
    if meta["kind"] == "value":
        return ValueField(grid, data, fmeta)
    return PolicyField(grid, data, fmeta)


def save_poisson(field: PoissonField, prefix: Union[str, Path]) -> None:
    """Write the value/policy pair of a constant-intensity benchmark field."""
    prefix = Path(prefix)
    save_field(field.value, prefix.parent / (prefix.name + "_value"))
    save_field(field.policy, prefix.parent / (prefix.name + "_policy"))


def load_poisson(prefix: Union[str, Path]) -> PoissonField:
    prefix = Path(prefix)
    value = load_field(prefix.parent / (prefix.name + "_value"))
    policy = load_field(prefix.parent / (prefix.name + "_policy"))
    if value.meta.dimension != "poisson" or value.meta.poisson_intensity is None:
        raise OSError(f"{prefix} does not hold a constant-intensity benchmark field")
    return PoissonField(
        intensity=float(value.meta.poisson_intensity),
        value=value,
        policy=policy,
        quality={},
    )


def write_field_csv(value: ValueField, policy: PolicyField, path: Union[str, Path]) -> None:
    """Plot-ready CSV with columns t, lambda, h, V, z_star."""
    grid = value.grid
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("t,lambda,h,V,z_star\n")
        for k, t in enumerate(grid.t_snapshots):
            for i, lam in enumerate(grid.lambdas):
                for j, h in enumerate(grid.hs):
                    fh.write(
                        f"{t:.12g},{lam:.12g},{h:.12g},"
                        f"{value.values[k, i, j]:.12g},{policy.controls[k, i, j]:.12g}\n"
                    )
