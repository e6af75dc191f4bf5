"""Persistence for solved fields: JSON metadata plus raw little-endian doubles.

A field is stored as `<prefix>.json` (grid, model parameters, sha256
checksum) and `<prefix>.f64` (dense 64-bit floats, row-major in
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
from .dynamics import CostParams
from .hawkes import HawkesParams
from .hjb import FieldMeta, PolicyField, SolverGrid, ValueField
from .poisson import PoissonField

__all__ = ["save_field", "load_field", "save_poisson", "load_poisson", "write_field_csv"]

FORMAT_VERSION = 1

# Solver options that older field files still carry and that no longer exist:
# the former implicit Runge-Kutta integrator's tolerances and method, the
# query-mode default (queries now choose their mode per call), the node limit
# (now fixed), the jump-shift switch (the shift always interpolates, a node
# shift on the lattice) and the switch to one-sided drift differences (the
# central scheme is the only one). Their "extrapolation" tag is ignored as well.
_RETIRED_OPTIONS = ("rtol", "atol", "method", "interp_query", "max_nodes", "jump_interp", "upwind")

_KINDS = {"value": ValueField, "policy": PolicyField}


def _grid_dict(grid: SolverGrid) -> dict:
    return {
        "lambda_min": grid.lambda_min,
        "lambda_max": grid.lambda_max,
        "d_lambda": grid.d_lambda,
        "h_min": grid.h_min,
        "h_max": grid.h_max,
        "d_h": grid.d_h,
        "t_snapshots": grid.t_snapshots.tolist(),
    }


def _meta_dict(field, raw: np.ndarray) -> dict:
    """The JSON metadata of a field whose data, as written, is `raw`."""
    meta = field.meta
    return {
        "format_version": FORMAT_VERSION,
        "kind": "value" if isinstance(field, ValueField) else "policy",
        "grid": _grid_dict(field.grid),
        "hawkes": asdict(meta.hawkes),
        "breach": {
            "family": meta.model.family.value,
            "v": meta.model.v,
            "a": meta.model.a,
            "b": meta.model.b,
        },
        "costs": asdict(meta.costs),
        "shape": list(raw.shape),
        "dtype": "<f8",
        "order": "(snapshot, lambda, h)",
        "checksum_sha256": hashlib.sha256(raw).hexdigest(),
    }


def save_field(field: Union[ValueField, PolicyField], prefix: Union[str, Path]) -> None:
    """Write `<prefix>.json` and `<prefix>.f64` for a solved field."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    data = field.values if isinstance(field, ValueField) else field.controls
    # one C-contiguous <f8 buffer, hashed and written as it is, with no bytes copy
    raw = np.ascontiguousarray(data, dtype="<f8")
    prefix.with_suffix(".f64").write_bytes(raw)
    meta = _meta_dict(field, raw)
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
    """Load a field written by save_field; verifies the checksum, the kind and that an older
    file's solver options are all retired ones. The "dimension" and "poisson_intensity" keys
    of older files are ignored: a one-node intensity axis marks a constant-intensity field."""
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".f64")
    if not meta_path.exists() or not bin_path.exists():
        raise OSError(f"missing field files {meta_path} / {bin_path}")
    meta = json.loads(meta_path.read_text())
    if meta["kind"] not in _KINDS:
        raise OSError(f"{meta_path}: unknown field kind {meta['kind']!r}; expected one of {sorted(_KINDS)}")
    unknown = sorted(set(meta.get("options", ())) - set(_RETIRED_OPTIONS))
    if unknown:
        raise OSError(f"{meta_path}: unknown solver options {unknown}")
    # read straight into the array, so no bytes copy of the file is held beside it
    data = np.empty(tuple(meta["shape"]), dtype="<f8")
    with bin_path.open("rb") as fh:
        n_read = fh.readinto(memoryview(data).cast("B"))
        longer = fh.read(1) != b""
    if n_read != data.nbytes or longer:
        raise OSError(f"{bin_path} does not hold exactly the {data.nbytes} bytes of a {data.shape} field")
    if hashlib.sha256(data).hexdigest() != meta["checksum_sha256"]:
        raise OSError(f"checksum mismatch for {bin_path}: file is corrupt or stale")
    grid = _grid_from_dict(meta["grid"])
    hawkes = HawkesParams(**meta["hawkes"])
    b = meta["breach"]
    model = BreachModel(BreachFamily(b["family"]), b["v"], b["a"], b["b"])
    costs = CostParams(**meta["costs"])
    fmeta = FieldMeta(hawkes=hawkes, model=model, costs=costs)
    return _KINDS[meta["kind"]](grid, data, fmeta)


def save_poisson(field: PoissonField, prefix: Union[str, Path]) -> None:
    """Write the value/policy pair of a constant-intensity benchmark field."""
    prefix = Path(prefix)
    save_field(field.value, prefix.parent / (prefix.name + "_value"))
    save_field(field.policy, prefix.parent / (prefix.name + "_policy"))


def load_poisson(prefix: Union[str, Path]) -> PoissonField:
    """Load the pair written by save_poisson: a value and a policy field on the same one-node
    intensity axis, solved for the same model."""
    prefix = Path(prefix)
    value = load_field(prefix.parent / (prefix.name + "_value"))
    policy = load_field(prefix.parent / (prefix.name + "_policy"))
    if not (isinstance(value, ValueField) and isinstance(policy, PolicyField)):
        raise OSError(f"{prefix}: _value and _policy must hold a value and a policy field")
    if value.grid.n_lambda != 1:
        raise OSError(f"{prefix} does not hold a constant-intensity benchmark field")
    if _grid_dict(value.grid) != _grid_dict(policy.grid):
        raise OSError(f"{prefix}: _value and _policy lie on different grids")
    if value.meta != policy.meta:
        raise OSError(f"{prefix}: _value and _policy were solved for different models")
    return PoissonField(value, policy, quality={})


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
