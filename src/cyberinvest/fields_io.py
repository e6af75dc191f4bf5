"""Persistence for solved fields: JSON metadata plus raw little-endian doubles.

A field is stored as `<prefix>.json` (kind, grid, model parameters, sha256
checksum, all as plain values) and `<prefix>.f64` (dense 64-bit floats,
row-major in (snapshot, lambda, h) order, of the grid's shape). Nothing the
grid fixes is stored beside it. Identical solves produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
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

FORMAT_VERSION = 2  # 1 stored the snapshot times, the data's shape, dtype and order

# Solver options that older field files still carry and that no longer exist:
# the former implicit Runge-Kutta integrator's tolerances and method, the
# query-mode default (every lookup is bilinear now), the node limit
# (now fixed), the jump-shift switch (the shift always interpolates, a node
# shift on the lattice) and the switch to one-sided drift differences (the
# central scheme is the only one). Their "extrapolation" tag is ignored as well.
_RETIRED_OPTIONS = ("rtol", "atol", "method", "interp_query", "max_nodes", "jump_interp", "upwind")

_KINDS = {"value": ValueField, "policy": PolicyField}


def _meta_dict(field, raw: np.ndarray) -> dict:
    """The JSON metadata of a field whose data, as written, is `raw`."""
    meta = field.meta
    return {
        "format_version": FORMAT_VERSION,
        "kind": "value" if isinstance(field, ValueField) else "policy",
        "grid": asdict(field.grid),
        "hawkes": asdict(meta.hawkes),
        "breach": {
            "family": meta.model.family.value,
            "v": meta.model.v,
            "a": meta.model.a,
            "b": meta.model.b,
        },
        "costs": asdict(meta.costs),
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
    """The grid of a file's metadata. Format 1 stored the snapshot times instead of the
    horizon and time_steps; they must be the regular ones of the grid they give."""
    if "t_snapshots" not in d:
        return SolverGrid(**d)
    d = dict(d)
    snaps = d.pop("t_snapshots")
    grid = SolverGrid(**d, horizon=snaps[0], time_steps=len(snaps) - 1)
    if grid.t_snapshots.tolist() != snaps:
        raise ValueError(f"t_snapshots are not {grid.time_steps} equal steps from {grid.horizon} to 0")
    return grid


def load_field(prefix: Union[str, Path]):
    """Load a field written by save_field; verifies the checksum, the kind and that an older
    file's solver options are all retired ones. The "dimension" and "poisson_intensity" keys
    of older files are ignored: a one-node intensity axis marks a constant-intensity field.
    Metadata that does not build a grid, a model and costs is an OSError naming the file."""
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".f64")
    if not meta_path.exists() or not bin_path.exists():
        raise OSError(f"missing field files {meta_path} / {bin_path}")
    try:
        meta = json.loads(meta_path.read_text())
        kind = meta["kind"]
        grid = _grid_from_dict(meta["grid"])
        b = meta["breach"]
        model = BreachModel(BreachFamily(b["family"]), b["v"], b["a"], b["b"])
        fmeta = FieldMeta(HawkesParams(**meta["hawkes"]), model, CostParams(**meta["costs"]))
        checksum = meta["checksum_sha256"]
    except (LookupError, TypeError, ValueError) as exc:
        raise OSError(f"{meta_path}: metadata does not describe a field: {type(exc).__name__}: {exc}") from None
    if kind not in _KINDS:
        raise OSError(f"{meta_path}: unknown field kind {kind!r}; expected one of {sorted(_KINDS)}")
    unknown = sorted(set(meta.get("options", ())) - set(_RETIRED_OPTIONS))
    if unknown:
        raise OSError(f"{meta_path}: unknown solver options {unknown}")
    nbytes = 8 * math.prod(grid.shape)  # checked before the buffer is allocated
    if bin_path.stat().st_size != nbytes:
        raise OSError(f"{bin_path} does not hold exactly the {nbytes} bytes of a {grid.shape} field")
    # read straight into the array, so no bytes copy of the file is held beside it
    data = np.empty(grid.shape, dtype="<f8")
    with bin_path.open("rb") as fh:
        fh.readinto(memoryview(data).cast("B"))
    if hashlib.sha256(data).hexdigest() != checksum:
        raise OSError(f"checksum mismatch for {bin_path}: file is corrupt or stale")
    return _KINDS[kind](grid, data, fmeta)


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
    if value.grid != policy.grid:
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
