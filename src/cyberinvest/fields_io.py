"""Persistence for solved fields: JSON metadata plus raw little-endian doubles.

A field is stored as `<prefix>.json` (kind, grid, model parameters, sha256
checksum, all as plain values) and `<prefix>.f64` (dense 64-bit floats,
row-major in (snapshot, lambda, h) order, of the grid's shape). Nothing the
grid fixes is stored beside it. Identical solves produce byte-identical files.
A solve stores its value field alone: the commands derive the policy from it,
and `gain` solves each constant-intensity benchmark where it values it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from typing import Union

import numpy as np

from .breach import BreachModel
from .dynamics import CostParams
from .hawkes import HawkesParams
from .hjb import FieldMeta, PolicyField, SolverGrid, ValueField, _snapshot_controls

__all__ = ["save_field", "load_field", "write_field_csv"]

FORMAT_VERSION = 2  # the one format load_field reads

_KINDS = {"value": ValueField, "policy": PolicyField}


def _meta_dict(field, raw: np.ndarray) -> dict:
    """The JSON metadata of a field whose data, as written, is `raw`."""
    meta = field.meta
    return {
        "format_version": FORMAT_VERSION,
        "kind": "value" if isinstance(field, ValueField) else "policy",
        "grid": asdict(field.grid),
        "hawkes": asdict(meta.hawkes),
        "breach": {**asdict(meta.model), "family": meta.model.family.value},
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


def _part(cls: type, d: dict):
    """cls built from exactly its fields: a missing key is a TypeError too, where cls has a default."""
    names = {f.name for f in fields(cls)}
    if set(d) != names:
        raise TypeError(f"{cls.__name__} takes exactly the keys {sorted(names)}, got {sorted(d)}")
    return cls(**d)


def load_field(prefix: Union[str, Path]):
    """Load a field written by save_field. Another format_version, metadata that does not build a grid,
    a model and costs from exactly their fields (a missing key, an unknown key or a rejected value),
    another kind, a checksum mismatch or a number that is not finite is an OSError naming the file."""
    prefix = Path(prefix)
    meta_path = prefix.with_suffix(".json")
    bin_path = prefix.with_suffix(".f64")
    if not meta_path.exists() or not bin_path.exists():
        raise OSError(f"missing field files {meta_path} / {bin_path}")
    try:
        meta = json.loads(meta_path.read_text())
        if (version := meta["format_version"]) != FORMAT_VERSION:
            raise OSError(f"{meta_path}: field format {version!r} is not read (format {FORMAT_VERSION} only): solve again")
        kind = meta["kind"]
        grid = SolverGrid(**meta["grid"])
        fmeta = FieldMeta(
            _part(HawkesParams, meta["hawkes"]), _part(BreachModel, meta["breach"]), _part(CostParams, meta["costs"])
        )
        checksum = meta["checksum_sha256"]
    except (LookupError, TypeError, ValueError) as exc:
        raise OSError(f"{meta_path}: metadata does not describe a field: {type(exc).__name__}: {exc}") from None
    if kind not in _KINDS:
        raise OSError(f"{meta_path}: unknown field kind {kind!r}; expected one of {sorted(_KINDS)}")
    nbytes = 8 * math.prod(grid.shape)  # checked before the buffer is allocated
    if bin_path.stat().st_size != nbytes:
        raise OSError(f"{bin_path} does not hold exactly the {nbytes} bytes of a {grid.shape} field")
    # read straight into the array, so no bytes copy of the file is held beside it
    data = np.empty(grid.shape, dtype="<f8")
    with bin_path.open("rb") as fh:
        fh.readinto(memoryview(data).cast("B"))
    if hashlib.sha256(data).hexdigest() != checksum:
        raise OSError(f"checksum mismatch for {bin_path}: file is corrupt or stale")
    if not (math.isfinite(data.min()) and math.isfinite(data.max())):  # a nan reaches both, an infinity one
        raise OSError(f"{bin_path} holds a number that is not finite")
    return _KINDS[kind](grid, data, fmeta)


def _write_csv(path: Union[str, Path], header: str, rows) -> None:
    """Write the header line, then one line per row: numbers as %.12g, text as it is. Each line is
    one %-format, built from the types of the first row, so a column holds numbers or text throughout."""
    rows = iter(rows)
    first = next(rows, None)
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        if first is not None:
            fmt = ",".join("%s" if isinstance(x, str) else "%.12g" for x in first) + "\n"
            fh.writelines(fmt % tuple(row) for row in itertools.chain((first,), rows))


def write_field_csv(value: ValueField, path: Union[str, Path]) -> None:
    """Plot-ready CSV with columns t, lambda, h, V, z_star, one snapshot after another, every number as
    _write_csv writes it (%.12g). Each distinct t, lambda and h is formatted once: a snapshot's rows are
    one %-format of its V and z_star alone. The controls are derived a block of snapshots at a time as
    its rows are written (hjb._snapshot_controls), so one field is held."""
    grid = value.grid
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lam, h = (a.ravel().tolist() for a in np.meshgrid(grid.lambdas, grid.hs, indexing="ij"))
    # a snapshot's rows, "{t}" standing for its time: no formatted number holds a brace or a %
    rows = "".join("{t},%.12g,%.12g,%%.12g,%%.12g\n" % node for node in zip(lam, h))
    times = ["%.12g" % t for t in grid.t_snapshots.tolist()]
    with path.open("w") as fh:
        fh.write("t,lambda,h,V,z_star\n")
        for snaps, controls in _snapshot_controls(value):
            pairs = np.stack((value.values[snaps], controls), axis=-1)  # each row's V and z_star, side by side
            for t, numbers in zip(times[snaps], pairs):
                fh.write(rows.replace("{t}", t) % tuple(numbers.ravel().tolist()))
