"""Security-breach probability functions and the static one-shot investment optimum.

Two standard families map an investment (or protection level) z and a baseline
vulnerability v to a breach probability:

    class I:  v / (a z + 1)^b        class II:  v^(a z + 1)

Both are decreasing and convex in z, equal to v at z = 0 and to 0 when v = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BreachFamily",
    "BreachModel",
    "breach_prob",
    "breach_prob_derivative",
    "enbis",
    "static_optimum",
]


class BreachFamily(Enum):
    CLASS_I = "class1"
    CLASS_II = "class2"


@dataclass(frozen=True)
class BreachModel:
    """Breach-function family with vulnerability v and shape parameters a, b."""

    family: BreachFamily
    v: float
    a: float
    b: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, BreachFamily):
            object.__setattr__(self, "family", BreachFamily(self.family))
        for name in ("a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"shape parameter {name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.v <= 1.0):
            raise ValueError(f"vulnerability v must lie in [0, 1], got {self.v}")
        if self.a <= 0:
            raise ValueError(f"productivity parameter a must be positive, got {self.a}")
        if self.b <= 0:
            raise ValueError(f"exponent parameter b must be positive, got {self.b}")


def _breach_curve(model: BreachModel, z):
    """S(z, v) of a float or an array of levels z >= 0, unchecked."""
    if model.family is BreachFamily.CLASS_I:
        return model.v / (model.a * z + 1.0) ** model.b
    return model.v ** (model.a * z + 1.0)


def _checked_levels(z) -> np.ndarray:
    """z as a float array; raises ValueError unless every entry is finite and nonnegative."""
    z_arr = np.asarray(z, dtype=float)
    if not np.all((z_arr >= 0) & (z_arr < math.inf)):  # nan fails both comparisons
        raise ValueError("investment level z must be finite and nonnegative")
    return z_arr


def breach_prob(model: BreachModel, z):
    """Breach probability S(z, v) for investment/protection level z >= 0."""
    z_arr = _checked_levels(z)
    out = _breach_curve(model, z_arr)
    return float(out) if out.ndim == 0 else out


def breach_prob_derivative(model: BreachModel, z):
    """Analytic dS/dz; strictly negative whenever v > 0 (class II needs v < 1)."""
    z_arr = _checked_levels(z)
    if model.family is BreachFamily.CLASS_I:
        out = -model.v * model.a * model.b / (model.a * z_arr + 1.0) ** (model.b + 1.0)
    else:
        if model.v == 0:
            out = np.zeros_like(z_arr)
        else:
            out = model.a * math.log(model.v) * model.v ** (model.a * z_arr + 1.0)
    return float(out) if out.ndim == 0 else out


def _check_attack(p: float, loss: float) -> None:
    """Raises ValueError unless p lies in [0, 1] and loss is finite and nonnegative."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"attack probability p must lie in [0, 1], got {p}")
    if not (0.0 <= loss < math.inf):  # nan fails both comparisons
        raise ValueError(f"loss must be finite and nonnegative, got {loss}")


def enbis(model: BreachModel, p: float, loss: float, z) -> float:
    """Expected net benefit of the one-shot investment: (v - S(z,v)) p loss - z."""
    _check_attack(p, loss)
    z_arr = _checked_levels(z)
    out = (model.v - breach_prob(model, z_arr)) * p * loss - z_arr
    return float(out) if out.ndim == 0 else out


def static_optimum(model: BreachModel, p: float, loss: float) -> float:
    """One-shot optimal investment: the root of -S_z(z) p loss = 1, clamped at 0.

    The first-order condition has a closed-form root in either family:

        class I:   z = ((v a b p loss)^(1/(b+1)) - 1) / a
        class II:  z = (ln(-a p loss ln v) / (-ln v) - 1) / a
    """
    _check_attack(p, loss)
    pl = p * loss
    # corner: marginal benefit at z = 0 does not cover the marginal cost of 1
    if -breach_prob_derivative(model, 0.0) * pl <= 1.0:
        return 0.0
    v, a, b = model.v, model.a, model.b
    if model.family is BreachFamily.CLASS_I:
        return ((v * a * b * pl) ** (1.0 / (b + 1.0)) - 1.0) / a
    return (math.log(-a * pl * math.log(v)) / -math.log(v) - 1.0) / a
