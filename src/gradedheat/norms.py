"""Lebesgue and Sobolev norms on grid fields.

All integrals use the cell-volume weighted node sum, which is the Haar
integral of the piecewise-constant interpolant.  Summation is numpy's fixed
pairwise order, so results are reproducible across runs and thread counts.

The homogeneous Sobolev norm of order s is ||R^{s/nu} f||_{L^2}; the
inhomogeneous norm is the sum

    ||f||_{H^s} = ||f||_{L^2_s} + ||f||_{L^2}.

``embedding_ratio`` measures the constant in the homogeneous embedding
L^{q~0}_b -> L^{q0}_a, which requires the weight balance

    b - a = Q (1/q~0 - 1/q0)

with Q the homogeneous dimension of the grid's group.
"""

from __future__ import annotations

import math

import numpy as np

from gradedheat.errors import DegenerateFieldError
from gradedheat.groups import Field
from gradedheat.operators import DiscreteRockland, fractional_power

__all__ = ["lp_norm", "homogeneous_sobolev_norm", "hs_norm", "embedding_ratio"]


def lp_norm(f: Field, p: float) -> float:
    """L^p norm for 1 <= p <= inf; p = inf is the max of |f|."""
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    a = np.abs(f.values)
    if p == math.inf:
        return float(a.max())
    vol = f.grid.cell_volume
    if p == 1:
        return float(np.sum(a)) * vol
    if p == 2:
        return math.sqrt(float(np.sum(a * a)) * vol)
    m = float(a.max())  # scaled by the max, so the sum neither overflows nor underflows to 0
    return 0.0 if m == 0.0 else m * float(np.sum((a / m) ** p) * vol) ** (1.0 / p)


def homogeneous_sobolev_norm(f: Field, s: float, op: DiscreteRockland) -> float:
    """||R^{s/nu} f||_{L^2}; s = 0 degenerates to the plain L^2 norm."""
    if s < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {s}")
    return lp_norm(fractional_power(op, s / op.nu, f), 2)


def hs_norm(f: Field, s: float, op: DiscreteRockland) -> float:
    """Inhomogeneous Sobolev norm: homogeneous part plus L^2 part."""
    return homogeneous_sobolev_norm(f, s, op) + lp_norm(f, 2)


def embedding_ratio(f: Field, q_tilde0: float, q0: float, b: float, a: float,
                    op: DiscreteRockland) -> float:
    """||R^{a/nu} f||_{L^{q0}} / ||R^{b/nu} f||_{L^{q~0}} under the balance
    b - a = Q (1/q~0 - 1/q0).

    The ratio is a measured stand-in for the (unquantified) embedding
    constant.  Raises on balance violations and on zero denominators.
    """
    if not (1.0 < q_tilde0 < q0 < math.inf):
        raise ValueError(f"need 1 < q~0 < q0 < inf, got q~0={q_tilde0}, q0={q0}")
    Q = op.grid.group.Q
    balance = b - a - Q * (1.0 / q_tilde0 - 1.0 / q0)
    if abs(balance) > 1e-12:
        raise ValueError(
            f"weight balance violated: b - a = {b - a} but Q(1/q~0 - 1/q0) = "
            f"{Q * (1.0 / q_tilde0 - 1.0 / q0)}"
        )
    denom = lp_norm(fractional_power(op, b / op.nu, f), q_tilde0)
    if denom == 0.0:
        raise DegenerateFieldError("denominator norm is zero; embedding ratio undefined")
    return lp_norm(fractional_power(op, a / op.nu, f), q0) / denom
