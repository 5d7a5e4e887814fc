"""Lebesgue norms on grid fields.

All integrals use the cell-volume weighted node sum, which is the Haar
integral of the piecewise-constant interpolant.  Summation is numpy's fixed
pairwise order, so results are reproducible across runs and thread counts.
"""

from __future__ import annotations

import math

import numpy as np

from gradedheat.groups import Field

__all__ = ["lp_norm"]


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
