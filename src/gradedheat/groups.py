"""Graded groups in exponential coordinates, their dilation weights, grids and fields.

A group element is a coordinate vector in R^n.  The two families implemented
are the abelian groups R^d and the first Heisenberg group H1 with coordinates
(a, b, c) and product

    (a1, b1, c1) * (a2, b2, c2)
        = (a1 + a2, b1 + b2, c1 + c2 + (a1*b2 - b1*a2) / 2).

Dilations act coordinate-wise, D_r(x)_i = r**w_i * x_i, with positive integer
weights w.  The homogeneous dimension is Q = sum(w); for R^d that is d and for
H1 with weights (1, 1, 2) it is 4.  Haar measure in these coordinates is
Lebesgue measure, so a cell has volume prod(h_i).

Other stratified families (e.g. the Engel group, weights (1, 1, 2, 3)) fit the
same interfaces but are not wired up here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "GroupInstance",
    "euclidean",
    "heisenberg1",
    "Grid",
    "Field",
    "make_grid",
]


@dataclass(frozen=True)
class GroupInstance:
    """A graded group: a kind tag and a coordinate dimension, which fix the
    dilation weights, (1,) * dim on euclidean and (1, 1, 2) on heisenberg1."""

    kind: str  # "euclidean" or "heisenberg1"
    dim: int

    def __post_init__(self):
        if self.kind not in ("euclidean", "heisenberg1"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.kind == "heisenberg1" and self.dim != 3:
            raise ValueError(f"heisenberg1 has 3 coordinates, got dim = {self.dim}")

    @property
    def weights(self) -> tuple[int, ...]:
        """Dilation weights, one positive integer per coordinate."""
        return (1,) * self.dim if self.is_abelian else (1, 1, 2)

    @property
    def Q(self) -> int:
        """Homogeneous dimension."""
        return sum(self.weights)

    @property
    def is_abelian(self) -> bool:
        return self.kind == "euclidean"

    def __str__(self) -> str:
        if self.kind == "euclidean":
            return f"euclidean{self.dim}"
        return self.kind


def euclidean(d: int) -> GroupInstance:
    """The abelian group R^d with isotropic dilations."""
    return GroupInstance("euclidean", d)


def heisenberg1() -> GroupInstance:
    """The first Heisenberg group, coordinates (a, b, c), weights (1, 1, 2)."""
    return GroupInstance("heisenberg1", 3)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box prod_i [-L_i, L_i).

    Nodes along axis i sit at -L_i + k*h_i with h_i = 2*L_i/n_i, so the origin
    is a node whenever n_i is even.  Quadrature weight per node is the cell
    volume prod(h_i); this is the Haar measure of a cell in exponential
    coordinates.
    """

    group: GroupInstance
    half_widths: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.half_widths) != self.group.dim or len(self.points) != self.group.dim:
            raise ValueError(
                f"need {self.group.dim} half_widths and points, got "
                f"{len(self.half_widths)} and {len(self.points)}"
            )
        for L in self.half_widths:
            if not 0 < L < math.inf:
                raise ValueError(f"half_widths must be in (0, inf), got {self.half_widths}")
        for n in self.points:
            if n < 4:
                raise ValueError(f"need at least 4 points per axis, got {self.points}")

    @property
    def dim(self) -> int:
        return self.group.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * L / n for L, n in zip(self.half_widths, self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        """1-d coordinate arrays per axis."""
        out = []
        for L, n, h in zip(self.half_widths, self.points, self.spacings):
            out.append(-L + h * np.arange(n))
        return tuple(out)

    def broadcast_axes(self) -> tuple[np.ndarray, ...]:
        """Axis arrays reshaped so their sum/product broadcasts to self.shape."""
        return tuple(np.reshape(ax, (1,) * i + (-1,) + (1,) * (self.dim - i - 1))
                     for i, ax in enumerate(self.axes))


def make_grid(group: GroupInstance, half_widths, points) -> Grid:
    """Build a periodic grid; scalars broadcast over all axes."""
    if np.isscalar(half_widths):
        half_widths = (float(half_widths),) * group.dim
    else:
        half_widths = tuple(float(L) for L in half_widths)
    if np.isscalar(points):
        points = (int(points),) * group.dim
    else:
        points = tuple(int(n) for n in points)
    return Grid(group, half_widths, points)


@dataclass(frozen=True)
class Field:
    """Scalar samples on a grid.  Values are finite and read-only."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "Field":
        """Sample fn(x1, ..., xn) on the grid; fn must broadcast."""
        return cls(grid, np.broadcast_to(fn(*grid.broadcast_axes()), grid.shape))

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))

    @property
    def flat(self) -> np.ndarray:
        return self.values.ravel()

    def __add__(self, other):
        if isinstance(other, Field):
            self._check_same_grid(other)
            return Field(self.grid, self.values + other.values)
        return Field(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, Field):
            self._check_same_grid(other)
            return Field(self.grid, self.values - other.values)
        return Field(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, Field):
            self._check_same_grid(other)
            return Field(self.grid, self.values * other.values)
        return Field(self.grid, self.values * other)

    __rmul__ = __mul__

    def _check_same_grid(self, other: "Field"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")
