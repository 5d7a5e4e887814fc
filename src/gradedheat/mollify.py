"""Friedrichs mollifier nets, potential regularisation and group convolution.

The mollifier is the standard bump exp(-1/(1 - |x|^2)) supported in the
Euclidean coordinate ball of radius ``support_radius``, normalised so its
continuum integral is 1.  The radial factor is tabulated for d = 1, 2, 3 as
the values scipy's ``quad`` gives, not the correctly rounded ones (1 ulp
higher for d = 2 and 3): norm_const, and with it every report, depends on
their last bit.  Other dimensions call ``quad``.  A net member is

    psi_eps(x) = omega(eps)**(-Q) * psi(D_{1/omega(eps)}(x)),

which keeps unit mass because the dilation D_r has Jacobian r**Q.  The scale
function omega is either omega(eps) = eps or the slow logarithmic schedule
omega(eps) = (n0 * log(1/eps))**(-1/n0).

Singular potentials are regularised by the recipes

    delta   -> psi_eps,
    delta^2 -> psi_eps**2,
    f       -> f * psi_eps   (group convolution),
    const   -> const,

mirroring the nets a very weak solution is built from.  Direct sampling of
psi_eps (the delta recipes) refuses to run when the scaled support covers
fewer than ``MIN_CELLS_PER_AXIS`` grid cells along any axis, since aliased
samples corrupt the scaling-exponent fits downstream.  Convolution kernels
are instead renormalised to unit *discrete* mass, so an under-resolved kernel
degrades gracefully towards the discrete identity rather than towards garbage
mass.  The price is that a convolution never refuses an eps: once the
kernel drops below the grid scale it stops smoothing, and f * psi_eps
tends to f itself where a delta recipe would raise ResolutionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from gradedheat.errors import ResolutionError, SupportError
from gradedheat.groups import Field, Grid

__all__ = [
    "MIN_CELLS_PER_AXIS",
    "Mollifier",
    "OmegaSchedule",
    "EpsilonNet",
    "omega",
    "mollifier_net",
    "PotentialSpec",
    "classical_potential",
    "regularize_potential",
    "regularize_field",
    "convolve",
    "discrete_integral",
    "bump_field",
]

MIN_CELLS_PER_AXIS = 6
# quad's value of int_0^1 r^{d-1} exp(-1/(1-r^2)) dr (epsabs=1e-14, epsrel=1e-13)
_RADIAL_INTEGRAL = {1: float.fromhex("0x1.c6a650a045c5cp-3"),
                    2: float.fromhex("0x1.301e6989a4edbp-4"),
                    3: float.fromhex("0x1.1f8b956c8f169p-5")}


def _bump(r2: np.ndarray) -> np.ndarray:
    """exp(-1/(1-r2)) for r2 < 1, zero outside; r2 is |x|^2 already squared."""
    r2 = np.asarray(r2, dtype=float)
    inside = r2 < 1.0
    safe = np.where(inside, r2, 0.0)
    with np.errstate(divide="ignore"):
        out = np.where(inside, np.exp(-1.0 / (1.0 - safe)), 0.0)
    return out


def _unit_ball_bump_integral(dim: int) -> float:
    """Integral of exp(-1/(1-|x|^2)) over the unit ball in R^dim."""
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    radial = _RADIAL_INTEGRAL.get(dim)
    if radial is None:
        from scipy.integrate import quad
        radial, _ = quad(lambda r: r ** (dim - 1) * math.exp(-1.0 / (1.0 - r * r)),
                         0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    return surface * radial


@dataclass(frozen=True)
class Mollifier:
    """Normalised bump in R^dim supported in |x| <= support_radius."""

    dim: int
    support_radius: float = 1.0
    norm_const: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not 0 < self.support_radius < math.inf:
            raise ValueError(f"support radius must be in (0, inf), got {self.support_radius}")
        const = self.support_radius**self.dim * _unit_ball_bump_integral(self.dim)
        object.__setattr__(self, "norm_const", const)

    @property
    def peak(self) -> float:
        """psi(0) = e^{-1} / norm_const."""
        return math.exp(-1.0) / self.norm_const

    def evaluate_r2(self, r2) -> np.ndarray:
        """psi at points given by |x/support_radius|^2."""
        return _bump(r2) / self.norm_const


@dataclass(frozen=True)
class OmegaSchedule:
    """Scale schedule relating eps to the dilation parameter omega(eps)."""

    kind: str  # "polynomial" or "logarithmic"
    n0: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "logarithmic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "logarithmic" and self.n0 < 1:
            raise ValueError(f"logarithmic schedule needs n0 >= 1, got {self.n0}")

    @classmethod
    def polynomial(cls) -> "OmegaSchedule":
        return cls("polynomial")

    @classmethod
    def logarithmic(cls, n0: int) -> "OmegaSchedule":
        return cls("logarithmic", n0)

    def __str__(self) -> str:
        return "poly" if self.kind == "polynomial" else f"log:{self.n0}"


def omega(schedule: OmegaSchedule, eps: float) -> float:
    """omega(eps) under the given schedule."""
    if schedule.kind == "polynomial":
        if not (0.0 < eps <= 1.0):
            raise ValueError(f"polynomial schedule needs eps in (0, 1], got {eps}")
        return float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError(f"logarithmic schedule needs eps in (0, 1), got {eps}")
    return float((schedule.n0 * math.log(1.0 / eps)) ** (-1.0 / schedule.n0))


@dataclass(frozen=True)
class EpsilonNet:
    """Strictly decreasing regularisation parameters in (0, 1]."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("epsilon net must be non-empty")
        for e in self.values:
            if not (0.0 < e <= 1.0):
                raise ValueError(f"epsilon values must lie in (0, 1], got {e}")
        if any(b >= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"epsilon values must be strictly decreasing, got {self.values}")

    @classmethod
    def dyadic(cls, start: float = 0.5, count: int = 5) -> "EpsilonNet":
        return cls(tuple(start * 2.0**-k for k in range(count)))

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def _support_extents(psi: Mollifier, eps: float, schedule: OmegaSchedule,
                     grid: Grid) -> tuple[float, tuple[float, ...]]:
    """omega(eps) and the per-axis extents of the scaled support.

    Raises SupportError if the support does not fit in the box.
    """
    if psi.dim != grid.dim:
        raise ValueError(f"mollifier dimension {psi.dim} does not match grid dimension {grid.dim}")
    w = omega(schedule, eps)
    extents = tuple(psi.support_radius * w**nu for nu in grid.group.weights)
    for ext, L in zip(extents, grid.half_widths):
        if ext > L:
            raise SupportError(
                f"scaled mollifier support {ext:.4g} exceeds the box half-width {L:.4g}; "
                "it would overlap itself through the periodic boundary"
            )
    return w, extents


def _sample_net(psi: Mollifier, w: float, extents, grid: Grid) -> Field:
    """omega^{-Q} psi(D_{1/omega} x) on the grid."""
    r2 = sum((ax / ext) ** 2 for ax, ext in zip(grid.broadcast_axes(), extents))
    values = w ** (-grid.group.Q) * psi.evaluate_r2(r2)
    return Field(grid, np.broadcast_to(values, grid.shape))


def mollifier_net(psi: Mollifier, eps: float, schedule: OmegaSchedule, grid: Grid) -> Field:
    """Sample psi_eps = omega^{-Q} psi(D_{1/omega} x), centred at the identity.

    Raises SupportError if the scaled support does not fit in the box and
    ResolutionError if it covers fewer than MIN_CELLS_PER_AXIS cells along
    some axis.
    """
    w, extents = _support_extents(psi, eps, schedule, grid)
    for ext, h in zip(extents, grid.spacings):
        cells = 2.0 * ext / h
        if cells < MIN_CELLS_PER_AXIS:
            raise ResolutionError(
                f"scaled mollifier support covers {cells:.2f} cells on an axis but "
                f"{MIN_CELLS_PER_AXIS} are required; refine the grid or stop the net earlier"
            )
    return _sample_net(psi, w, extents, grid)


def discrete_integral(f: Field) -> float:
    """Haar integral of the field; compensated summation for reproducibility."""
    return math.fsum(f.values.ravel()) * f.grid.cell_volume


def _even_points_required(grid: Grid):
    if any(n % 2 for n in grid.points):
        raise ValueError(
            f"group convolution needs even point counts so node differences are "
            f"nodes again, got {grid.points}"
        )


def convolve(f: Field, g: Field) -> Field:
    """Group convolution (f * g)(x) = sum_y f(y) g(y^{-1} x) cell_volume.

    On abelian groups this is the periodic convolution sum (computed by FFT);
    on the Heisenberg group the central coordinate of y^{-1} x falls between
    nodes, and g is interpolated linearly along that axis.  The Heisenberg
    sum runs over the (a, b) columns of supp f: along c, a column's shift
    and the interpolation are one Fourier multiplier.
    """
    if f.grid != g.grid:
        raise ValueError("convolution operands live on different grids")
    grid = f.grid
    _even_points_required(grid)
    if grid.group.is_abelian:
        return _convolve_abelian(f, g)
    return _convolve_heisenberg(f, g)


def _convolve_abelian(f: Field, g: Field) -> Field:
    grid = f.grid
    # y^{-1} x = x - y has node index (ix - iy + n/2); pre-roll g so the FFT
    # circular convolution indexes it correctly
    g_aligned = np.roll(g.values, tuple(-(n // 2) for n in grid.points),
                        axis=tuple(range(grid.dim)))
    axes = tuple(range(grid.dim))
    out = np.fft.irfftn(np.fft.rfftn(f.values) * np.fft.rfftn(g_aligned),
                        s=grid.shape, axes=axes)
    return Field(grid, out * grid.cell_volume)


def _convolve_heisenberg(f: Field, g: Field) -> Field:
    grid = f.grid
    na, nb, nc = grid.points
    hc = grid.spacings[2]
    ax_a, ax_b, _ = grid.axes
    freq = np.arange(nc // 2 + 1)
    roots = np.exp(-2j * np.pi * np.arange(nc) / nc)
    g_hat = np.fft.rfft(g.values, axis=2)
    # c-transform of each column of f, with c counted from the centre node
    f_hat = np.fft.rfft(f.values, axis=2) * (-1.0) ** freq
    out = np.zeros(g_hat.shape, dtype=complex)
    for ia, ib in np.argwhere(np.any(f.values != 0.0, axis=2)):
        g_ab = np.roll(g_hat, (int(ia) - na // 2, int(ib) - nb // 2), axis=(0, 1))
        # the symplectic area term (ya*xb - yb*xa)/2 shifts g along c by s
        # cells; linear interpolation of that shift is the exact multiplier
        # e^{-2 pi i k ceil(s)/nc} ((1 - theta) + theta e^{2 pi i k/nc})
        s = (ax_a[ia] * ax_b[None, :] - ax_b[ib] * ax_a[:, None]) / (2.0 * hc)
        whole = np.ceil(s)
        theta = (whole - s)[:, :, None]
        turns = (whole.astype(np.int64)[:, :, None] * freq) % nc
        shift = roots[turns] * ((1.0 - theta) + theta * roots[-freq % nc])
        out += f_hat[ia, ib] * shift * g_ab
    return Field(grid, np.fft.irfft(out, n=nc, axis=2) * grid.cell_volume)


@dataclass(frozen=True)
class PotentialSpec:
    """Description of the potential V before regularisation.

    kind is one of "dirac_delta", "dirac_delta_squared", "sampled",
    "constant".  For the delta kinds ``value`` is a signed, nonzero
    multiplier (default 1), so value * delta covers attractive wells as
    well.  A delta sits at the identity, where psi_eps is centred.
    sign_class is derived, never declared: "nonneg" if the multiplier, the
    constant or the sample minimum is >= 0, else "real".  It picks only the
    default norm of a config (hnu2 for "nonneg", l2 for "real") and enters
    the config hash; whether a solve records the energy is decided from the
    minimum of the V it is given.
    """

    kind: str
    value: float | None = None
    sample: Field | None = None

    def __post_init__(self):
        if self.kind not in ("dirac_delta", "dirac_delta_squared", "sampled", "constant"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        delta = self.kind in ("dirac_delta", "dirac_delta_squared")
        if self.value is None:
            object.__setattr__(self, "value", 1.0 if delta else 0.0)
        if not math.isfinite(self.value):
            raise ValueError(f"{self.kind} potential needs a finite value, got {self.value}")
        if delta and self.value == 0.0:
            raise ValueError(f"{self.kind} needs a nonzero multiplier")
        if self.kind == "sampled" and self.sample is None:
            raise ValueError("sampled potential needs a sample field")

    @property
    def sign_class(self) -> str:
        lowest = float(self.sample.values.min()) if self.kind == "sampled" else self.value
        return "nonneg" if lowest >= 0 else "real"

    @classmethod
    def dirac_delta(cls, multiplier: float = 1.0) -> "PotentialSpec":
        return cls("dirac_delta", value=float(multiplier))

    @classmethod
    def dirac_delta_squared(cls, multiplier: float = 1.0) -> "PotentialSpec":
        return cls("dirac_delta_squared", value=float(multiplier))

    @classmethod
    def constant(cls, value: float) -> "PotentialSpec":
        return cls("constant", value=float(value))

    @classmethod
    def sampled(cls, sample: Field) -> "PotentialSpec":
        return cls("sampled", sample=sample)


def _check_center(center, grid: Grid):
    if len(center) != grid.dim:
        raise ValueError(f"center has {len(center)} coordinates, grid needs {grid.dim}")
    for c, L in zip(center, grid.half_widths):
        if not (-L <= c < L):
            raise ValueError(f"center {center} lies outside the grid box")


def unit_mass_kernel(psi: Mollifier, eps: float, schedule: OmegaSchedule,
                     grid: Grid) -> Field:
    """psi_eps renormalised to unit discrete mass, for convolution smoothing.

    No resolution guard: as the support drops below the grid scale the
    renormalised kernel tends to the discrete delta, i.e. convolution with it
    tends to the identity, which is the correct fixed-grid limit.
    """
    raw = _sample_net(psi, *_support_extents(psi, eps, schedule, grid), grid)
    mass = discrete_integral(raw)
    if mass <= 0.0:
        raise ResolutionError(
            "scaled mollifier support contains no grid node; the grid cannot "
            "represent this eps"
        )
    return Field(grid, raw.values / mass)


def classical_potential(pot: PotentialSpec, grid: Grid) -> Field:
    """V itself on the grid: the epsilon-free field of a constant or sampled V.

    Delta kinds have no such field; they exist only through regularisation.
    """
    if pot.kind == "constant":
        return Field(grid, np.full(grid.shape, pot.value))
    if pot.kind == "sampled":
        return pot.sample
    raise ValueError(f"{pot.kind} has no classical (epsilon-free) form: a delta-type "
                     "potential exists only through its regularisation at some epsilon")


def regularize_potential(pot: PotentialSpec, eps: float, schedule: OmegaSchedule,
                         psi: Mollifier, grid: Grid) -> Field:
    """The regularised potential V_eps on the grid.

    delta -> psi_eps, delta^2 -> psi_eps^2 (direct sampling, resolution
    guarded); sampled f -> f * psi_eps with a unit-discrete-mass kernel;
    constants pass through unchanged.
    """
    if pot.kind == "constant":
        return classical_potential(pot, grid)
    if pot.kind == "dirac_delta":
        net = mollifier_net(psi, eps, schedule, grid)
        return Field(grid, pot.value * net.values)
    if pot.kind == "dirac_delta_squared":
        net = mollifier_net(psi, eps, schedule, grid)
        return Field(grid, pot.value * net.values**2)
    if pot.sample.grid != grid:
        raise ValueError("sampled potential lives on a different grid")
    return regularize_field(pot.sample, eps, schedule, psi)


def regularize_field(f: Field, eps: float, schedule: OmegaSchedule,
                     psi: Mollifier) -> Field:
    """Smooth a field by group convolution with the unit-mass mollifier."""
    return convolve(f, unit_mass_kernel(psi, eps, schedule, f.grid))


def bump_field(grid: Grid, width, amplitude: float = 1.0, center=None) -> Field:
    """Smooth compactly supported bump with the given peak amplitude.

    width is the coordinate half-width of the support (scalar or per-axis);
    the profile is amplitude * exp(1 - 1/(1 - r^2)), peaking at amplitude.
    """
    if np.isscalar(width):
        width = (float(width),) * grid.dim
    elif len(width) != grid.dim:
        raise ValueError(f"width has {len(width)} entries, grid needs {grid.dim}")
    if center is None:
        center = (0.0,) * grid.dim
    _check_center(center, grid)
    for wd, L in zip(width, grid.half_widths):
        if not wd > 0:
            raise ValueError(f"width must be positive, got {width}")
        if wd > L:
            raise SupportError(f"bump width {wd} exceeds box half-width {L}")
    axes = grid.broadcast_axes()
    r2 = sum(((ax - c) / wd) ** 2 for ax, c, wd in zip(axes, center, width))
    values = amplitude * math.e * _bump(r2)
    return Field(grid, np.broadcast_to(values, grid.shape))
