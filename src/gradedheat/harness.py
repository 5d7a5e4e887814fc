"""Epsilon-sweep verification engine.

Runs the three named experiments over a net of regularisation parameters,
fits moderateness exponents to the measured norm nets, and turns the fits
into verdicts:

    existence    sup_t ||u_eps(t)||  must grow at most polynomially in
                 1/omega(eps)  ->  Moderate(N) via check_moderate
    uniqueness   perturb data by e^{-1/eps} (or omega(eps) as the negative
                 control); the solution difference net must vanish faster
                 than omega^k_max  ->  Negligible via check_negligible
    consistency  mollified problems must converge to the classical solution,
                 strictly monotonically and below a floor

All three run through one driver, _sweep.  It refuses a config written
for another experiment, builds the grid, the operator, the mollifier and the
bump datum, regularises V and u0 for each eps on a thread pool and keeps one
SweepRecord per measured eps, merged in net order.  An experiment supplies
only two pieces: measure(eps, v_eps, u0_eps) -> (value, extras), run per eps
on the pool, and judge(records) -> (fit, verdict, extra_fits), run once on
the merged records.  The first failing eps in net order turns the report
into Fail and keeps the records that succeeded; after the judge, a record's
fitted_flag is set iff the main fit exists and its value is positive.
Every state and V norm is norms.lp_norm or a series the trajectory
recorded.  The per-eps solves are independent and the report is a
deterministic ordered reduction, so CSV output is byte-identical for any
thread count.  A passing consistency run reports Moderate carrying the
fitted slope of the error net (negative; its magnitude is the empirical
convergence order).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import SweepConfig, config_hash, parse_norm_token
from .groups import Field
from .mollify import (
    Mollifier,
    bump_field,
    classical_potential,
    omega,
    regularize_field,
    regularize_potential,
)
from .norms import lp_norm
from .operators import build_rockland
from .solve import CauchyProblem, Trajectory, step_implicit

CONSISTENCY_FLOOR_FACTOR = 0.1


class FitResult(NamedTuple):
    exponent: float
    stderr: float


def fit_exponent(pairs) -> FitResult:
    """Least-squares slope of log(value) against log(1/omega).

    pairs is a sequence of (omega, value) with omega strictly decreasing and
    every value positive; at least 4 points are required.  The slope is the
    moderateness exponent N in value ~ omega^{-N}; decaying nets give
    negative slopes.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError(f"exponent fit needs at least 4 points, got {len(pairs)}")
    omegas = np.array([w for w, _ in pairs], dtype=float)
    values = np.array([v for _, v in pairs], dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("exponent fit needs positive values (log undefined)")
    if np.any(np.diff(omegas) >= 0.0):
        raise ValueError("omega must be strictly decreasing along the net")
    x = np.log(1.0 / omegas)
    y = np.log(values)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = len(pairs) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(max(float(np.sum(resid**2)), 0.0) / dof / sxx)
    return FitResult(float(coef[1]), stderr)


@dataclass(frozen=True)
class Verdict:
    """Moderate(N) / Negligible / Fail(reason)."""

    kind: str
    exponent: float | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.kind not in ("Moderate", "Negligible", "Fail"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")

    @property
    def passed(self) -> bool:
        return self.kind != "Fail"

    def __str__(self) -> str:
        if self.kind == "Moderate":
            return f"Moderate(N={self.exponent:.6g})"
        if self.kind == "Negligible":
            return "Negligible"
        return f"Fail({self.reason})"


def check_moderate(fit: FitResult, n_max: int) -> Verdict:
    """Moderate iff the fitted exponent is at most n_max plus 3 stderr."""
    if fit.exponent <= n_max + 3.0 * fit.stderr:
        return Verdict("Moderate", exponent=fit.exponent)
    return Verdict("Fail",
                   exponent=fit.exponent,
                   reason=f"fitted exponent {fit.exponent:.6g} exceeds "
                          f"N_max = {n_max} + 3*stderr ({fit.stderr:.3g})")


def check_negligible(pairs, k_max: int) -> Verdict:
    """Negligible iff the net decays at order k_max or faster.

    Zero values are admitted: they mean the difference fell below the
    floating-point floor, which is stronger than any polynomial decay.  An
    all-zero net is Negligible outright; scattered zeros are dropped from
    the fit, and if fewer than 4 positive points remain the zeros carry the
    verdict.
    """
    pairs = list(pairs)
    if len(pairs) < 4:
        raise ValueError(f"negligibility check needs at least 4 points, got {len(pairs)}")
    positive = [(w, v) for w, v in pairs if v > 0.0]
    if any(v < 0.0 for _, v in pairs):
        raise ValueError("difference norms cannot be negative")
    if len(positive) < 4:
        return Verdict("Negligible")
    fit = fit_exponent(positive)
    if fit.exponent <= -float(k_max):
        return Verdict("Negligible", exponent=fit.exponent)
    return Verdict("Fail",
                   exponent=fit.exponent,
                   reason=f"difference net decays at order {-fit.exponent:.6g} "
                          f"< k_max = {k_max}")


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    omega: float
    norm_sup_t: float
    fitted_flag: bool
    extras: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    records: tuple[SweepRecord, ...]
    fit: FitResult | None
    verdict: Verdict
    extra_fits: tuple[tuple[str, FitResult], ...] = ()
    wall_clock: float = 0.0

    def extra_fit(self, name: str) -> FitResult:
        for key, fit in self.extra_fits:
            if key == name:
                return fit
        raise KeyError(name)


def _sup_norm(traj: Trajectory, norm_token: str) -> float:
    """Sup over recorded times of the configured norm.

    l2 and hnu2 read the per-step series; linf and lp:<p> are evaluated on
    the stored (thinned) states.
    """
    kind, p = parse_norm_token(norm_token)
    if kind == "l2":
        return float(np.max(traj.l2))
    if kind == "hnu2":
        return float(np.max(traj.h_nu2))
    return max(lp_norm(s, math.inf if kind == "linf" else p) for s in traj.states)


def _l2_state_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over the common stored times of ||a(t) - b(t)||_{L2}."""
    if len(a.states) != len(b.states):
        raise ValueError("trajectories store different numbers of states")
    return max(lp_norm(fa - fb, 2) for fa, fb in zip(a.states, b.states))


def _sweep(cfg: SweepConfig, experiment: str, measure_on, judge) -> SweepReport:
    """Run one experiment over the eps-net of cfg (see the module docstring).

    measure_on(grid, op, u0_raw) does the experiment's own setup and returns
    its measure; judge is not called on a failed sweep.
    """
    if cfg.experiment != experiment:
        raise ValueError(f"config is for {cfg.experiment!r}, not {experiment!r}")
    t0 = time.perf_counter()
    grid = cfg.make_grid()
    op = build_rockland(grid)
    psi = Mollifier(grid.dim, cfg.mollifier_radius)
    u0_raw = bump_field(grid, cfg.u0_width, cfg.u0_amplitude)
    measure = measure_on(grid, op, u0_raw)

    def solve(eps):
        w = omega(cfg.schedule, eps)
        v_eps = regularize_potential(cfg.potential, eps, cfg.v_schedule, psi, grid)
        u0_eps = regularize_field(u0_raw, eps, cfg.u0_schedule, psi)
        value, extras = measure(eps, v_eps, u0_eps)
        return SweepRecord(eps, w, value, fitted_flag=False, extras=tuple(extras.items()))

    rows, failure = [], None
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        futures = [pool.submit(solve, eps) for eps in cfg.epsilons]
        for eps, fut in zip(cfg.epsilons, futures):
            try:
                rows.append(fut.result())
            except Exception as exc:  # noqa: BLE001 - verdicts must not crash the sweep
                failure = failure or f"epsilon={eps:g}: {type(exc).__name__}: {exc}"
    if failure is None:
        fit, verdict, extra_fits = judge(rows)
    else:
        fit, verdict, extra_fits = None, Verdict("Fail", reason=failure), ()
    records = tuple(replace(r, fitted_flag=fit is not None and r.norm_sup_t > 0.0)
                    for r in rows)
    return SweepReport(config=cfg, records=records, fit=fit, verdict=verdict,
                       extra_fits=extra_fits, wall_clock=time.perf_counter() - t0)


def _fitted_nets(nets) -> tuple[tuple[str, FitResult], ...]:
    """(name, fit) for each (name, pairs) net that fit_exponent accepts.

    A short net, one with a non-positive value or one whose omegas do not
    decrease has no exponent and is left out.
    """
    fits = []
    for name, pairs in nets:
        try:
            fits.append((name, fit_exponent(pairs)))
        except ValueError:
            pass
    return tuple(fits)


def existence_experiment(cfg: SweepConfig) -> SweepReport:
    """Moderateness of the solution net sup_t ||u_eps(t)||.

    Each eps regularises the potential (under the V-schedule) and the bump
    initial datum (under the u0-schedule), integrates by backward Euler and
    records the sup of the configured norm.  The fit always regresses
    against the main schedule's omega.  Auxiliary nets (L2 and H^{nu/2}
    sups, ||V_eps||_inf under both schedules, the a-priori majorant
    (1 + ||V_eps||_inf) ||u0_eps||_{H^{nu/2}}) are fitted alongside and
    reported in extra_fits.
    """
    def measure_on(grid, op, u0_raw):
        def measure(eps, v_eps, u0_eps):
            traj = step_implicit(CauchyProblem(op, v_eps, u0_eps, cfg.T, cfg.dt))
            v_linf = lp_norm(v_eps, math.inf)
            u0_h = float(traj.h_nu2[0])
            extras = {
                "sup_l2": float(np.max(traj.l2)),
                "sup_hnu2": float(np.max(traj.h_nu2)),
                "v_linf": v_linf,
                "u0_hnu2": u0_h,
                "majorant": (1.0 + v_linf) * u0_h,
            }
            return _sup_norm(traj, cfg.norm), extras
        return measure

    def judge(rows):
        fit = fit_exponent([(r.omega, r.norm_sup_t) for r in rows])
        verdict = check_moderate(fit, cfg.n_max)
        nets = [(name, [(r.omega, dict(r.extras)[name]) for r in rows])
                for name in ("sup_l2", "sup_hnu2", "v_linf", "u0_hnu2", "majorant")]
        try:
            nets.append(("v_linf_vs_v_schedule", [(omega(cfg.v_schedule, r.epsilon),
                                                   dict(r.extras)["v_linf"]) for r in rows]))
        except ValueError:
            pass  # a constant V is never regularised, so its schedule may not reach every eps
        return fit, verdict, _fitted_nets(nets)

    return _sweep(cfg, "existence", measure_on, judge)


def _perturbation_size(cfg: SweepConfig, eps: float) -> float:
    if cfg.perturbation == "exp":
        return math.exp(-1.0 / eps)
    if cfg.perturbation == "omega1":
        return omega(cfg.schedule, eps)
    return 0.0


def uniqueness_experiment(cfg: SweepConfig) -> SweepReport:
    """Negligibility of the solution difference under data perturbations.

    Solves the configured problem and its perturbed twin
    V_eps + sigma, u0_eps + sigma * (unit-L2 bump) with
    sigma = e^{-1/eps} (or omega(eps) for the negative control), and applies
    check_negligible to the net sup_t ||u_eps - u~_eps||_{L2}.  With
    sigma = 0 the twin is the problem itself and is not solved again.
    """
    def measure_on(grid, op, u0_raw):
        probe = bump_field(grid, cfg.u0_width)
        probe = Field(grid, probe.values / lp_norm(probe, 2))

        def measure(eps, v_eps, u0_eps):
            sigma = _perturbation_size(cfg, eps)
            base = step_implicit(CauchyProblem(op, v_eps, u0_eps, cfg.T, cfg.dt))
            if sigma == 0.0:
                tilde = base
            else:
                tilde = step_implicit(CauchyProblem(op, v_eps + sigma, u0_eps + sigma * probe,
                                                    cfg.T, cfg.dt))
            return _l2_state_distance(base, tilde), {"perturbation_size": sigma}
        return measure

    def judge(rows):
        pairs = [(r.omega, r.norm_sup_t) for r in rows]
        verdict = check_negligible(pairs, cfg.k_max)
        positive = [(w, v) for w, v in pairs if v > 0.0]
        fit = fit_exponent(positive) if len(positive) >= 4 else None
        return fit, verdict, ()

    return _sweep(cfg, "uniqueness", measure_on, judge)


def consistency_experiment(cfg: SweepConfig) -> SweepReport:
    """Convergence of mollified solutions to the classical one.

    Needs a continuous potential: a sampled profile vanishing at the box
    boundary (the compactly supported continuous surrogate) or a constant.
    The classical reference solves with the unregularised V; each eps then
    solves with V * psi_eps and u0 * psi_eps.  Pass requires the error net
    e(eps) = sup_t ||u_eps - u||_{L2} to decrease strictly and to end below
    CONSISTENCY_FLOOR_FACTOR times its first value.
    """
    def measure_on(grid, op, u0_raw):
        v_raw = classical_potential(cfg.potential, grid)
        reference = step_implicit(CauchyProblem(op, v_raw, u0_raw, cfg.T, cfg.dt))

        def measure(eps, v_eps, u0_eps):
            traj = step_implicit(CauchyProblem(op, v_eps, u0_eps, cfg.T, cfg.dt))
            v_err = lp_norm(v_eps - v_raw, math.inf)
            return _l2_state_distance(traj, reference), {"v_error_linf": v_err}
        return measure

    def judge(rows):
        errors = [r.norm_sup_t for r in rows]
        fit = None
        if len(rows) >= 4 and all(v > 0 for v in errors):
            fit = fit_exponent([(r.omega, r.norm_sup_t) for r in rows])
        if not all(b < a for a, b in zip(errors, errors[1:])):
            verdict = Verdict("Fail", reason="error net is not strictly decreasing")
        elif errors[-1] >= CONSISTENCY_FLOOR_FACTOR * errors[0]:
            verdict = Verdict("Fail",
                              reason=f"final error {errors[-1]:.3g} is not below "
                                     f"{CONSISTENCY_FLOOR_FACTOR} of the first ({errors[0]:.3g})")
        else:
            verdict = Verdict("Moderate",
                              exponent=fit.exponent if fit is not None else 0.0)
        return fit, verdict, _fitted_nets(
            [("v_error_linf", [(r.omega, dict(r.extras)["v_error_linf"]) for r in rows])])

    return _sweep(cfg, "consistency", measure_on, judge)


_EXPERIMENT_RUNNERS = {
    "existence": existence_experiment,
    "uniqueness": uniqueness_experiment,
    "consistency": consistency_experiment,
}


def run_experiment(cfg: SweepConfig) -> SweepReport:
    return _EXPERIMENT_RUNNERS[cfg.experiment](cfg)


def persist_report(report: SweepReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.csv and manifest.txt under out_dir.

    The CSV body is a pure function of the configuration, so re-running an
    identical config reproduces it byte for byte; the manifest additionally
    carries wall-clock time and is not expected to be stable.
    """
    if not report.records:
        raise ValueError("nothing to persist: the report has no epsilon records")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    manifest_path = out / "manifest.txt"
    lines = ["epsilon,omega,norm_sup_t,fitted_flag"]
    for r in report.records:
        lines.append(f"{r.epsilon:.17g},{r.omega:.17g},{r.norm_sup_t:.17g},"
                     f"{int(r.fitted_flag)}")
    body = "\n".join(lines) + "\n"
    try:
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(body)
        with open(manifest_path, "w", newline="\n") as fh:
            fh.write(_manifest_text(report))
    except OSError as exc:
        raise OSError(f"cannot write report under {out}: {exc}") from exc
    return csv_path, manifest_path


def _manifest_text(report: SweepReport) -> str:
    fit = report.fit
    lines = [
        f"config_hash: {config_hash(report.config)}",
        f"version: {__version__}",
        f"experiment: {report.config.experiment}",
        f"schedule: {report.config.schedule}",
        f"norm: {report.config.norm}",
        f"records: {len(report.records)}",
        f"wall_clock_seconds: {report.wall_clock:.3f}",
        f"fitted_exponent: {fit.exponent:.17g}" if fit else "fitted_exponent: n/a",
        f"fit_stderr: {fit.stderr:.17g}" if fit else "fit_stderr: n/a",
    ]
    for name, extra in report.extra_fits:
        lines.append(f"extra_fit_{name}: {extra.exponent:.17g} "
                     f"(stderr {extra.stderr:.3g})")
    lines.append(
        "scope_note: verdicts are empirical statements about the configured "
        "finite epsilon net and the representative perturbation family, not "
        "proofs over all moderate nets")
    lines.append(f"VERDICT: {report.verdict}")
    return "\n".join(lines) + "\n"
