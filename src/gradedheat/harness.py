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

Every Cauchy problem comes from problem_builder, the one recipe from a
config and an eps to the regularised problem; `gradedheat solve` uses it
too.  All three experiments run through one driver, _sweep.  It refuses a
config written for another experiment, calls the builder once, builds and
measures each eps's problem, on a thread pool where it runs more than one
worker, and keeps one SweepRecord per measured eps, merged in net order.  An
experiment supplies only two pieces: measure(eps, problem) -> (value, extras),
run per eps, and judge(records) -> (fit, verdict, extra_fits), run once on the
merged records.  Only a numerical error (errors.NumericalError) fails an eps: the
first in net order turns the report into Fail and keeps the records that
succeeded.  Any other exception is a fault, not a verdict, and propagates.
After the judge, a record's fitted_flag is set iff the main fit exists and
its value is positive.  Every state and V norm is norms.lp_norm or a series the
trajectory recorded.  Only existence reads the config's norm, l2 or hnu2, and
only as a series, so it solves with keep_states=False and keeps no states;
uniqueness and consistency read the L2 distance between thinned states,
whatever the norm, so their solves (base, twin, reference and each eps) use
series=False and record no series.  A state that leaves float64 range in
those solves fails the eps with a CapabilityError naming the first kept step
at or after it (solve._integrate).  The per-eps solves are
independent and the report is a deterministic ordered reduction, so CSV output
is byte-identical for any worker count.  A passing consistency run reports
Moderate carrying the fitted slope of the error net (negative; its magnitude
is the empirical convergence order).

The pool runs min(cores, number of eps) workers, cores being the CPUs this
process may run on (its affinity, else os.cpu_count()); a 1-D sweep, whose O(n)
steps hold the GIL, runs one worker, since a second only slows it.  One worker
is no pool: the eps are solved in turn on the calling thread.  The cores of a
pool are split between the workers and BLAS: while the pool runs, the OpenBLAS
that numpy links, which runs the resolvent's H1 block products, is
held at cores // workers threads (at least 1, and never above the count it
had), so workers x BLAS threads <= cores.  The pthreads OpenBLAS that numpy
bundles keeps one thread count for the whole process, so other threads share
the cap while the pool runs and the count is put back when the pool exits.
Each pool claims all the cores, so the pools of concurrent sweeps in one process
take turns.  Every path outside a pool, a one-worker sweep too, keeps its BLAS
threads.  A BLAS that does not export openblas_set_num_threads_local (MKL,
Accelerate, OpenBLAS before 0.3.27) is not capped.  The manifest records the
split.  The setter and the LAPACK routines of the steps, dpttrf/dpttrs on
1-D periodic tridiagonal systems and the upper packed dpptrf/dpptrs of the
Woodbury step (solve._woodbury_solver), are bound in numpy's OpenBLAS by
one module (gradedheat._lapack); the routines run on the calling thread at
any count.  The dpotrf/dpotri that invert the H1 resolvent's blocks link
scipy's OpenBLAS, which the pool does not cap, and the build holds it at
one thread itself (operators.DiscreteRockland.resolvent), through the same
setter-finder (_lapack.openblas_thread_setter).  The packed Cholesky's and
the held inverse's bits do not depend on the BLAS thread count, so the
reports stay byte-identical for any worker count and any CPU affinity;
numpy's Cholesky and the blocked dpotrf change bits with the count from
s = 128 on.
"""

from __future__ import annotations

import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import MIN_FIT_POINTS, SweepConfig, config_hash
from .errors import NumericalError
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
from ._lapack import thread_setter as _blas_thread_setter
from .operators import build_rockland
from .solve import CauchyProblem, Trajectory, step_implicit

CONSISTENCY_FLOOR_FACTOR = 0.1


class FitResult(NamedTuple):
    exponent: float
    stderr: float


def fit_exponent(pairs) -> FitResult:
    """Least-squares slope of log(value) against log(1/omega).

    pairs is a sequence of (omega, value) with omega strictly decreasing and
    every omega and value finite and positive; at least MIN_FIT_POINTS points
    are required.  The slope is the moderateness exponent N in
    value ~ omega^{-N}; decaying nets give negative slopes.
    """
    pairs = list(pairs)
    if len(pairs) < MIN_FIT_POINTS:
        raise ValueError(f"exponent fit needs at least {MIN_FIT_POINTS} points, got {len(pairs)}")
    omegas = np.array([w for w, _ in pairs], dtype=float)
    values = np.array([v for _, v in pairs], dtype=float)
    for name, array in (("omegas", omegas), ("values", values)):
        if not np.all(np.isfinite(array) & (array > 0.0)):
            raise ValueError(f"exponent fit needs finite positive {name} (log undefined)")
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


def check_negligible(pairs, k_max: int) -> tuple[Verdict, FitResult | None]:
    """Negligible iff the net decays at order k_max or faster; also the fit.

    Zero values are admitted: they mean the difference fell below the
    floating-point floor, which is stronger than any polynomial decay.  An
    all-zero net is Negligible outright; scattered zeros are dropped from
    the fit, and if fewer than MIN_FIT_POINTS positive points remain the
    zeros carry the verdict, and the fit is None.
    """
    pairs = list(pairs)
    if len(pairs) < MIN_FIT_POINTS:
        raise ValueError(f"negligibility check needs at least {MIN_FIT_POINTS} points, "
                         f"got {len(pairs)}")
    positive = [(w, v) for w, v in pairs if v > 0.0]
    if any(v < 0.0 for _, v in pairs):
        raise ValueError("difference norms cannot be negative")
    if len(positive) < MIN_FIT_POINTS:
        return Verdict("Negligible"), None
    fit = fit_exponent(positive)
    if fit.exponent <= -float(k_max):
        return Verdict("Negligible", exponent=fit.exponent), fit
    return Verdict("Fail",
                   exponent=fit.exponent,
                   reason=f"difference net decays at order {-fit.exponent:.6g} "
                          f"< k_max = {k_max}"), fit


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
    workers: int = 1
    blas_threads: int | None = None  # per worker; None where no setter was found

    def extra_fit(self, name: str) -> FitResult:
        for key, fit in self.extra_fits:
            if key == name:
                return fit
        raise KeyError(name)


def _l2_state_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over the common stored times of ||a(t) - b(t)||_{L2}."""
    if len(a.states) != len(b.states):
        raise ValueError("trajectories store different numbers of states")
    return max(lp_norm(fa - fb, 2) for fa, fb in zip(a.states, b.states))


def _cores() -> int:
    """The CPUs this process may run on; sched_getaffinity is Linux-only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# where the BLAS count a pool caps is the process's, two pools at once would
# restore each other's counts out of order
_POOL_LOCK = threading.Lock()


@contextmanager
def _capped_pool(workers: int, cores: int):
    """A map over the eps whose workers split the cores with BLAS (module docstring).

    One worker maps on the calling thread: no pool, and BLAS keeps its
    count.  More map on a thread pool, and numpy's OpenBLAS is lowered,
    never raised, to cores // workers threads (at least 1) in the calling
    thread and, by the pool initializer, in each worker, and gets its count
    back when the pool has exited.  Yields the map and the BLAS threads per
    worker, None where they were left alone.
    """
    if workers == 1:
        yield map, None
        return
    setter = _blas_thread_setter()
    with _POOL_LOCK:
        before = cap = None
        if setter is not None:
            before = setter(1)  # the setter is the only getter
            cap = min(before, max(1, cores // workers))
            setter(cap)
        try:
            with ThreadPoolExecutor(max_workers=workers, initializer=setter,
                                    initargs=(cap,)) as pool:
                yield pool.map, cap
        finally:
            if setter is not None:
                setter(before)


def problem_builder(cfg: SweepConfig):
    """problem(eps=None) -> the CauchyProblem of cfg, regularised at eps.

    The grid, the operator, the mollifier and the bump datum are built once.
    V is regularised under schedule_v and u0 under schedule_u0; problem() is
    the classical problem, V itself (constant or sampled only) and the datum.
    """
    grid = cfg.make_grid()
    op = build_rockland(grid)
    psi = Mollifier(grid.dim, cfg.mollifier_radius)
    u0 = bump_field(grid, cfg.u0_width, cfg.u0_amplitude)

    def problem(eps: float | None = None) -> CauchyProblem:
        if eps is None:
            return CauchyProblem(op, classical_potential(cfg.potential, grid), u0, cfg.T, cfg.dt)
        v_eps = regularize_potential(cfg.potential, eps, cfg.schedule_v, psi, grid)
        u0_eps = regularize_field(u0, eps, cfg.schedule_u0, psi)
        return CauchyProblem(op, v_eps, u0_eps, cfg.T, cfg.dt)
    return problem


def _sweep(cfg: SweepConfig, experiment: str, measure_on, judge) -> SweepReport:
    """Run one experiment over the eps-net of cfg (see the module docstring).

    measure_on(problem_builder(cfg)) returns the experiment's measure; judge
    is not called on a failed sweep.
    """
    if cfg.experiment != experiment:
        raise ValueError(f"config is for {cfg.experiment!r}, not {experiment!r}")
    t0 = time.perf_counter()
    problem = problem_builder(cfg)
    measure = measure_on(problem)

    def solve(eps):
        """eps's record, or the text of the numerical error that failed it."""
        try:
            value, extras = measure(eps, problem(eps))
        except NumericalError as exc:
            return f"epsilon={eps:g}: {type(exc).__name__}: {exc}"
        return SweepRecord(eps, omega(cfg.schedule, eps), value, fitted_flag=False,
                           extras=tuple(extras.items()))

    cores = _cores()
    workers = 1 if cfg.group.dim == 1 else min(cores, len(cfg.epsilons))
    with _capped_pool(workers, cores) as (mapper, blas_threads):
        # a fault propagates at once, and Executor.map cancels the eps behind it
        results = list(mapper(solve, cfg.epsilons))
    rows = [r for r in results if isinstance(r, SweepRecord)]
    failure = next((r for r in results if isinstance(r, str)), None)
    if failure is None:
        fit, verdict, extra_fits = judge(rows)
    else:
        fit, verdict, extra_fits = None, Verdict("Fail", reason=failure), ()
    records = tuple(replace(r, fitted_flag=fit is not None and r.norm_sup_t > 0.0)
                    for r in rows)
    return SweepReport(config=cfg, records=records, fit=fit, verdict=verdict,
                       extra_fits=extra_fits, wall_clock=time.perf_counter() - t0,
                       workers=workers, blas_threads=blas_threads)


def _fit_or_none(pairs) -> FitResult | None:
    """fit_exponent(pairs), or None for a net it refuses: a short net, one
    with a value that is not finite and positive, or one whose omegas do not
    decrease has no exponent."""
    try:
        return fit_exponent(pairs)
    except ValueError:
        return None


def _fitted_nets(nets) -> tuple[tuple[str, FitResult], ...]:
    """(name, fit) for each (name, pairs) net that has an exponent."""
    fits = ((name, _fit_or_none(pairs)) for name, pairs in nets)
    return tuple((name, fit) for name, fit in fits if fit is not None)


def existence_experiment(cfg: SweepConfig) -> SweepReport:
    """Moderateness of the solution net sup_t ||u_eps(t)||.

    Each eps regularises the potential (under the V-schedule) and the bump
    initial datum (under the u0-schedule), integrates by backward Euler with
    no stored states and records the sup over every step of the configured
    norm, l2 or hnu2: the sup_l2 or sup_hnu2 extra.  The fit always regresses
    against the main schedule's omega.  Auxiliary nets (L2 and H^{nu/2}
    sups, ||V_eps||_inf under both schedules, the a-priori majorant
    (1 + ||V_eps||_inf) ||u0_eps||_{H^{nu/2}}) are fitted alongside and
    reported in extra_fits.
    """
    def measure(eps, p):
        traj = step_implicit(p, keep_states=False)
        v_linf = lp_norm(p.V, math.inf)
        u0_h = float(traj.h_nu2[0])
        extras = {
            "sup_l2": float(np.max(traj.l2)),
            "sup_hnu2": float(np.max(traj.h_nu2)),
            "v_linf": v_linf,
            "u0_hnu2": u0_h,
            "majorant": (1.0 + v_linf) * u0_h,
        }
        return extras["sup_" + cfg.norm], extras

    def judge(rows):
        fit = fit_exponent([(r.omega, r.norm_sup_t) for r in rows])
        verdict = check_moderate(fit, cfg.n_max)
        nets = [(name, [(r.omega, dict(r.extras)[name]) for r in rows])
                for name in ("sup_l2", "sup_hnu2", "v_linf", "u0_hnu2", "majorant")]
        try:
            nets.append(("v_linf_vs_v_schedule", [(omega(cfg.schedule_v, r.epsilon),
                                                   dict(r.extras)["v_linf"]) for r in rows]))
        except ValueError:
            pass  # a constant V is never regularised, so its schedule may not reach every eps
        return fit, verdict, _fitted_nets(nets)

    return _sweep(cfg, "existence", lambda problem: measure, judge)


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
    check_negligible to the net sup_t ||u_eps - u~_eps||_{L2}, the sup over
    the thinned states both trajectories keep.  This is the L2 distance
    whatever the config's norm says.  With sigma = 0 the twin is the problem
    itself and is not solved again.
    """
    probe = bump_field(cfg.make_grid(), cfg.u0_width)
    probe = Field(probe.grid, probe.values / lp_norm(probe, 2))

    def measure(eps, p):
        sigma = _perturbation_size(cfg, eps)
        base = step_implicit(p, series=False)
        tilde = base if sigma == 0.0 else step_implicit(
            replace(p, V=p.V + sigma, u0=p.u0 + sigma * probe), series=False)
        return _l2_state_distance(base, tilde), {}

    def judge(rows):
        verdict, fit = check_negligible([(r.omega, r.norm_sup_t) for r in rows], cfg.k_max)
        return fit, verdict, ()

    return _sweep(cfg, "uniqueness", lambda problem: measure, judge)


def consistency_experiment(cfg: SweepConfig) -> SweepReport:
    """Convergence of mollified solutions to the classical one.

    Needs a continuous potential: a sampled profile vanishing at the box
    boundary (the compactly supported continuous surrogate) or a constant.
    The classical reference solves with the unregularised V; each eps then
    solves with V * psi_eps and u0 * psi_eps.  Pass requires the error net
    e(eps) = sup_t ||u_eps - u||_{L2}, the sup over the thinned states both
    trajectories keep, to decrease strictly and to end below
    CONSISTENCY_FLOOR_FACTOR times its first value.  The error is the L2
    distance whatever the config's norm says.
    """
    def measure_on(problem):
        classical = problem()
        reference = step_implicit(classical, series=False)

        def measure(eps, p):
            v_err = lp_norm(p.V - classical.V, math.inf)
            distance = _l2_state_distance(step_implicit(p, series=False), reference)
            return distance, {"v_error_linf": v_err}
        return measure

    def judge(rows):
        errors = [r.norm_sup_t for r in rows]
        fit = _fit_or_none([(r.omega, r.norm_sup_t) for r in rows])
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
    if cfg.experiment is None:
        raise ValueError("the config names no experiment: it is for gradedheat solve")
    return _EXPERIMENT_RUNNERS[cfg.experiment](cfg)


def persist_report(report: SweepReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.csv and manifest.txt under out_dir.

    The CSV body is a pure function of the configuration, so re-running an
    identical config reproduces it byte for byte; the manifest additionally
    carries wall-clock time and is not expected to be stable.  A report with
    no records, a sweep whose every eps failed, writes the CSV header alone
    and a manifest with its Fail verdict, so no earlier run's files remain.
    """
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


def _pool_text(workers: int, blas_threads: int | None) -> str:
    def count(n, noun):
        return f"{n} {noun}" + ("" if n == 1 else "s")
    blas = "BLAS threads unchanged" if blas_threads is None else count(blas_threads, "BLAS thread")
    return f"{count(workers, 'worker')} x {blas}"


def _manifest_text(report: SweepReport) -> str:
    fit = report.fit
    config = report.config
    # only existence reads the norm; the other nets are L2 distances and errors
    norm = [f"norm: {config.norm}"] if config.experiment == "existence" else []
    lines = [
        f"config_hash: {config_hash(config)}",
        f"version: {__version__}",
        f"experiment: {config.experiment}",
        f"schedule: {config.schedule}",
        *norm,
        f"records: {len(report.records)}",
        f"wall_clock_seconds: {report.wall_clock:.3f}",
        f"pool: {_pool_text(report.workers, report.blas_threads)}",
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
