"""Sweep engine: exponent fits, verdict rules, the three experiments."""

import importlib.util
import math
import os
import sys
import threading
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from gradedheat.config import (
    SolveOptions,
    SweepConfig,
    canonical_text,
    config_hash,
    parse_solve_config_file,
    parse_sweep_config,
)
from gradedheat import harness, operators
from gradedheat.errors import ConfigError
from gradedheat.harness import (
    FitResult,
    SweepRecord,
    SweepReport,
    Verdict,
    check_moderate,
    check_negligible,
    consistency_experiment,
    existence_experiment,
    fit_exponent,
    persist_report,
    run_experiment,
    uniqueness_experiment,
)
from gradedheat.mollify import (
    EpsilonNet,
    Mollifier,
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    regularize_field,
    regularize_potential,
)
from gradedheat.groups import euclidean, heisenberg1, make_grid
from gradedheat.norms import lp_norm

POLY = OmegaSchedule.polynomial()


def load_perfbench(name):
    """A module of the benchmark under perfbench/, which is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def planted_pairs(slope, count=6, scale=3.0):
    omegas = [0.5 * 2.0**-k for k in range(count)]
    return [(w, scale * w**-slope) for w in omegas]


class TestFitExponent:
    @pytest.mark.parametrize("slope", [0.0, 1.0, 2.0, 3.5, 6.0, -2.0])
    def test_recovers_planted_slope(self, slope):
        fit = fit_exponent(planted_pairs(slope))
        assert fit.exponent == pytest.approx(slope, abs=1e-9)
        assert fit.stderr < 1e-9

    def test_noise_tolerance(self):
        # 1 percent multiplicative noise moves the slope well under 5 percent
        rng = np.random.default_rng(7)
        for _ in range(20):
            pairs = [(w, v * (1.0 + 0.01 * rng.standard_normal()))
                     for w, v in planted_pairs(4.0, count=8)]
            fit = fit_exponent(pairs)
            assert abs(fit.exponent - 4.0) < 0.2
            assert fit.stderr < 0.2

    def test_exponential_decay_reads_very_negative(self):
        # e^{-1/eps} along a dyadic net is steeper than any polynomial order
        eps = [2.0**-k for k in range(2, 8)]
        pairs = [(e, math.exp(-1.0 / e)) for e in eps]
        fit = fit_exponent(pairs)
        assert fit.exponent < -20.0

    def test_needs_four_points(self):
        with pytest.raises(ValueError, match="4 points"):
            fit_exponent(planted_pairs(1.0, count=3))

    def test_rejects_nonpositive_values(self):
        pairs = planted_pairs(1.0)
        pairs[2] = (pairs[2][0], 0.0)
        with pytest.raises(ValueError, match="positive"):
            fit_exponent(pairs)

    def test_rejects_increasing_omega(self):
        pairs = list(reversed(planted_pairs(1.0)))
        with pytest.raises(ValueError, match="decreasing"):
            fit_exponent(pairs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite_values(self, value):
        pairs = planted_pairs(1.0)
        pairs[2] = (pairs[2][0], value)
        with pytest.raises(ValueError, match="finite positive values"):
            fit_exponent(pairs)

    @pytest.mark.parametrize("omega", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_omega_that_is_not_finite_and_positive(self, omega):
        pairs = planted_pairs(1.0)
        pairs[-1] = (omega, pairs[-1][1])
        with pytest.raises(ValueError, match="finite positive omegas"):
            fit_exponent(pairs)


class TestVerdicts:
    def test_moderate_within_bound(self):
        v = check_moderate(FitResult(2.3, 0.01), n_max=3)
        assert v.kind == "Moderate" and v.passed
        assert str(v) == "Moderate(N=2.3)"

    def test_moderate_uses_stderr_slack(self):
        assert check_moderate(FitResult(3.2, 0.1), n_max=3).kind == "Moderate"
        assert check_moderate(FitResult(3.5, 0.1), n_max=3).kind == "Fail"

    def test_fail_reason_mentions_bound(self):
        v = check_moderate(FitResult(8.0, 0.0), n_max=2)
        assert not v.passed
        assert "N_max = 2" in str(v)

    def test_negligible_all_zero(self):
        pairs = [(0.5 * 2.0**-k, 0.0) for k in range(5)]
        assert check_negligible(pairs, k_max=10) == (Verdict("Negligible"), None)

    def test_negligible_scattered_zeros(self):
        # under 4 positive points the zero rows carry the verdict
        pairs = [(0.5, 1e-3), (0.25, 0.0), (0.125, 1e-9), (0.0625, 0.0), (0.03125, 0.0)]
        assert check_negligible(pairs, k_max=10)[0].kind == "Negligible"

    def test_negligible_exponential(self):
        eps = [2.0**-k for k in range(2, 8)]
        pairs = [(e, math.exp(-1.0 / e)) for e in eps]
        v, fit = check_negligible(pairs, k_max=10)
        assert v.kind == "Negligible"
        assert v.exponent < -20.0
        assert fit == fit_exponent(pairs)

    def test_slow_decay_fails(self):
        pairs = planted_pairs(-1.0)  # value ~ omega^1
        v, _ = check_negligible(pairs, k_max=10)
        assert v.kind == "Fail"
        assert "k_max" in str(v)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="verdict kind"):
            Verdict("Maybe")

    def test_negative_values_rejected(self):
        pairs = planted_pairs(1.0)
        pairs[1] = (pairs[1][0], -1.0)
        with pytest.raises(ValueError, match="negative"):
            check_negligible(pairs, k_max=10)


def make_config(**overrides):
    base = dict(
        group=euclidean(1),
        half_width=1.0,
        points=(128,),
        potential=PotentialSpec.dirac_delta(),
        schedule=POLY,
        epsilons=EpsilonNet.dyadic(0.5, 5),
        T=0.5,
        dt=1.0 / 64,
        experiment="existence",
        norm="hnu2",
        mollifier_radius=1.5,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestExistence:
    def test_u0_norm_is_trajectory_t0_record(self, monkeypatch):
        # the u0 extra is the trajectory's own t = 0 value; on 1024 points a
        # BLAS dot for the quadratic form differed from it in the last bit
        trajectories = []
        solve = harness.step_implicit

        def spy(problem):
            trajectories.append(solve(problem))
            return trajectories[-1]

        monkeypatch.setattr(harness, "step_implicit", spy)
        rep = existence_experiment(make_config(points=(1024,)))
        assert len(trajectories) == len(rep.records)
        for rec, traj in zip(rep.records, trajectories):
            extras = dict(rec.extras)
            assert extras["u0_hnu2"] == traj.h_nu2[0]
            assert extras["majorant"] == (1.0 + extras["v_linf"]) * traj.h_nu2[0]

    def test_zero_potential_is_flat(self):
        cfg = make_config(potential=PotentialSpec.constant(0.0))
        rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        # only the datum is mollified; the solution net barely moves
        assert abs(rep.fit.exponent) < 0.25

    def test_delta_potential_moderate(self):
        rep = existence_experiment(make_config())
        assert rep.verdict.kind == "Moderate"
        assert rep.fit.exponent <= rep.config.n_max
        # the measured growth never exceeds what the a-priori bracket allows
        majorant = rep.extra_fit("majorant")
        assert rep.fit.exponent <= 1.1 * majorant.exponent + 0.05
        # ||V_eps||_inf grows like omega^{-Q} with Q = 1 here
        v_fit = rep.extra_fit("v_linf")
        assert v_fit.exponent == pytest.approx(1.0, abs=0.05)

    # log omega shrinks slowly: start the net below 1/8 so rho * omega(eps)
    # stays inside the unit box
    LOG_NET = EpsilonNet((0.125, 0.0625, 0.03125, 0.015625, 0.0078125))

    def test_schedule_split_records_both_exponents(self):
        # negative delta well measured under log omega, fitted under poly:
        # the potential net is log-moderate while the solution stays bounded
        cfg = make_config(potential=PotentialSpec.dirac_delta(multiplier=-1.0),
                          schedule_v=OmegaSchedule.logarithmic(1),
                          norm="l2", epsilons=self.LOG_NET)
        rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        against_fit = rep.extra_fit("v_linf")
        against_v = rep.extra_fit("v_linf_vs_v_schedule")
        # same values, different abscissa: Q against its own schedule,
        # log-flat against the polynomial one
        assert against_v.exponent == pytest.approx(1.0, abs=0.05)
        assert against_fit.exponent < 0.5

    def test_constant_potential_skips_unreachable_v_schedule_fit(self):
        # a constant V is never regularised, so a log V-schedule need not reach
        # eps = 1: the sweep is judged and only that one extra fit is missing
        cfg = make_config(potential=PotentialSpec.constant(0.5),
                          schedule_v=OmegaSchedule.logarithmic(1), mollifier_radius=1.0,
                          epsilons=EpsilonNet((1.0, 0.5, 0.25, 0.125, 0.0625)))
        rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        assert [name for name, _ in rep.extra_fits] == [
            "sup_l2", "sup_hnu2", "v_linf", "u0_hnu2", "majorant"]
        with pytest.raises(KeyError):
            rep.extra_fit("v_linf_vs_v_schedule")

    @pytest.mark.parametrize("norm, p", [("linf", math.inf), ("lp:3", 3.0)])
    def test_state_norm_sup_is_the_datum_norm(self, norm, p):
        # V >= 0 makes each backward Euler step an L^p contraction for every
        # p, so the sup over the stored states is the mollified datum's norm
        cfg = make_config(norm=norm)
        rep = existence_experiment(cfg)
        u0 = bump_field(cfg.make_grid(), cfg.u0_width, cfg.u0_amplitude)
        psi = Mollifier(1, cfg.mollifier_radius)
        for r in rep.records:
            u0_eps = regularize_field(u0, r.epsilon, cfg.schedule_u0, psi)
            assert r.norm_sup_t == pytest.approx(lp_norm(u0_eps, p), rel=1e-12)

    def test_real_potential_h_norm_still_moderate(self):
        cfg = make_config(potential=PotentialSpec.dirac_delta(multiplier=-1.0),
                          schedule_v=OmegaSchedule.logarithmic(1),
                          norm="l2", epsilons=self.LOG_NET)
        rep = existence_experiment(cfg)
        h_fit = rep.extra_fit("sup_hnu2")
        assert check_moderate(h_fit, rep.config.n_max).kind == "Moderate"


class TestUniqueness:
    def test_no_perturbation_is_negligible(self):
        cfg = make_config(experiment="uniqueness", perturbation="none", norm="l2",
                          potential=PotentialSpec.dirac_delta_squared())
        rep = uniqueness_experiment(cfg)
        assert rep.verdict.kind == "Negligible"
        assert all(r.norm_sup_t == 0.0 for r in rep.records)

    def test_no_perturbation_solves_once_per_eps(self, monkeypatch):
        calls = []
        real_step = harness.step_implicit
        monkeypatch.setattr(harness, "step_implicit",
                            lambda problem: calls.append(problem) or real_step(problem))
        cfg = make_config(experiment="uniqueness", perturbation="none")
        uniqueness_experiment(cfg)
        assert len(calls) == len(cfg.epsilons)

    def test_exponential_perturbation_negligible(self):
        cfg = make_config(experiment="uniqueness", norm="l2",
                          potential=PotentialSpec.dirac_delta_squared())
        rep = uniqueness_experiment(cfg)
        assert rep.verdict.kind == "Negligible"
        # differences track the perturbation size e^{-1/eps} in order of magnitude
        for r in rep.records:
            assert r.extras == ()
            if r.norm_sup_t > 0:
                assert r.norm_sup_t < 10.0 * math.exp(-1.0 / r.epsilon)

    def test_exponential_perturbation_heisenberg(self):
        cfg = make_config(group=heisenberg1(), half_width=1.5, points=(8, 8, 8),
                          potential=PotentialSpec.constant(1.0),
                          experiment="uniqueness", norm="l2", dt=1.0 / 32)
        rep = uniqueness_experiment(cfg)
        assert rep.verdict.kind == "Negligible"

    def test_judge_fits_once(self, monkeypatch):
        # check_negligible hands back its fit, so the report's fit is not refitted
        calls = []
        real_fit = harness.fit_exponent
        monkeypatch.setattr(harness, "fit_exponent",
                            lambda pairs: calls.append(len(pairs)) or real_fit(pairs))
        cfg = make_config(experiment="uniqueness", perturbation="omega1", norm="l2",
                          potential=PotentialSpec.dirac_delta_squared())
        rep = uniqueness_experiment(cfg)
        assert calls == [5]
        assert rep.verdict.exponent == rep.fit.exponent

    def test_omega_perturbation_is_not_negligible(self):
        # the negative control: an omega(eps)-sized perturbation only decays
        # at first order, far from the k_max = 10 requirement
        cfg = make_config(experiment="uniqueness", perturbation="omega1", norm="l2",
                          potential=PotentialSpec.dirac_delta_squared())
        rep = uniqueness_experiment(cfg)
        assert rep.verdict.kind == "Fail"
        assert rep.fit.exponent == pytest.approx(-1.0, abs=0.3)


def bump_potential_config(**overrides):
    grid = make_grid(euclidean(1), 1.0, 128)
    v = bump_field(grid, 0.6, 0.8)
    base = dict(
        group=euclidean(1),
        half_width=1.0,
        points=(128,),
        potential=PotentialSpec.sampled(v),
        schedule=POLY,
        epsilons=EpsilonNet((1.0, 0.5, 0.25, 0.125, 0.0625)),
        T=0.5,
        dt=1.0 / 64,
        experiment="consistency",
        norm="l2",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestConsistency:
    def test_mollified_solutions_converge(self):
        rep = consistency_experiment(bump_potential_config())
        assert rep.verdict.kind == "Moderate"
        errors = [r.norm_sup_t for r in rep.records]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.1 * errors[0]
        # a passing run reports the fitted slope of the error net (negative)
        assert rep.verdict.exponent < 0
        assert rep.fit.exponent == rep.verdict.exponent

    def test_potential_error_decays_at_least_first_order(self):
        rep = consistency_experiment(bump_potential_config())
        v_fit = rep.extra_fit("v_error_linf")
        assert v_fit.exponent <= -1.0

    def test_delta_potential_rejected(self):
        cfg = make_config(experiment="consistency")
        with pytest.raises(ValueError, match="classical"):
            consistency_experiment(cfg)

    def test_constant_potential_converges_via_datum(self):
        cfg = bump_potential_config(potential=PotentialSpec.constant(1.0))
        rep = consistency_experiment(cfg)
        assert rep.verdict.kind == "Moderate"

    def test_stalled_net_fails(self):
        # below the grid scale the unit-mass kernel is the discrete delta, so
        # the last two errors are the same rounding residue
        cfg = bump_potential_config(epsilons=EpsilonNet((1.0, 0.5, 0.25, 0.005, 0.004)))
        rep = consistency_experiment(cfg)
        assert rep.records[-1].norm_sup_t == rep.records[-2].norm_sup_t
        assert rep.verdict.kind == "Fail"
        assert rep.verdict.reason == "error net is not strictly decreasing"

    def test_short_net_fails_the_floor(self):
        # strictly decreasing, but eps = 1/2 leaves the error at 0.39 of the first
        cfg = bump_potential_config(epsilons=EpsilonNet((1.0, 0.8, 0.6, 0.5)))
        rep = consistency_experiment(cfg)
        errors = [r.norm_sup_t for r in rep.records]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert rep.verdict.kind == "Fail"
        assert rep.verdict.reason.startswith("final error 0.134 is not below 0.1 of the first")


class TestSweepDriver:
    @pytest.mark.parametrize("run, other", [
        (existence_experiment, "uniqueness"),
        (uniqueness_experiment, "consistency"),
        (consistency_experiment, "existence"),
    ], ids=["existence", "uniqueness", "consistency"])
    def test_wrong_experiment_rejected(self, run, other):
        # the experiment check comes first, before consistency's potential check
        name = run.__name__.removesuffix("_experiment")
        with pytest.raises(ValueError, match=f"is for '{other}', not '{name}'"):
            run(make_config(experiment=other))

    @pytest.mark.parametrize("experiment", ["existence", "uniqueness"])
    def test_worker_failure_becomes_fail_verdict(self, experiment):
        # net reaches eps the 128-point grid cannot resolve
        cfg = make_config(experiment=experiment, epsilons=EpsilonNet.dyadic(0.5, 7))
        rep = run_experiment(cfg)
        assert rep.verdict.kind == "Fail"
        assert "ResolutionError" in rep.verdict.reason
        assert 0 < len(rep.records) < 7
        assert not any(r.fitted_flag for r in rep.records)
        # the first eps missing from the records, in net order, names the failure
        first_missing = cfg.epsilons.values[len(rep.records)]
        assert [r.epsilon for r in rep.records] == list(cfg.epsilons.values[:len(rep.records)])
        assert rep.verdict.reason.startswith(f"epsilon={first_missing:g}: ")
        assert rep.fit is None and rep.extra_fits == ()

    @pytest.mark.parametrize("kind", ["existence", "consistency", "uniqueness", "unperturbed"])
    def test_fitted_flag_rule(self, kind):
        # flagged iff the main fit exists and the row's value is positive
        if kind == "existence":
            rep = existence_experiment(make_config())
            want = [True] * 5
        elif kind == "consistency":
            rep = consistency_experiment(bump_potential_config())
            want = [True] * 5
        else:
            # the net of gate 08: the difference is exactly 0.0 at eps = 1/64
            rep = uniqueness_experiment(make_config(
                experiment="uniqueness", norm="l2", points=(256,),
                epsilons=EpsilonNet.dyadic(0.5, 6),
                perturbation="exp" if kind == "uniqueness" else "none",
                potential=PotentialSpec.dirac_delta_squared()))
            if kind == "uniqueness":
                assert rep.records[-1].norm_sup_t == 0.0
                want = [True] * 5 + [False]
            else:
                assert rep.fit is None
                want = [False] * 6
        assert [r.fitted_flag for r in rep.records] == want

    def test_h1_block_above_the_limit_fails_the_sweep(self, monkeypatch):
        # the CG preconditioner's resolvent blocks are dense like eigh's
        monkeypatch.setattr(operators, "SPECTRAL_DOF_LIMIT", 32)
        rep = run_experiment(make_config(group=heisenberg1(), half_width=1.5,
                                         points=(8, 8, 8), dt=1.0 / 32,
                                         potential=PotentialSpec.constant(1.0)))
        assert rep.verdict.kind == "Fail"
        assert "CapabilityError" in rep.verdict.reason
        assert rep.records == ()

    def test_benchmark_tracer_sees_every_layer(self):
        # perfbench/tracing.py wraps gradedheat.harness module globals and reads
        # eps from positional argument 1 of the regularize_* calls; a layer
        # called through a local name, or eps passed by keyword, blinds it
        tracing = load_perfbench("tracing")
        cfg = make_config(threads=2)
        with tracing.Tracer() as tracer:
            rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        assert tracer.missing == []
        layers = tracing.layer_metrics(tracer.spans, threads=cfg.threads)
        assert layers["harness.eps_attempted"] == len(cfg.epsilons)
        assert layers["harness.eps_failed"] == 0
        for layer in ("mollify.potential", "mollify.convolve"):
            seen = [s.eps for s in tracer.spans if s.name == layer]
            assert len(seen) == len(cfg.epsilons) and set(seen) == set(cfg.epsilons), layer
        assert layers["solve.steps"] == len(cfg.epsilons) * round(cfg.T / cfg.dt)


class TestRunParallelDeterminism:
    def test_thread_count_does_not_change_report(self, tmp_path):
        cfg = make_config()
        rep1 = run_experiment(replace(cfg, threads=1))
        rep4 = run_experiment(replace(cfg, threads=4))
        d1 = tmp_path / "t1"
        d4 = tmp_path / "t4"
        csv1, _ = persist_report(rep1, d1)
        csv4, _ = persist_report(rep4, d4)
        assert csv1.read_bytes() == csv4.read_bytes()
        assert config_hash(rep1.config) == config_hash(rep4.config)

    @staticmethod
    def reports_at_threads_1_and_2(cfg, tmp_path):
        bodies = []
        for threads in (1, 2):
            rep = run_experiment(replace(cfg, threads=threads))
            assert rep.verdict.kind == "Moderate"
            csv_path, _ = persist_report(rep, tmp_path / f"t{threads}")
            bodies.append(csv_path.read_bytes())
        return bodies

    def test_heisenberg_thread_count_does_not_change_report(self, tmp_path):
        # the pool's workers share the operator's cached resolvent blocks
        cfg = make_config(group=heisenberg1(), half_width=1.5, points=(8, 8, 16),
                          schedule=OmegaSchedule.logarithmic(1),
                          epsilons=EpsilonNet((0.25, 0.22, 0.19, 0.17)),
                          mollifier_radius=2.0, T=0.25, dt=1.0 / 32)
        one, two = self.reports_at_threads_1_and_2(cfg, tmp_path)
        assert one == two

    def test_heisenberg_benchmark_grid_blas_split_does_not_change_report(self, tmp_path):
        # on the h1_existence grid the 256-dof blocks are large enough for
        # OpenBLAS to thread the preconditioner: one worker runs it on every
        # core, two workers on their share of the cores
        cfg = make_config(group=heisenberg1(), half_width=1.5, points=(16, 16, 32),
                          schedule=OmegaSchedule.logarithmic(1),
                          epsilons=EpsilonNet((0.25, 0.2, 0.15, 0.11)),
                          mollifier_radius=1.4, T=1.0 / 16, dt=1.0 / 32)
        one, two = self.reports_at_threads_1_and_2(cfg, tmp_path)
        assert one == two

    def test_euclidean2_thread_count_does_not_change_report(self, tmp_path):
        # the pool's workers share the operator's cached Fourier multiplier;
        # the attractive well makes the L2 norm grow, so each sup is attained
        # after t = 0 and the report depends on every CG step
        cfg = make_config(group=euclidean(2), half_width=2.0, points=(48, 48),
                          potential=PotentialSpec.dirac_delta(multiplier=-5.0), norm="l2",
                          epsilons=EpsilonNet((0.5, 0.35, 0.25, 0.18)), T=0.25, dt=1.0 / 64)
        one, two = self.reports_at_threads_1_and_2(cfg, tmp_path)
        assert one == two

    def test_dispatch_table(self):
        cfg = make_config()
        rep = run_experiment(cfg)
        assert rep.config.experiment == "existence"
        assert rep.verdict.kind == "Moderate"


def affinity_cores():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def numpy_links_openblas_with_local_setter():
    """Whether numpy's build reports OpenBLAS 0.3.27 or later, the first
    with openblas_set_num_threads_local."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    parts = str(blas.get("version", "")).split(".")[:3]
    version = tuple(int(p) for p in parts if p.isdigit())
    return "openblas" in str(blas.get("name", "")).lower() and version >= (0, 3, 27)


class TestBlasThreadCap:
    @pytest.fixture
    def setter(self):
        setter = harness._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
        return setter

    @staticmethod
    def count(setter):
        """This thread's count in numpy's OpenBLAS, read through the setter and restored."""
        count = setter(1)
        setter(count)
        return count

    def test_setter_is_found_through_numpy_without_proc(self, monkeypatch):
        if not numpy_links_openblas_with_local_setter():
            pytest.skip("numpy does not report linking OpenBLAS >= 0.3.27")
        real_open, real_path_open = open, Path.open

        def refuse_maps(opener):
            def guarded(file, *args, **kwargs):
                if str(file) == "/proc/self/maps":
                    raise PermissionError(13, "Permission denied", str(file))
                return opener(file, *args, **kwargs)
            return guarded

        monkeypatch.setattr("builtins.open", refuse_maps(real_open))
        monkeypatch.setattr(Path, "open", refuse_maps(real_path_open))
        harness._blas_thread_setter.cache_clear()
        try:
            setter = harness._blas_thread_setter()
            assert setter is not None
            before = setter(1)
            assert before >= 1
            assert setter(before) == 1
        finally:
            harness._blas_thread_setter.cache_clear()

    def test_workers_get_their_share_and_the_caller_keeps_its_count(
            self, setter, monkeypatch, tmp_path):
        seen, reading = [], threading.Lock()

        def spy(*args):
            # where the count is the process's, a read sets it for a moment
            with reading:
                seen.append(self.count(setter))
            return regularize_potential(*args)

        monkeypatch.setattr(harness, "regularize_potential", spy)
        before = self.count(setter)
        rep = run_experiment(make_config(threads=2))
        assert self.count(setter) == before
        want = min(max(1, affinity_cores() // 2), before)
        assert seen == [want] * 5
        assert (rep.workers, rep.blas_threads) == (2, want)
        _, manifest = persist_report(rep, tmp_path)
        plural = "" if want == 1 else "s"
        assert f"pool: 2 workers x {want} BLAS thread{plural}\n" in manifest.read_text()

    def test_cores_come_from_cpu_count_without_affinity(self, setter, monkeypatch):
        # sched_getaffinity is Linux-only; the setter is found elsewhere too
        before = self.count(setter)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        rep = run_experiment(make_config(threads=2))
        assert rep.verdict.kind == "Moderate"
        assert rep.blas_threads == min(2, before)
        assert self.count(setter) == before

    def test_pools_of_concurrent_sweeps_take_turns(self, setter, monkeypatch):
        # each pool restores the count it found, which is only right if no
        # other pool changed it in between
        spans = []

        def spy(*args):
            start = time.perf_counter()
            out = regularize_potential(*args)
            pool = threading.current_thread().name.rpartition("_")[0]
            spans.append((pool, start, time.perf_counter()))
            return out

        monkeypatch.setattr(harness, "regularize_potential", spy)
        before = self.count(setter)
        sweeps = [threading.Thread(target=run_experiment, args=(make_config(threads=n),))
                  for n in (2, 1)]
        for sweep in sweeps:
            sweep.start()
        for sweep in sweeps:
            sweep.join(timeout=60)
            assert not sweep.is_alive()
        assert self.count(setter) == before
        pools = sorted({pool for pool, _, _ in spans})
        assert len(pools) == 2 and len(spans) == 10
        first, second = ([(a, b) for p, a, b in spans if p == pool] for pool in pools)
        assert (max(b for _, b in first) <= min(a for a, _ in second)
                or max(b for _, b in second) <= min(a for a, _ in first))


class TestPersistReport:
    def test_empty_report_refuses_to_write(self, tmp_path):
        cfg = make_config()
        report = SweepReport(config=cfg, records=(), fit=None,
                             verdict=Verdict("Fail", reason="nothing ran"))
        with pytest.raises(ValueError, match="no epsilon records"):
            persist_report(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_csv_and_manifest_shape(self, tmp_path):
        cfg = make_config()
        report = SweepReport(
            config=cfg,
            records=(SweepRecord(0.5, 0.5, 1.25, True),),
            fit=FitResult(0.3, 0.01),
            verdict=Verdict("Moderate", exponent=0.3),
        )
        csv_path, manifest_path = persist_report(report, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "epsilon,omega,norm_sup_t,fitted_flag"
        assert lines[1] == "0.5,0.5,1.25,1"
        assert len(lines) == 2
        manifest = manifest_path.read_text()
        assert f"config_hash: {config_hash(cfg)}" in manifest
        assert "VERDICT: Moderate(N=0.3)" in manifest
        assert "scope_note" in manifest
        assert "pool: 1 worker x BLAS threads unchanged\n" in manifest
        # the benchmark checks every sweep's exponent through this reader
        assert load_perfbench("workloads").manifest_exponent(manifest_path) == 0.3

    def test_unwritable_directory_is_named(self, tmp_path):
        out = tmp_path / "out"
        (out / "report.csv").mkdir(parents=True)
        report = SweepReport(config=make_config(), records=(SweepRecord(0.5, 0.5, 1.0, True),),
                             fit=None, verdict=Verdict("Negligible"))
        with pytest.raises(OSError, match="cannot write report under") as info:
            persist_report(report, out)
        assert str(out) in str(info.value)

    def test_unknown_extra_fit_is_key_error(self):
        report = SweepReport(config=make_config(), records=(), fit=None,
                             verdict=Verdict("Negligible"),
                             extra_fits=(("sup_l2", FitResult(0.1, 0.01)),))
        assert report.extra_fit("sup_l2") == FitResult(0.1, 0.01)
        with pytest.raises(KeyError, match="majorant"):
            report.extra_fit("majorant")

    def test_manifest_carries_extra_fits(self, tmp_path):
        rep = consistency_experiment(bump_potential_config())
        _, manifest_path = persist_report(rep, tmp_path)
        assert "extra_fit_v_error_linf" in manifest_path.read_text()


CONFIG_TEXT = """
# sweep over a point-mass potential
group = euclidean1
half_width = 1.0
points = 128
potential = delta
mollifier_radius = 1.5
schedule = poly
epsilons = 0.5,0.25,0.125,0.0625,0.03125
T = 0.5
dt = 0.015625
experiment = existence
"""


class TestConfigRoundTrip:
    def test_parse_and_run(self):
        cfg = parse_sweep_config(CONFIG_TEXT)
        assert cfg.experiment == "existence"
        assert cfg.norm == "hnu2"  # nonneg potential defaults to the H norm
        rep = run_experiment(cfg)
        assert rep.verdict.kind == "Moderate"

    def test_hash_ignores_formatting(self):
        reordered = "\n".join(reversed(CONFIG_TEXT.strip().splitlines()))
        spaced = CONFIG_TEXT.replace(" = ", "   =  ")
        h0 = config_hash(parse_sweep_config(CONFIG_TEXT))
        assert config_hash(parse_sweep_config(reordered)) == h0
        assert config_hash(parse_sweep_config(spaced)) == h0

    def test_hash_ignores_threads(self):
        cfg = parse_sweep_config(CONFIG_TEXT)
        assert config_hash(replace(cfg, threads=8)) == config_hash(cfg)

    def test_hash_ignores_solve_only_keys(self):
        # only `gradedheat solve` reads these, so a sweep's provenance omits them
        solve_keys = {"epsilon", "method", "picard_depth"}
        assert not solve_keys & {f.name for f in fields(SweepConfig)}
        text = CONFIG_TEXT + "epsilon = 0.25\nmethod = duhamel\npicard_depth = 3\n"
        assert config_hash(parse_sweep_config(text)) == config_hash(
            parse_sweep_config(CONFIG_TEXT))

    def test_hash_pins_a_delta_center(self):
        # a center moves V; a file config sets none, so no file hash moved
        plain = make_config()
        moved = make_config(potential=PotentialSpec.dirac_delta(center=(0.5,)))
        assert config_hash(moved) != config_hash(plain)
        assert "potential = delta:1.0@0.5\n" in canonical_text(moved)
        assert "potential = delta:1.0\n" in canonical_text(plain)

    def test_hash_changes_with_potential(self):
        other = CONFIG_TEXT.replace("potential = delta", "potential = delta2")
        assert config_hash(parse_sweep_config(other)) != config_hash(
            parse_sweep_config(CONFIG_TEXT))

    def test_constant_potential_hash_pins_its_value(self):
        def cfg(token):
            return parse_sweep_config(CONFIG_TEXT.replace("potential = delta",
                                                          f"potential = {token}"))
        assert "potential = constant:0.5\n" in canonical_text(cfg("constant:0.5"))
        assert config_hash(cfg("constant:0.5")) == config_hash(cfg("constant:5e-1"))
        assert config_hash(cfg("constant:0.5")) != config_hash(cfg("constant:0.25"))

    @pytest.mark.parametrize("token, want", [
        ("poly", OmegaSchedule.polynomial()),
        ("log:2", OmegaSchedule.logarithmic(2)),
        ("log:x", "bad n0"),
        ("log:", "bad n0"),
        ("log:0", "n0 >= 1"),
        ("cubic", "poly or log"),
    ])
    def test_schedule_token(self, token, want):
        text = CONFIG_TEXT.replace("schedule = poly", f"schedule = {token}")
        if isinstance(want, str):
            with pytest.raises(ConfigError, match=want):
                parse_sweep_config(text)
            return
        cfg = parse_sweep_config(text)
        assert cfg.schedule == want and str(cfg.schedule) == token

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A typical config:", 1)[1].split("```")[1]
        cfg = parse_sweep_config(block, experiment="existence")
        assert cfg.points == (256,) and cfg.norm == "hnu2" and cfg.threads == 4

    # every optional and solve-only key, each set away from its default
    ALL_KEYS_TEXT = """\
group = heisenberg1
half_width = 1.5
points = 8,8,16
potential = delta2:-0.5
schedule = log:2
epsilons = 0.25,0.125,0.0625,0.03125
T = 0.25
dt = 0.0625
experiment = uniqueness
norm = lp:3
k_max = 7
N_max = 4
threads = 3
perturbation = omega1
u0_width = 0.8
u0_amplitude = 2.5
mollifier_radius = 1.25
schedule_v = poly
schedule_u0 = log:3
epsilon = 0.125
method = duhamel
picard_depth = 5
"""

    def test_config_hashes_are_pinned(self):
        # a drifted default or hash rendering moves these; the sign class is
        # derived from V but still rendered, so no hash moved when the key went
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A typical config:", 1)[1].split("```")[1]
        assert config_hash(parse_sweep_config(block, experiment="existence")) == (
            "df6fb8aaee0f0285dc42c9b17211c13c20731bb3269a890fb9804525606580e7")
        assert config_hash(parse_sweep_config(self.ALL_KEYS_TEXT)) == (
            "c56c373de24c52430ac746946013b32b9336ab44da2ee6ba960b19b62bcb3604")

    def test_all_keys_config_leaves_no_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.ALL_KEYS_TEXT)
        cfg, opts = parse_solve_config_file(path)
        assert cfg == parse_sweep_config(self.ALL_KEYS_TEXT)
        assert opts == SolveOptions(epsilon=0.125, method="duhamel", picard_depth=5)
        required = {f.name: getattr(cfg, f.name) for f in fields(SweepConfig)
                    if f.default is MISSING}
        defaults = SweepConfig(**required)
        for f in fields(SweepConfig):
            if f.name not in required:
                assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        for f in fields(SolveOptions):
            assert getattr(opts, f.name) != f.default, f.name

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_sweep_config(CONFIG_TEXT + "\nwibble = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_sweep_config(CONFIG_TEXT + "\nT = 0.25\n")

    def test_experiment_conflict_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_sweep_config(CONFIG_TEXT, experiment="uniqueness")

    def test_missing_experiment_rejected(self):
        text = CONFIG_TEXT.replace("experiment = existence\n", "")
        with pytest.raises(ConfigError, match="missing required key 'experiment'"):
            parse_sweep_config(text)

    @pytest.mark.parametrize("overrides, want", [
        ({"points": (3,)}, "at least 4 points per axis"),
        ({"half_width": math.nan}, "half_widths must be in"),
        ({"u0_width": 1.5}, "u0_width 1.5 exceeds the box half-width 1.0"),
    ])
    def test_grid_and_datum_checked_when_built(self, overrides, want):
        # the sweep would otherwise refuse them only once it builds the grid or the bump
        with pytest.raises(ConfigError, match=want):
            make_config(**overrides)

    @pytest.mark.parametrize("experiment", ["existence", "uniqueness"])
    def test_short_net_refused_where_a_fit_judges(self, experiment):
        # refused when built, so the sweep solves no eps before the fit fails
        with pytest.raises(ConfigError, match=f"{experiment} fits an exponent .* got 3"):
            make_config(experiment=experiment, epsilons=EpsilonNet.dyadic(0.5, 3))

    def test_short_net_accepted_for_consistency(self):
        # consistency judges the error net without a fit
        rep = consistency_experiment(bump_potential_config(epsilons=EpsilonNet((1.0, 0.5))))
        assert len(rep.records) == 2

    @pytest.mark.parametrize("name", ["u0_width", "u0_amplitude", "mollifier_radius"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_sweep_number_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            make_config(**{name: value})

    def test_experiment_flag_supplies_missing_key(self):
        text = CONFIG_TEXT.replace("experiment = existence\n", "")
        cfg = parse_sweep_config(text, experiment="uniqueness")
        assert cfg.experiment == "uniqueness"

    def test_sampled_potential_from_file(self, tmp_path):
        grid = make_grid(euclidean(1), 1.0, 128)
        np.save(tmp_path / "v.npy", bump_field(grid, 0.6).values)
        text = CONFIG_TEXT.replace("potential = delta",
                                   "potential = sampled:v.npy")
        text = text.replace("experiment = existence", "experiment = consistency")
        cfg = parse_sweep_config(text, base_dir=tmp_path)
        assert cfg.potential.kind == "sampled"
        assert cfg.norm == "hnu2"

    def test_sampled_potential_shape_must_match(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.zeros(64))
        text = CONFIG_TEXT.replace("potential = delta", "potential = sampled:bad.npy")
        with pytest.raises(ConfigError, match="shape"):
            parse_sweep_config(text, base_dir=tmp_path)

    def test_negative_delta_multiplier_is_real(self):
        text = CONFIG_TEXT.replace("potential = delta", "potential = delta:-1")
        cfg = parse_sweep_config(text)
        assert cfg.potential.sign_class == "real"
        assert cfg.norm == "l2"

    # the sign class each token derives, None for a ConfigError; a declared
    # class (nonneg, real or anything else) is an unknown key
    SIGN_CLASSES = {
        "delta": "nonneg",
        "delta:-2": "real",
        "delta:0": None,
        "delta2:-1": "real",
        "constant:0": "nonneg",
        "constant:1": "nonneg",
        "constant:-1": "real",
        "sampled:pos.npy": "nonneg",
        "sampled:mixed.npy": "real",
    }

    @pytest.mark.parametrize("declared", [None, "nonneg", "real", "maybe"])
    @pytest.mark.parametrize("token", list(SIGN_CLASSES))
    def test_sign_class_rule(self, tmp_path, token, declared):
        bump = bump_field(make_grid(euclidean(1), 1.0, 128), 0.6).values
        np.save(tmp_path / "pos.npy", bump)
        np.save(tmp_path / "mixed.npy", bump - 0.5)
        text = CONFIG_TEXT.replace("potential = delta", f"potential = {token}")
        want = self.SIGN_CLASSES[token]
        if declared is not None:
            with pytest.raises(ConfigError, match="unknown key 'sign_class'"):
                parse_sweep_config(text + f"sign_class = {declared}\n", base_dir=tmp_path)
            return
        if want is None:
            with pytest.raises(ConfigError):
                parse_sweep_config(text, base_dir=tmp_path)
            return
        cfg = parse_sweep_config(text, base_dir=tmp_path)
        assert cfg.potential.sign_class == want
        assert cfg.norm == ("hnu2" if want == "nonneg" else "l2")
        assert f"sign_class = {want}\n" in canonical_text(cfg)
