"""Sweep engine: exponent fits, verdict rules, the three experiments."""

import contextlib
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import MISSING, fields
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
from gradedheat.cli import main
from gradedheat import solve as solve_module
from gradedheat.errors import ConfigError, NumericalError, ResolutionError
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
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    regularize_potential,
)
from gradedheat.groups import euclidean, heisenberg1, make_grid

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


def pooled_config(**overrides):
    """A small 2-D sweep: on R a sweep runs one worker whatever the cores."""
    return make_config(group=euclidean(2), points=(32, 32),
                       epsilons=EpsilonNet((0.5, 0.4, 0.3, 0.2, 0.125)), **overrides)


# for the tests of the pool's shape, its BLAS counts or its bytes across worker
# counts: a pooled_config at this T has the same verdict, Moderate(N=0.370918),
# at a fifth of the cost of T = 0.5
SHORT_T = 1.0 / 16


@pytest.fixture(scope="module")
def pooled_report():
    """pooled_report(n): the report of a short pooled_config on n cores, run
    once per module for the tests that only read it."""
    reports = {}

    def at(n):
        if n not in reports:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "_cores", lambda: n)
                reports[n] = run_experiment(pooled_config(T=SHORT_T))
        return reports[n]
    return at


class TestExistence:
    def test_u0_norm_is_trajectory_t0_record(self, monkeypatch):
        # the u0 extra is the trajectory's own t = 0 value; on 1024 points a
        # BLAS dot for the quadratic form differed from it in the last bit
        trajectories = []
        solve = harness.step_implicit

        def spy(problem, **kwargs):
            trajectories.append(solve(problem, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(harness, "step_implicit", spy)
        rep = existence_experiment(make_config(points=(1024,)))
        assert len(trajectories) == len(rep.records)
        for rec, traj in zip(rep.records, trajectories):
            extras = dict(rec.extras)
            assert extras["u0_hnu2"] == traj.h_nu2[0]
            assert extras["majorant"] == (1.0 + extras["v_linf"]) * traj.h_nu2[0]

    # 32 steps: a target of 8 would keep every 4th state, one of 10^4 all of them;
    # the ids read <norm>-<states kept>
    @pytest.mark.parametrize("thin_target", [8, 10_000])
    @pytest.mark.parametrize("norm", ["l2", "hnu2"], ids=["l2-False", "hnu2-False"])
    def test_states_kept_only_for_a_norm_that_reads_them(self, monkeypatch, norm, thin_target):
        # both norms read the per-step series, so no existence sweep keeps a state
        monkeypatch.setattr(solve_module, "STATE_THIN_TARGET", thin_target)
        stored, real_step = [], harness.step_implicit

        def spy(problem, **kwargs):
            traj = real_step(problem, **kwargs)
            stored.append(len(traj.states))
            return traj

        monkeypatch.setattr(harness, "step_implicit", spy)
        cfg = pooled_config(norm=norm)
        rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        assert stored == [0] * len(cfg.epsilons)
        assert [r.norm_sup_t for r in rep.records] == [
            dict(r.extras)["sup_" + norm] for r in rep.records]

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
                            lambda p, **kw: calls.append(p) or real_step(p, **kw))
        cfg = make_config(experiment="uniqueness", perturbation="none")
        uniqueness_experiment(cfg)
        assert len(calls) == len(cfg.epsilons)

    def test_zero_datum_is_accepted(self):
        # the twin still differs from the base by the probe
        cfg = make_config(experiment="uniqueness", norm="l2", u0_amplitude=0.0,
                          potential=PotentialSpec.dirac_delta_squared())
        rep = uniqueness_experiment(cfg)
        assert rep.verdict.kind == "Negligible"
        assert rep.records[0].norm_sup_t > 0.0

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


@pytest.fixture
def reductions(monkeypatch):
    """The blocks of norm series that every _Recorder reduces, counted."""
    count = [0]

    class CountingRecorder(solve_module._Recorder):
        def _flush(self):
            count[0] += 1
            super()._flush()

    monkeypatch.setattr(solve_module, "_Recorder", CountingRecorder)
    return count


class TestSeriesRecordedWhereRead:
    # uniqueness and consistency read thinned states only, so they record no
    # series; existence reads the series, and gradedheat solve writes them
    @pytest.mark.parametrize("run, reduces", [
        (lambda: uniqueness_experiment(make_config(
            experiment="uniqueness", norm="l2", potential=PotentialSpec.dirac_delta_squared())),
         False),
        (lambda: consistency_experiment(bump_potential_config()), False),
        (lambda: existence_experiment(make_config()), True),
    ], ids=["uniqueness", "consistency", "existence"])
    def test_sweeps(self, reductions, run, reduces):
        assert run().verdict.passed
        assert (reductions[0] > 0) == reduces

    def test_solve(self, reductions, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT.replace("experiment = existence\n", "") + "epsilon = 0.25\n")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert reductions[0] > 0


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

    def test_solve_config_runs_no_sweep(self):
        # a solve config has experiment None, and none of the sweep-only rules
        with pytest.raises(ValueError, match="names no experiment"):
            run_experiment(make_config(experiment=None))

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

    def test_benchmark_tracer_sees_every_layer(self, cores):
        # perfbench/tracing.py wraps gradedheat.harness module globals and reads
        # eps from positional argument 1 of the regularize_* calls; a layer
        # called through a local name, or eps passed by keyword, blinds it
        tracing = load_perfbench("tracing")
        cfg = pooled_config(T=SHORT_T)
        cores(2)
        with tracing.Tracer() as tracer:
            rep = existence_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        assert rep.workers == 2
        assert tracer.missing == []
        layers = tracing.layer_metrics(tracer.spans, threads=rep.workers)
        assert layers["harness.eps_attempted"] == len(cfg.epsilons)
        assert layers["harness.eps_failed"] == 0
        for layer in ("mollify.potential", "mollify.convolve"):
            seen = [s.eps for s in tracer.spans if s.name == layer]
            assert len(seen) == len(cfg.epsilons) and set(seen) == set(cfg.epsilons), layer
        assert layers["solve.steps"] == len(cfg.epsilons) * round(cfg.T / cfg.dt)

    def test_one_dimensional_sweep_runs_one_worker(self, cores, pooled_report):
        # a second worker only slows a sweep on R, so the cores size the pool elsewhere
        cores(4)
        assert run_experiment(make_config()).workers == 1
        assert pooled_report(4).workers == 4

    def test_one_worker_sweep_runs_on_the_calling_thread(self, monkeypatch, tmp_path):
        # one worker is no pool: no thread, and numpy's BLAS count is left alone
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep built a thread pool")

        threads, real_step = [], harness.step_implicit

        def spy(problem, **kwargs):
            threads.append(threading.current_thread())
            return real_step(problem, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "step_implicit", spy)
        cfg = make_config()
        rep = run_experiment(cfg)
        assert rep.verdict.kind == "Moderate"
        assert threads == [threading.main_thread()] * len(cfg.epsilons)
        assert (rep.workers, rep.blas_threads) == (1, None)
        _, manifest = persist_report(rep, tmp_path)
        assert "pool: 1 worker x BLAS threads unchanged\n" in manifest.read_text()

    def test_failure_in_a_pool_of_two_keeps_net_order(self, plant_error, cores):
        plant_error(ResolutionError("planted"), at_eps=0.3)
        cores(2)
        rep = run_experiment(pooled_config(T=SHORT_T))
        assert rep.workers == 2
        assert str(rep.verdict) == "Fail(epsilon=0.3: ResolutionError: planted)"
        assert [r.epsilon for r in rep.records] == [0.5, 0.4, 0.2, 0.125]

    def test_threads_key_does_not_oversubscribe(self, cores):
        # a file may still say threads = 4, but the pool is sized from the
        # cores: 4 workers on 2 cores, each with 1 BLAS thread, would be 4 > 2
        cores(2)
        cfg = parse_sweep_config(POOLED_TEXT + "threads = 4\n")
        rep = run_experiment(cfg)
        assert rep.workers == 2
        assert rep.workers * (rep.blas_threads or 1) <= 2

    @pytest.mark.parametrize("threads", ["1", "4", "two"])
    def test_threads_key_is_read_by_nothing(self, cores, threads):
        # a retired key: older files keep parsing, and no value is parsed
        cores(3)
        cfg = parse_sweep_config(POOLED_TEXT + f"threads = {threads}\n")
        assert cfg == parse_sweep_config(POOLED_TEXT)
        assert run_experiment(cfg).workers == 3  # min(cores, 4 eps) whatever threads says
        cfg_r = parse_sweep_config(CONFIG_TEXT + f"threads = {threads}\n")
        assert run_experiment(cfg_r).workers == 1  # one worker on R


class TestFailureTaxonomy:
    def test_numerical_error_fails_its_eps(self, plant_error, numerical_error):
        cls = numerical_error
        plant_error(cls("planted"), at_eps=0.125)
        rep = run_experiment(make_config())
        assert str(rep.verdict) == f"Fail(epsilon=0.125: {cls.__name__}: planted)"
        # the eps that succeeded, in net order
        assert [r.epsilon for r in rep.records] == [0.5, 0.25, 0.0625, 0.03125]
        assert rep.fit is None

    @pytest.mark.parametrize("exc", [TypeError("planted"), ValueError("planted")],
                             ids=["TypeError", "ValueError"])
    def test_other_errors_propagate(self, plant_error, exc):
        # a bug or a config fault is not a failed claim
        plant_error(exc, at_eps=0.125)
        with pytest.raises(type(exc), match="planted"):
            run_experiment(make_config())

    def test_fault_stops_the_net(self, plant_error, monkeypatch):
        # the eps queued behind a fault are cancelled, not solved
        plant_error(TypeError("planted"), at_eps=0.5)
        attempted = []
        planted = harness.regularize_potential

        def counting(pot, eps, *rest):
            attempted.append(eps)
            return planted(pot, eps, *rest)

        monkeypatch.setattr(harness, "regularize_potential", counting)
        cfg = make_config()
        with pytest.raises(TypeError, match="planted"):
            run_experiment(cfg)
        assert attempted[0] == 0.5 and len(attempted) <= 2 < len(cfg.epsilons)

    def test_each_numerical_error_keeps_its_builtin_base(self, numerical_error):
        # so every except ValueError or RuntimeError still catches it
        base = RuntimeError if numerical_error.__name__ in (
            "CapabilityError", "StabilityError", "ConvergenceError") else ValueError
        exc = numerical_error("x")
        assert isinstance(exc, NumericalError) and isinstance(exc, base)
        assert not issubclass(ConfigError, NumericalError)

    def test_benchmark_selftest_counts_failed_eps(self, monkeypatch):
        # perfbench's failing-sweep check: its ResolutionErrors must stay a
        # Fail verdict (exit 1) with all 4 eps attempted
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))  # selftest imports its siblings
        load_perfbench("selftest").check_failed_eps()


class TestRunParallelDeterminism:
    @staticmethod
    def reports_at(cfg, cores, counts):
        """The reports of cfg with the pool driven to each worker count in turn."""
        reports = []
        for n in counts:
            cores(n)
            reports.append(run_experiment(cfg))
        assert [rep.workers for rep in reports] == list(counts)
        return reports

    @staticmethod
    def csv_bodies(reports, tmp_path):
        return [persist_report(rep, tmp_path / f"r{i}")[0].read_bytes()
                for i, rep in enumerate(reports)]

    def test_thread_count_does_not_change_report(self, tmp_path, pooled_report):
        reports = [pooled_report(n) for n in (1, 4)]
        assert [rep.workers for rep in reports] == [1, 4]
        one, four = self.csv_bodies(reports, tmp_path)
        assert one == four

    def test_failure_merge_does_not_depend_on_the_workers(self, cores, plant_error):
        # the failing eps and the records that succeeded, merged in net order
        plant_error(ResolutionError("planted"), at_eps=0.4)
        one, four = self.reports_at(pooled_config(T=SHORT_T), cores, (1, 4))
        assert str(one.verdict) == str(four.verdict) == (
            "Fail(epsilon=0.4: ResolutionError: planted)")
        assert one.records == four.records and len(one.records) == 4

    def reports_at_1_and_2_workers(self, cfg, tmp_path, cores):
        reports = self.reports_at(cfg, cores, (1, 2))
        assert all(rep.verdict.kind == "Moderate" for rep in reports)
        return self.csv_bodies(reports, tmp_path)

    def test_heisenberg_thread_count_does_not_change_report(self, tmp_path, cores):
        # the pool's workers share the operator's cached resolvent blocks
        one, two = self.reports_at_1_and_2_workers(heisenberg_pool_config(), tmp_path, cores)
        assert one == two

    def test_heisenberg_benchmark_grid_blas_split_does_not_change_report(self, cores):
        # on the h1_existence grid the 256-dof blocks are large enough for
        # OpenBLAS to thread the preconditioner: a solve outside a sweep runs
        # it on every core, each of two pool workers on its share of the cores
        cfg = make_config(group=heisenberg1(), half_width=1.5, points=(16, 16, 32),
                          schedule=OmegaSchedule.logarithmic(1),
                          epsilons=EpsilonNet((0.25, 0.2, 0.15, 0.11)),
                          mollifier_radius=1.4, T=1.0 / 16, dt=1.0 / 32)
        cores(2)
        rep = run_experiment(cfg)
        assert rep.verdict.kind == "Moderate" and rep.workers == 2
        problem = harness.problem_builder(cfg)
        alone = [float(np.max(harness.step_implicit(problem(eps)).h_nu2))
                 for eps in cfg.epsilons]
        assert [r.norm_sup_t for r in rep.records] == alone

    def test_euclidean2_thread_count_does_not_change_report(self, tmp_path, cores):
        # the pool's workers share the operator's cached Fourier multiplier;
        # the attractive well makes the L2 norm grow, so each sup is attained
        # after t = 0 and the report depends on every CG step
        cfg = make_config(group=euclidean(2), half_width=2.0, points=(48, 48),
                          potential=PotentialSpec.dirac_delta(multiplier=-5.0), norm="l2",
                          epsilons=EpsilonNet((0.5, 0.35, 0.25, 0.18)), T=SHORT_T, dt=1.0 / 64)
        one, two = self.reports_at_1_and_2_workers(cfg, tmp_path, cores)
        assert one == two

    def test_dispatch_table(self):
        cfg = make_config()
        rep = run_experiment(cfg)
        assert rep.config.experiment == "existence"
        assert rep.verdict.kind == "Moderate"


def heisenberg_pool_config():
    """An H1 net whose two coarser eps (s = 343, 245 support cells) are
    stepped by CG and whose two finer (s = 163, 131) by Woodbury: the cost
    model admits s <= 192 at 16 steps on 8 x 8 x 16, whose blocks are real."""
    return make_config(group=heisenberg1(), half_width=1.5, points=(8, 8, 16),
                       schedule=OmegaSchedule.logarithmic(1),
                       epsilons=EpsilonNet((0.25, 0.22, 0.19, 0.17)),
                       mollifier_radius=2.0, T=0.5, dt=1.0 / 32)


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
            self, setter, monkeypatch, tmp_path, cores):
        seen, reading = [], threading.Lock()

        def spy(*args):
            # where the count is the process's, a read sets it for a moment
            with reading:
                seen.append(self.count(setter))
            return regularize_potential(*args)

        monkeypatch.setattr(harness, "regularize_potential", spy)
        before = self.count(setter)
        cores(8)
        rep = run_experiment(parse_sweep_config(POOLED_TEXT))
        assert self.count(setter) == before
        want = min(2, before)  # 8 cores for 4 eps
        assert seen == [want] * 4
        assert (rep.workers, rep.blas_threads) == (4, want)
        _, manifest = persist_report(rep, tmp_path)
        plural = "" if want == 1 else "s"
        assert f"pool: 4 workers x {want} BLAS thread{plural}\n" in manifest.read_text()

    def test_a_fault_in_the_pool_gives_the_count_back(
            self, setter, plant_error, monkeypatch, cores):
        # the count starts at 2 here, so 2 workers on 2 cores lower it to 1,
        # and a fault that propagates out of the pool must not keep it there
        plant_error(TypeError("planted"), at_eps=0.3)
        seen, reading, planted = [], threading.Lock(), harness.regularize_potential

        def spy(*args):
            with reading:
                seen.append(self.count(setter))
            return planted(*args)

        monkeypatch.setattr(harness, "regularize_potential", spy)
        cores(2)
        original = setter(2)
        try:
            with pytest.raises(TypeError, match="planted"):
                run_experiment(pooled_config(T=SHORT_T))
            after = self.count(setter)
        finally:
            setter(original)
        assert seen and set(seen) == {1}
        assert after == 2

    def test_pool_is_sized_from_the_affinity(self, tmp_path, pooled_report):
        # the real read, one worker under `taskset -c 0`, and the report of two
        rep = run_experiment(pooled_config(T=SHORT_T))
        assert rep.workers == min(affinity_cores(), 5)
        if rep.blas_threads is not None:
            assert rep.workers * rep.blas_threads <= affinity_cores()
        two = pooled_report(2)
        assert two.workers == 2
        csv_path, _ = persist_report(rep, tmp_path / "affinity")
        csv_two, _ = persist_report(two, tmp_path / "two")
        assert csv_path.read_bytes() == csv_two.read_bytes()

    def test_cores_come_from_cpu_count_without_affinity(self, setter, monkeypatch):
        # sched_getaffinity is Linux-only; the setter is found elsewhere too
        before = self.count(setter)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 10)
        assert harness._cores() == 10
        rep = run_experiment(pooled_config(T=SHORT_T))
        assert rep.verdict.kind == "Moderate"
        # 5 eps, so 5 workers, each with 10 // 5 BLAS threads
        assert (rep.workers, rep.blas_threads) == (5, min(2, before))
        assert self.count(setter) == before
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert harness._cores() == 1

    def test_pools_of_concurrent_sweeps_take_turns(self, setter, monkeypatch, cores):
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
        cores(2)
        before = self.count(setter)
        sweeps = [threading.Thread(target=run_experiment, args=(pooled_config(T=SHORT_T),))
                  for _ in range(2)]
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


# one eps of a 2-D net whose delta sits on s = 241 cells: s >= 128, where a
# blocked Cholesky threads, and s <= 479, where the cost model at 32 steps
# on 128^2 takes the Woodbury step
WOODBURY_TEXT = """
group = euclidean2
half_width = 2.0
points = 128
potential = delta
mollifier_radius = 1.5
schedule = poly
epsilons = 0.5,0.35,0.25,0.18
T = 0.5
dt = 0.015625
experiment = existence
"""

# the h1_existence benchmark config at a shorter T: eps = 0.25 and 0.2 (935
# and 535 support cells) step by CG and 0.15 (261) by Woodbury
H1_EXISTENCE_TEXT = """
group = heisenberg1
half_width = 1.5
points = 16,16,32
potential = delta
schedule = log:1
epsilons = 0.25,0.2,0.15,0.11
mollifier_radius = 1.4
T = 0.25
dt = 0.03125
norm = hnu2
experiment = existence
"""

SERIES_DIGEST = """
import hashlib, sys
from gradedheat import harness
from gradedheat.config import parse_sweep_config
problem = harness.problem_builder(parse_sweep_config(sys.argv[1]))
for eps in sys.argv[2:]:
    traj = harness.step_implicit(problem(float(eps)), keep_states=False)
    print(hashlib.sha256(traj.l2.tobytes() + traj.sobolev_nu2.tobytes()).hexdigest())
"""


class TestWoodburyFactorDeterminism:
    # existence and uniqueness sups sit at t = 0, so no report.csv shows the
    # bits of the Woodbury factor; the series of one eps do.  The pool caps
    # numpy's BLAS at cores // workers, and numpy's Cholesky changes bits
    # with that count from s = 128 on; so does scipy's dpotrf with scipy's
    # count, which OpenBLAS reads from the environment or the affinity.
    def test_series_do_not_depend_on_numpys_blas_threads(self, monkeypatch):
        setter = harness._blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
        calls, factor = [], solve_module._woodbury_solver
        monkeypatch.setattr(solve_module, "_woodbury_solver",
                            lambda *args: calls.append(args) or factor(*args))
        problem = harness.problem_builder(parse_sweep_config(WOODBURY_TEXT))(0.18)
        s = np.count_nonzero(problem.V.values)
        assert 128 <= s and s**3 <= 3 * problem.steps * problem.op.resolvent_flops
        before = setter(1)
        try:
            one = harness.step_implicit(problem, keep_states=False)
            setter(2)
            two = harness.step_implicit(problem, keep_states=False)
        finally:
            setter(before)
        assert len(calls) == 2
        for name in ("l2", "sobolev_nu2", "energy"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name

    def test_heisenberg_sweep_series_do_not_depend_on_the_workers(
            self, monkeypatch, tmp_path, cores):
        # every eps's series and the report, at 1 and at 2 workers, with two
        # eps on the Woodbury step built from the H1 blocks
        calls, factor = [], solve_module._woodbury_solver
        monkeypatch.setattr(solve_module, "_woodbury_solver",
                            lambda *args: calls.append(args) or factor(*args))
        series, lock = {}, threading.Lock()

        def recording(p, **kwargs):
            traj = solve_module.step_implicit(p, **kwargs)
            with lock:
                series[p.V.values.tobytes()] = traj.l2.tobytes() + traj.sobolev_nu2.tobytes()
            return traj

        monkeypatch.setattr(harness, "step_implicit", recording)
        cfg = heisenberg_pool_config()
        runs = []
        for n in (1, 2):
            series.clear()
            cores(n)
            rep = run_experiment(cfg)
            assert rep.workers == n and rep.verdict.kind == "Moderate"
            csv = persist_report(rep, tmp_path / f"w{n}")[0].read_bytes()
            runs.append((dict(series), csv))
        assert len(calls) == 4
        assert len(runs[0][0]) == 4
        assert runs[0] == runs[1]

    def test_series_do_not_depend_on_the_openblas_thread_count_at_start(self):
        # OpenBLAS fixes its count when it loads, so each count needs a fresh
        # interpreter; the environment variable sets numpy's and scipy's.  On
        # H1 the resolvent's inverse blocks, which both routes apply, are
        # built on one scipy thread.  One eps of each net runs CG on the
        # support of V: on R^2 its box convolutions, on H1 its sub-block products
        for text, eps in ((WOODBURY_TEXT, (0.5, 0.18)), (H1_EXISTENCE_TEXT, (0.25, 0.15))):
            problem = harness.problem_builder(parse_sweep_config(text))
            support = [np.count_nonzero(problem(e).V.values) for e in eps]
            cost = [3 * problem(e).steps * problem(e).op.resolvent_flops - s**3
                    for e, s in zip(eps, support)]
            assert cost[0] < 0 <= cost[1]  # CG, then Woodbury
            assert 2 * support[0] < problem(eps[0]).op.grid.size  # CG on the support
        src = Path(__file__).resolve().parents[1] / "src"
        for text, eps in ((WOODBURY_TEXT, ("0.5", "0.18")), (H1_EXISTENCE_TEXT, ("0.25", "0.15"))):
            digests = set()
            for threads in ("1", "2"):
                env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
                done = subprocess.run([sys.executable, "-c", SERIES_DIGEST, text, *eps],
                                      env=env, capture_output=True, text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                assert len(done.stdout.split()) == len(eps)
                digests.add(done.stdout)
            assert len(digests) == 1, text


class TestCgStepDeterminism:
    # the CG step's inner products, Galerkin start and exit check call no
    # threaded BLAS, so a CG eps has one series on the calling thread and in
    # a pool whose BLAS is capped; both run on the support of V
    def test_series_equal_on_the_calling_thread_and_in_a_pool(self, monkeypatch):
        calls, solver = [], solve_module._cg_solver
        monkeypatch.setattr(solve_module, "_cg_solver",
                            lambda *args: calls.append(args) or solver(*args))
        repulsive = make_config(group=euclidean(2), half_width=2.0, points=(64, 64),
                                T=0.25, epsilons=EpsilonNet((0.5, 0.45, 0.4, 0.35)))
        attractive = make_config(group=euclidean(2), half_width=2.0, points=(48, 48),
                                 potential=PotentialSpec.dirac_delta(multiplier=-5.0),
                                 norm="l2", T=0.25, epsilons=EpsilonNet((0.5, 0.35, 0.25, 0.18)))
        problems = [harness.problem_builder(cfg)(0.5) for cfg in (repulsive, attractive)]
        assert all(2 * np.count_nonzero(p.V.values) < p.op.grid.size for p in problems)

        def series(p):
            traj = solve_module.step_implicit(p, keep_states=False)
            return traj.l2.tobytes() + traj.sobolev_nu2.tobytes()

        alone = [series(p) for p in problems]
        with harness._capped_pool(2, harness._cores()) as (mapper, _):
            pooled = list(mapper(series, problems))
        assert len(calls) == 4
        assert pooled == alone


class TestPersistReport:
    def test_empty_report_writes_its_fail_verdict(self, tmp_path):
        # a sweep whose every eps failed still replaces the files of the last run
        cfg = make_config()
        report = SweepReport(config=cfg, records=(), fit=None,
                             verdict=Verdict("Fail", reason="nothing ran"))
        csv_path, manifest_path = persist_report(report, tmp_path / "out")
        assert csv_path.read_text() == "epsilon,omega,norm_sup_t,fitted_flag\n"
        manifest = manifest_path.read_text()
        assert "records: 0\n" in manifest
        assert manifest.endswith("VERDICT: Fail(nothing ran)\n")

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

    def test_only_an_existence_manifest_names_its_norm(self, tmp_path):
        # uniqueness and consistency nets are L2 distances and errors, whatever the norm
        unique = uniqueness_experiment(make_config(experiment="uniqueness", perturbation="none"))
        manifest = persist_report(unique, tmp_path / "uniqueness")[1].read_text()
        assert "experiment: uniqueness\n" in manifest and "\nnorm:" not in manifest
        exists = SweepReport(config=make_config(), records=(), fit=None,
                             verdict=Verdict("Fail", reason="nothing ran"))
        assert "\nnorm: hnu2\n" in persist_report(exists, tmp_path / "existence")[1].read_text()

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

# the file twin of a short pooled_config on a 4-eps net
POOLED_TEXT = (CONFIG_TEXT.replace("euclidean1", "euclidean2").replace("= 128", "= 32")
               .replace("0.5,0.25,0.125,0.0625,0.03125", "0.5,0.4,0.3,0.2")
               .replace("T = 0.5", f"T = {SHORT_T}"))


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
        # the retired key is accepted and read by nothing, so no hash moved with it
        cfg = parse_sweep_config(CONFIG_TEXT)
        assert "threads" not in {f.name for f in fields(SweepConfig)}
        assert parse_sweep_config(CONFIG_TEXT + "threads = 8\n") == cfg
        assert config_hash(parse_sweep_config(CONFIG_TEXT + "threads = 8\n")) == config_hash(cfg)
        with pytest.raises(ConfigError, match="duplicate key 'threads'"):
            parse_sweep_config(CONFIG_TEXT + "threads = 8\nthreads = 2\n")

    def test_hash_ignores_solve_only_keys(self):
        # only `gradedheat solve` reads these, so a sweep's provenance omits them
        solve_keys = {"epsilon", "method"}
        assert not solve_keys & {f.name for f in fields(SweepConfig)}
        text = CONFIG_TEXT + "epsilon = 0.25\nmethod = duhamel\n"
        assert config_hash(parse_sweep_config(text)) == config_hash(
            parse_sweep_config(CONFIG_TEXT))

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
        assert cfg.points == (256,) and cfg.norm == "hnu2"

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
norm = hnu2
k_max = 7
N_max = 4
perturbation = omega1
u0_width = 0.8
u0_amplitude = 2.5
mollifier_radius = 1.25
schedule_v = poly
schedule_u0 = log:3
epsilon = 0.125
method = duhamel
"""

    def test_config_hashes_are_pinned(self):
        # a drifted default or hash rendering moves these; the sign class is
        # derived from V but still rendered, so no hash moved when the key went
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("A typical config:", 1)[1].split("```")[1]
        assert config_hash(parse_sweep_config(block, experiment="existence")) == (
            "df6fb8aaee0f0285dc42c9b17211c13c20731bb3269a890fb9804525606580e7")
        assert config_hash(parse_sweep_config(self.ALL_KEYS_TEXT)) == (
            "3102c128af0cd112beebb0861b784d3a72683156197c1bac2c2436f9449f6de9")

    BENCHMARK_HASHES = {
        "h1_existence": "827345be7ee8608317248537c71c7f6fa632617ab10f9cd3b99682972fe0aa72",
        "e2_existence": "389ae177fb2b732c67199f17ad9c4cb84444ff1c7baf64646e887e9f655617cc",
        "e1_uniqueness": "566afe4238090b03f0d370861f9b6dd836061c847ed90d31035b9b267a66c99e",
    }

    @pytest.mark.parametrize("name", BENCHMARK_HASHES)
    def test_benchmark_configs_parse_to_pinned_hashes(self, name):
        # they set norm and the retired threads key; a parse change that refuses
        # either, or moves a hash, must fail here and not in the benchmark
        workload = load_perfbench("workloads").WORKLOADS[name]
        cfg = parse_sweep_config(workload.config, experiment=workload.experiment)
        assert config_hash(cfg) == self.BENCHMARK_HASHES[name]

    # the backward-Euler route of every eps of the benchmark sweeps, and of the
    # h1_spectral solve, as the cost model picks it from resolvent_flops
    BENCHMARK_ROUTES = {
        "h1_existence": ["cg", "woodbury", "woodbury", "woodbury"],
        "e2_existence": ["cg", "cg", "woodbury", "woodbury"],
        "h1_spectral": ["cg"],
    }

    @pytest.mark.parametrize("name", BENCHMARK_ROUTES)
    def test_benchmark_routes(self, monkeypatch, name):
        class Routed(Exception):
            pass

        def route(kind):
            def spy(*args):
                raise Routed(kind)
            return spy

        monkeypatch.setattr(solve_module, "_woodbury_solver", route("woodbury"))
        monkeypatch.setattr(solve_module, "_cg_solver", route("cg"))
        workload = load_perfbench("workloads").WORKLOADS[name]
        if name == "h1_spectral":
            # the problem its operation solves by backward Euler
            grid = make_grid(heisenberg1(), workload.half_width, workload.points)
            problems = [solve_module.CauchyProblem(
                operators.build_rockland(grid), bump_field(grid, 1.0, 0.8),
                bump_field(grid, 1.125), workload.T, workload.dt)]
        else:
            cfg = parse_sweep_config(workload.config, experiment=workload.experiment)
            problem = harness.problem_builder(cfg)
            problems = [problem(eps) for eps in cfg.epsilons]
        routes = []
        for p in problems:
            with pytest.raises(Routed) as routed:
                solve_module.step_implicit(p, keep_states=False)
            routes.append(str(routed.value))
        assert routes == self.BENCHMARK_ROUTES[name]

    def test_e1_uniqueness_report_bytes_match_the_benchmark_reference(self, tmp_path):
        # the benchmark's e1 sweep, as it runs it: report.csv is the reference's bytes
        workloads = load_perfbench("workloads")
        workload = workloads.WORKLOADS["e1_uniqueness"]
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(workload.config)
        out = tmp_path / "report"
        argv = ["sweep", "--experiment", workload.experiment,
                "--config", str(cfg_path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        sha = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        assert sha == workloads.load_reference()["e1_uniqueness"]["report_sha256"]

    def test_all_keys_config_leaves_no_default(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.ALL_KEYS_TEXT)
        cfg, opts = parse_solve_config_file(path)
        assert cfg == parse_sweep_config(self.ALL_KEYS_TEXT)
        assert opts == SolveOptions(epsilon=0.125, method="duhamel")
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
