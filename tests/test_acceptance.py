"""End-to-end acceptance checks.

Eleven property-based gates covering the whole pipeline at desk scale:
semigroup contraction, energy decay, the Gronwall bound, oracle and Duhamel
agreement, mollifier scaling, the three sweep experiments, exponent-fit
correctness and thread determinism.  Each test prints one PASS/FAIL line
(run with -s to see them all).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gradedheat.config import SweepConfig
from gradedheat.groups import Field, euclidean, heisenberg1, make_grid
from gradedheat.harness import (
    check_negligible,
    consistency_experiment,
    existence_experiment,
    fit_exponent,
    persist_report,
    uniqueness_experiment,
)
from gradedheat.mollify import (
    EpsilonNet,
    Mollifier,
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    mollifier_net,
    regularize_potential,
)
from gradedheat.norms import lp_norm
from gradedheat.operators import build_rockland, semigroup_apply
from gradedheat.solve import (
    CauchyProblem,
    apriori_ratios,
    oracle_expm,
    solve_duhamel,
    step_implicit,
)

POLY = OmegaSchedule.polynomial()


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{number:>2}] {detail}")
    assert ok, f"acceptance check {number}: {detail}"


def l2dist(a: Field, b: Field) -> float:
    return lp_norm(Field(a.grid, a.values - b.values), 2)


@pytest.fixture(scope="module")
def h1_op():
    # shared so that its per-frequency eigensystem is decomposed once
    return build_rockland(make_grid(heisenberg1(), 1.5, 16))


def test_01_semigroup_contraction(h1_op):
    ops = [build_rockland(make_grid(euclidean(1), math.pi, 64)), h1_op]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for op in ops:
        for _ in range(100):
            u0 = Field(op.grid, rng.standard_normal(op.grid.shape))
            n0 = lp_norm(u0, 2)
            for t in (0.01, 0.1, 1.0):
                worst = max(worst, lp_norm(semigroup_apply(op, t, u0), 2) / n0)
    report(1, worst <= 1.0 + 1e-12,
           f"semigroup contraction on both groups, 100 data each: "
           f"worst ratio - 1 = {worst - 1:.3e}")


def test_02_energy_monotone():
    grid = make_grid(euclidean(1), math.pi, 64)
    op = build_rockland(grid)
    u0 = bump_field(grid, 2.0)
    psi = Mollifier(1, 1.5)
    potentials = {
        "zero": Field(grid, np.zeros(grid.shape)),
        "constant": Field(grid, np.ones(grid.shape)),
        "mollified delta": regularize_potential(
            PotentialSpec.dirac_delta(), 0.25, POLY, psi, grid),
    }
    worst = -np.inf
    for v in potentials.values():
        traj = step_implicit(CauchyProblem(op, v, u0, T=2.0, dt=0.01))
        assert traj.energy is not None and len(traj.energy) == 201
        worst = max(worst, float(np.max(np.diff(traj.energy)) / traj.energy[0]))
    report(2, worst <= 1e-10,
           f"backward Euler energy non-increasing over 200 steps, three "
           f"potentials: worst step increase = {worst:.3e} * E(0)")


def test_03_gronwall_bound():
    grid = make_grid(euclidean(1), math.pi, 64)
    op = build_rockland(grid)
    v = Field.from_function(grid, lambda x: 2.0 * np.sin(x))
    assert float(np.abs(v.values).max()) == 2.0
    u0 = bump_field(grid, 2.0)
    traj = step_implicit(CauchyProblem(op, v, u0, T=1.0, dt=1.0 / 64))
    ratios = apriori_ratios(traj, v, u0, "RealGronwall")
    worst = float(np.max(ratios))
    report(3, worst <= 1.0 + 1e-8,
           f"Gronwall bound exp(t max|V|) for max|V| = 2 over T = 1: "
           f"worst ratio = {worst:.12f}")


def oracle_setup():
    grid = make_grid(euclidean(1), math.pi, 32)
    op = build_rockland(grid)
    v = bump_field(grid, 2.0)
    u0 = bump_field(grid, 1.5, center=(0.5,))
    return op, v, u0


def test_04_oracle_halving():
    op, v, u0 = oracle_setup()
    exact = oracle_expm(CauchyProblem(op, v, u0, T=0.5, dt=0.5)).states[-1]
    errs = [l2dist(step_implicit(CauchyProblem(op, v, u0, T=0.5, dt=dt)).states[-1],
                   exact)
            for dt in (1 / 32, 1 / 64, 1 / 128)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    report(4, ok,
           f"implicit error vs matrix exponential halves with dt: "
           f"ratios = {[f'{r:.3f}' for r in ratios]}")


def test_05_duhamel_agreement():
    op, v, u0 = oracle_setup()
    dt = 1.0 / 64
    problem = CauchyProblem(op, v, u0, T=0.5, dt=dt)
    gap = l2dist(solve_duhamel(problem, n_picard=8).states[-1],
                 step_implicit(problem).states[-1])
    report(5, gap <= 10.0 * dt,
           f"Duhamel (Picard depth 8) vs implicit at T = 0.5: "
           f"gap = {gap:.3e} <= 10 dt = {10 * dt:.3e}")


def linf_exponent(grid, dim):
    psi = Mollifier(dim, 1.0)
    pairs = []
    for k in range(5):
        eps = 2.0**-k
        net = mollifier_net(psi, eps, POLY, grid)
        pairs.append((eps, float(np.abs(net.values).max())))
    return fit_exponent(pairs).exponent


def test_06_mollifier_scaling():
    n_e = linf_exponent(make_grid(euclidean(1), 1.0, 512), 1)
    n_h = linf_exponent(make_grid(heisenberg1(), 1.0, (96, 96, 1536)), 3)
    ok = abs(n_e - 1.0) <= 0.05 and abs(n_h - 4.0) <= 0.4
    report(6, ok,
           f"L-inf net exponent matches the homogeneous dimension: "
           f"euclidean {n_e:.4f} (Q=1), heisenberg {n_h:.4f} (Q=4)")


def existence_config(potential):
    return SweepConfig(
        group=euclidean(1), half_width=2.0, points=(256,),
        potential=potential,
        schedule=POLY, epsilons=EpsilonNet.dyadic(0.5, 5),
        T=0.5, dt=1.0 / 64, experiment="existence", norm="hnu2",
        mollifier_radius=1.5)


def test_07_existence_moderate():
    details = []
    ok = True
    for token, pot in (("delta", PotentialSpec.dirac_delta()),
                       ("delta2", PotentialSpec.dirac_delta_squared())):
        rep = existence_experiment(existence_config(pot))
        majorant = rep.extra_fit("majorant").exponent
        good = (rep.verdict.kind == "Moderate"
                and rep.fit.exponent <= 1.1 * majorant)
        ok = ok and good
        details.append(f"{token}: {rep.verdict}, N-hat {rep.fit.exponent:.3f} "
                       f"vs majorant {majorant:.3f}")
    report(7, ok, "existence sweeps are Moderate below the a-priori majorant: "
           + "; ".join(details))


def uniqueness_config(perturbation):
    return SweepConfig(
        group=euclidean(1), half_width=1.0, points=(256,),
        potential=PotentialSpec.dirac_delta_squared(),
        schedule=POLY, epsilons=EpsilonNet.dyadic(0.5, 6),
        T=0.5, dt=1.0 / 64, experiment="uniqueness", norm="l2",
        mollifier_radius=1.5, perturbation=perturbation)


def test_08_uniqueness_negligible():
    rep = uniqueness_experiment(uniqueness_config("exp"))
    control = uniqueness_experiment(uniqueness_config("omega1"))
    ok = (rep.verdict.kind == "Negligible" and rep.fit.exponent <= -10.0
          and control.verdict.kind == "Fail")
    report(8, ok,
           f"e^(-1/eps) data perturbation: {rep.verdict} (slope "
           f"{rep.fit.exponent:.3f}); omega control: {control.verdict.kind}")


def consistency_summary(cfg):
    rep = consistency_experiment(cfg)
    errors = [r.norm_sup_t for r in rep.records]
    strict = all(b < a for a, b in zip(errors, errors[1:]))
    ratio = errors[-1] / errors[0]
    return rep, strict, ratio


def test_09_consistency_converges():
    grid_e = make_grid(euclidean(1), 1.0, 128)
    cfg_e = SweepConfig(
        group=euclidean(1), half_width=1.0, points=(128,),
        potential=PotentialSpec.sampled(bump_field(grid_e, 0.6, 0.8)),
        schedule=POLY, epsilons=EpsilonNet.dyadic(1.0, 5),
        T=0.5, dt=1.0 / 64, experiment="consistency", norm="l2")
    grid_h = make_grid(heisenberg1(), 1.5, 16)
    # on 16^3 the polynomial schedule outruns the grid within five halvings;
    # the log schedule keeps every kernel resolved over the same epsilon net
    cfg_h = SweepConfig(
        group=heisenberg1(), half_width=1.5, points=(16, 16, 16),
        potential=PotentialSpec.sampled(bump_field(grid_h, 1.0, 0.8)),
        schedule=OmegaSchedule.logarithmic(1), epsilons=EpsilonNet.dyadic(0.5, 5),
        T=0.5, dt=1.0 / 32, experiment="consistency", norm="l2",
        mollifier_radius=0.7)
    rep_e, strict_e, ratio_e = consistency_summary(cfg_e)
    rep_h, strict_h, ratio_h = consistency_summary(cfg_h)
    ok = (rep_e.verdict.kind == "Moderate" and strict_e and ratio_e < 0.1
          and rep_h.verdict.kind == "Moderate" and strict_h and ratio_h < 0.1)
    report(9, ok,
           f"mollified solutions converge to the classical one: "
           f"euclidean strict={strict_e} final/first={ratio_e:.4f}, "
           f"heisenberg strict={strict_h} final/first={ratio_h:.4f}")


def test_10_fit_correctness():
    exact_ok = True
    for slope in range(7):
        pairs = [(0.5 * 2.0**-k, 2.0 * (0.5 * 2.0**-k) ** -slope)
                 for k in range(6)]
        exact_ok = exact_ok and abs(fit_exponent(pairs).exponent - slope) < 1e-9
    rng = np.random.default_rng(11)
    noisy_ok = True
    for slope in range(1, 7):
        pairs = [(w, v * (1.0 + 0.01 * rng.standard_normal()))
                 for w, v in ((0.5 * 2.0**-k, (0.5 * 2.0**-k) ** -slope)
                              for k in range(8))]
        noisy_ok = noisy_ok and abs(fit_exponent(pairs).exponent - slope) <= 0.05 * slope
    eps_net = [2.0**-k for k in range(2, 8)]
    verdict, _ = check_negligible([(e, math.exp(-1.0 / e)) for e in eps_net], k_max=10)
    ok = exact_ok and noisy_ok and verdict.kind == "Negligible"
    report(10, ok,
           f"planted slopes 0..6 exact={exact_ok}, 1% noise within 5%={noisy_ok}, "
           f"e^(-1/eps) classified {verdict.kind}")


def test_11_determinism(tmp_path):
    cfg = existence_config(PotentialSpec.dirac_delta())
    bodies = []
    for name, threads in (("a1", 1), ("b4", 4), ("c1", 1)):
        rep = existence_experiment(replace(cfg, threads=threads))
        csv_path, _ = persist_report(rep, tmp_path / name)
        bodies.append(csv_path.read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2]
    report(11, ok,
           f"report CSV byte-identical across reruns and threads 1 vs 4: "
           f"{len(bodies[0])} bytes")
