"""When a classical solution exists, the regularised net must find it.

For a continuous potential the unregularised problem already has a
perfectly good solution; mollifying V and u0 and re-solving should then
converge back to it as eps -> 0.  This is the consistency experiment: the
error net e(eps) = sup_t |u_eps - u|_L2 has to decrease strictly and end
well below its starting value.
"""

from gradedheat import EpsilonNet, OmegaSchedule, PotentialSpec, bump_field, euclidean, heisenberg1, make_grid
from gradedheat.config import SweepConfig
from gradedheat.harness import consistency_experiment


def study(cfg, label):
    rep = consistency_experiment(cfg)
    print(f"--- {label} ---")
    print(f"  {'eps':>9} {'omega':>8} {'e(eps)':>12} {'|V_eps - V|_inf':>16}")
    for r in rep.records:
        print(f"  {r.epsilon:>9.4f} {r.omega:>8.4f} {r.norm_sup_t:>12.4e} "
              f"{dict(r.extras)['v_error_linf']:>16.4e}")
    print(f"  verdict: {rep.verdict}  (exponent = fitted error slope)")
    print()


if __name__ == "__main__":
    grid = make_grid(euclidean(1), 1.0, 128)
    study(SweepConfig(
        group=euclidean(1), half_width=1.0, points=(128,),
        potential=PotentialSpec.sampled(bump_field(grid, 0.6, 0.8)),
        schedule=OmegaSchedule.polynomial(),
        epsilons=EpsilonNet.dyadic(1.0, 5),
        T=0.5, dt=1.0 / 64, experiment="consistency", norm="l2"),
        "line, polynomial schedule")

    grid_h = make_grid(heisenberg1(), 1.5, 16)
    # a 16^3 grid cannot resolve polynomially shrinking kernels for five
    # halvings; the log schedule compresses the omega range so it can
    study(SweepConfig(
        group=heisenberg1(), half_width=1.5, points=(16, 16, 16),
        potential=PotentialSpec.sampled(bump_field(grid_h, 1.0, 0.8)),
        schedule=OmegaSchedule.logarithmic(1),
        epsilons=EpsilonNet.dyadic(0.5, 5),
        T=0.5, dt=1.0 / 32, experiment="consistency", norm="l2",
        mollifier_radius=0.7),
        "Heisenberg, logarithmic schedule")
