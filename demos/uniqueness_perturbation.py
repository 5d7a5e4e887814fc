"""Uniqueness in the very weak sense: negligible in, negligible out.

Two nets of data count as the same problem when they differ by something
that vanishes faster than every power of omega(eps).  The sweep perturbs
both the potential and the datum by sigma(eps) and measures the resulting
solution difference:

  sigma = e^{-1/eps}   truly negligible, the difference must vanish fast
  sigma = omega(eps)   the negative control, decays only at first order
"""

import math

from gradedheat import EpsilonNet, OmegaSchedule, PotentialSpec, euclidean
from gradedheat.config import SweepConfig
from gradedheat.harness import uniqueness_experiment


def sweep(perturbation):
    cfg = SweepConfig(
        group=euclidean(1), half_width=1.0, points=(256,),
        potential=PotentialSpec.dirac_delta_squared(),
        schedule=OmegaSchedule.polynomial(),
        epsilons=EpsilonNet.dyadic(0.5, 6),
        T=0.5, dt=1.0 / 64, experiment="uniqueness", norm="l2",
        mollifier_radius=1.5, perturbation=perturbation)
    rep = uniqueness_experiment(cfg)
    print(f"--- perturbation: {perturbation} ---")
    print(f"  {'eps':>10} {'sigma':>12} {'sup_t |u - u~|_L2':>20}")
    for r in rep.records:
        # omega1 perturbs by the main schedule's omega, which the record holds
        sigma = r.omega if perturbation == "omega1" else math.exp(-1.0 / r.epsilon)
        print(f"  {r.epsilon:>10.5f} {sigma:>12.3e} {r.norm_sup_t:>20.3e}")
    if rep.fit is not None:
        print(f"  fitted decay order: {-rep.fit.exponent:.3f}")
    print(f"  verdict: {rep.verdict}")
    print()


if __name__ == "__main__":
    sweep("exp")
    sweep("omega1")
    print("Note the exact zero in the last exp row: e^{-1/eps} drops below")
    print("the floating-point resolution of the data it perturbs, so both")
    print("problems become bit-identical - decay faster than any power,")
    print("realised literally in arithmetic.")
