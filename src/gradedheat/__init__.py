"""Heat flow with singular potentials on graded groups.

The package discretises the Cauchy problem

    d_t u + R u + V u = 0,   u(0) = u_0,

on periodic boxes in R^d and in the first Heisenberg group, where R is a
positive Rockland operator (the negative Laplacian, resp. the negative
sub-Laplacian) and V may be a genuinely singular potential such as a Dirac
delta or its square.  Singular data enter through Friedrichs mollifier nets
psi_eps; the harness module measures how solution nets grow or shrink along
eps and turns the measurements into moderateness / negligibility verdicts.
"""

__version__ = "0.1.0"

from gradedheat.groups import (
    DilationWeights,
    Field,
    Grid,
    GroupInstance,
    dilate,
    euclidean,
    group_inverse,
    group_product,
    heisenberg1,
    make_grid,
)
from gradedheat.mollify import (
    EpsilonNet,
    Mollifier,
    OmegaSchedule,
    PotentialSpec,
    bump_field,
    convolve,
    mollifier_net,
    omega,
    regularize_field,
    regularize_potential,
)
from gradedheat.norms import embedding_ratio, homogeneous_sobolev_norm, hs_norm, lp_norm
from gradedheat.operators import (
    SPECTRAL_DOF_LIMIT,
    DiscreteRockland,
    build_rockland,
    fractional_power,
    semigroup_apply,
)
from gradedheat.solve import (
    CauchyProblem,
    Trajectory,
    apriori_ratios,
    energy,
    oracle_expm,
    solve_duhamel,
    step_implicit,
)
from gradedheat.config import (
    SweepConfig,
    config_hash,
    parse_sweep_config,
    parse_sweep_config_file,
)
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

__all__ = [
    "DilationWeights",
    "Field",
    "Grid",
    "GroupInstance",
    "dilate",
    "euclidean",
    "group_inverse",
    "group_product",
    "heisenberg1",
    "make_grid",
    "EpsilonNet",
    "Mollifier",
    "OmegaSchedule",
    "PotentialSpec",
    "bump_field",
    "convolve",
    "mollifier_net",
    "omega",
    "regularize_field",
    "regularize_potential",
    "embedding_ratio",
    "homogeneous_sobolev_norm",
    "hs_norm",
    "lp_norm",
    "SPECTRAL_DOF_LIMIT",
    "DiscreteRockland",
    "build_rockland",
    "fractional_power",
    "semigroup_apply",
    "CauchyProblem",
    "Trajectory",
    "apriori_ratios",
    "energy",
    "oracle_expm",
    "solve_duhamel",
    "step_implicit",
    "SweepConfig",
    "config_hash",
    "parse_sweep_config",
    "parse_sweep_config_file",
    "FitResult",
    "SweepRecord",
    "SweepReport",
    "Verdict",
    "check_moderate",
    "check_negligible",
    "consistency_experiment",
    "existence_experiment",
    "fit_exponent",
    "persist_report",
    "run_experiment",
    "uniqueness_experiment",
    "__version__",
]
