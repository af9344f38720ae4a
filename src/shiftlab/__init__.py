"""Numerical toolkit for weighted backward shifts: q-lower densities of
hit sets, separated index-set generation, series-convergence criterion
checks, candidate-vector construction, and orbit hit experiments."""

from .constructor import (
    BallTarget,
    ConstructionPlan,
    EpsilonSchedule,
    Eq33Report,
    HitExperimentResult,
    ModulusTarget,
    WeakStarTarget,
    build_vector,
    canonical_targets,
    coordinate_functionals,
    hit_experiment,
    modulus_ball,
    modulus_exceeds,
    select_Nk,
    transfer_weakstar,
    verify_eq33,
)
from .criterion import (
    CONVERGES,
    DIVERGES,
    FAILS,
    INCONCLUSIVE,
    SATISFIES,
    CriterionReport,
    Verdict,
    fhc_check_tmu,
    qfhc_check,
    series_probe,
    unilateral_condition,
)
from .density import (
    DensityEstimate,
    GrowthBound,
    HitSet,
    JSetFamily,
    JSetReport,
    check_growth_bound,
    generate_jsets,
    q_density_via_ranks,
    q_lower_density,
    shifted_union,
    verify_jsets,
)
from .errors import (
    ConstructionRefusedError,
    DomainMismatchError,
    InvalidArgumentError,
    ResourceLimitError,
    ShiftLabError,
    UnsupportedOperationError,
)
from .seqspace import (
    BILATERAL,
    UNILATERAL,
    CoeffVector,
    SpaceSpec,
    c0,
    entire,
    fnorm,
    linf_weakstar,
    lp,
    weakstar_gap,
)
from .shiftops import (
    BACKWARD,
    FORWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogPolar,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
    WeightSeq,
    apply,
    iterate,
    orbit_batch,
    smu_power_basis,
    tmu_apply,
)

__version__ = "0.1.0"
