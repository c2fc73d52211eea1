"""Noise-based disclosure control for static census-like count outputs."""

from .errors import DomainError, InfeasibleError, ProgrammeError
from .tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    enumerate_subtables,
    load_programme,
    neighbor,
    parse_programme,
    read_microdata,
    tabulate,
)
from .noise import (
    CellKey,
    Laplace,
    PTable,
    RecordKey,
    TruncatedLaplace,
    TwoTailedGeometric,
    cell_key_noise,
    gen_ptable,
    geometric2_pmf,
    laplace_variance,
    sample_noise,
    uniform_max_variance,
)
from .accounting import (
    BudgetSplit,
    DPGuarantee,
    ReidRates,
    compose,
    eps_alpha_n,
    halving_schedule,
    noise_scale_for_global,
    reid_rate,
    sensitivity,
    tightest_delta,
    us_table_budget,
)
from .redundancy import (
    IRR,
    IRRStats,
    RankedStatistic,
    count_k_t,
    enumerate_irrs,
    optimize_kt2,
    rank_statistics,
    statistic_universe,
)
from .attacks import (
    AttackReport,
    NoisyOutput,
    averaging_mc,
    averaging_success,
    bound_disclosure_mc,
    margin_exploit_mc,
    margin_exploit_scan,
    p1_exact,
    perturb_outputs,
    run_averaging_attack,
    tuples_needed,
)
from .utility import (
    AreaRecord,
    ConstraintGrid,
    CountHistogram,
    binned_distortion_estimate,
    dp_utility_eps,
    observations_histogram,
    sample_distortions,
    scan_eps,
    scan_ve,
    synthetic_areas,
    tail_prob,
)

__version__ = "0.1.0"
