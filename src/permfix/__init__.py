"""permfix: exact laws, kernels, couplings and moments for the fixed-point
count of a uniform random permutation versus Poisson(1)."""

from .exactdist import (
    ExactDist,
    Interval,
    PoissonRef,
    PrecisionInsufficient,
    derangements,
    enclosure_digits,
    exp_interval,
    fixed_point_pmf,
    inv_e_interval,
    log_rate,
    pi_conditioned,
    poisson_pmf,
    poisson_truncated,
    tv_bracket,
    tv_distance,
    zeta_law,
)
from .kernels import (
    PFunction,
    ReversibilityReport,
    StochasticKernel,
    birth_death_stationary,
    build_hat,
    build_penta,
    build_restricted,
    build_tridiag_tilde,
    check_reversibility,
    hat_ordering,
    hat_stationary,
    p_bruteforce,
    p_closedform,
    p_recursion,
    poisson_reversible_penta,
    restricted_kernel,
    state_space,
)
from .lumping import (
    PartitionedChain,
    cycle_type_chain,
    dynkin_check,
    permutation_chain,
    project,
    reversibility_transfer,
    transposition_walk,
)
from .coupling import (
    Aggregates,
    CouplingStats,
    CouplingTrace,
    DriftCertificate,
    RunConfig,
    assemble_tv_bound,
    drift_certificate,
    monotonicity_certificate,
    run_coupling,
    suggested_horizon,
)
from .altcouplings import (
    AscentPeakSample,
    ascent_peak_batch,
    mallows_discrepancy,
    mallows_exact_pmf,
    peak_tail_exact,
)
from .moments import (
    GramMatrix,
    bell_numbers,
    coefficient_systems,
    eta2_fk,
    eta2_fk_bruteforce,
    falling_moment,
    gram,
    gram_bruteforce,
    raw_moment_equality,
)
from .perms import CycleType, EnumerationGuardError

__version__ = "0.1.0"
