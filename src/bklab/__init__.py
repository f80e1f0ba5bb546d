"""Bellman constants, exact dyadic maximal-operator evaluation, and
near-extremizer search for the Kolmogorov-type L^q inequality (0 < q < 1)."""

from .errors import (
    BklabError,
    ComplexityGuardError,
    ConvergenceError,
    DomainError,
    FamilyNotInSPhiError,
    FamilyNotMaximalError,
    InfeasibleStartError,
    NotTGoodError,
    RefinementTooCoarseError,
)
from .kernel import (
    BellmanParams,
    bellman_value,
    chi_lambda,
    ell_k,
    h_q,
    k0,
    maximize_r_k,
    omega_q,
    r_k,
    r_q_mu,
    rho_interval,
    sigma_q,
    u_q,
)
from .dyadic import (
    ROOT,
    ExcessSet,
    Linearization,
    StepFunction,
    TreeElement,
    TreeSpec,
    excess_set,
    is_t_good,
    kolmogorov_gap,
    linearize,
    maximal_function,
    s_phi_by_criterion,
    tree_averages,
    weak_type_gap,
)
from .transforms import (
    EigenResidual,
    GPhiEntry,
    GPhiRecord,
    InequalityGap,
    VerifyReport,
    corollary41_gap,
    eigen_residual,
    g_phi,
    gap_rows_to_csv,
    objective,
    optimal_beta,
    random_disjoint_family,
    random_maximal_family,
    theorem41_gap,
    theorem42_gap,
    verify_suite,
)

from .search import (
    STUDY_CSV_HEADER,
    SearchReport,
    brute_force_oracle,
    convergence_study,
    leaf_maximal,
    leaf_objective,
    local_search,
    project_to_moments,
    study_to_csv,
)

__version__ = "0.1.0"
