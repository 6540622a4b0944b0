"""degseq: samplers, coupling, and exact verification for degree-constrained random graphs."""

from .graphs import (
    DegenerateSequenceError,
    DegreeSequence,
    DegreeStats,
    NonGraphicalError,
    SimpleGraph,
    SymmetricProbMatrix,
    acceptance_matrix,
    chung_lu_matrix,
    degree_stats,
    f_c_transform,
    hadamard,
    is_graphical,
    p_matrix,
    q_matrix,
)
from .oracle import (
    GraphFamily,
    OracleCapError,
    count_graphs,
    enumerate_graphs,
    exact_edge_marginals,
    exact_subgraph_law,
    exact_uniform_sample,
)
from .randomness import AliasTable, RandomSource, sample_poisson
from .samplers import (
    SamplerDiagnostics,
    SeqSampleMode,
    sample_gnw,
    seq_approx_p,
    seq_sample_d,
)
from .coupling import (
    CouplingParams,
    CouplingTrace,
    EtaDenominatorMode,
    default_params,
    eta_denominator,
    lower_law,
    rho,
    run_coupling,
)
from .stats import (
    THRESHOLDS,
    VerifyThresholds,
    chi_square_gof,
    compare_w_to_fcp,
    degree_concentration_check,
    empirical_marginals,
    pairwise_covariance,
    pearson_chi_square,
    subgraph_check,
)

__version__ = "0.1.0"
