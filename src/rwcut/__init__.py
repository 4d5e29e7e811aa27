"""Random-walk MaxCut approximation suite with desk-scale exact oracles."""

from .bench import (
    PlantedInstance,
    brute_force_maxcut,
    gen_planted,
    greedy_cut,
    random_cut,
)
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidParamsError,
    ParseError,
    ResourceError,
    RwCutError,
)
from .graph import (
    EVEN,
    ODD,
    UNCLASSIFIED,
    CutMetrics,
    Tripartition,
    WeightedGraph,
    conductance,
    cut_metrics,
    cut_value,
    dump_graph,
    load_graph,
    read_partition,
    sample_vertex_by_degree,
    write_partition,
)
from .localcut import (
    LowConductanceCut,
    LSCurve,
    ProbabilityBound,
    build_ls_curve,
    cut_or_bound,
    ls_chord_check,
    solve_phi,
)
from .solver import (
    SolveReport,
    TradeoffPoint,
    balance_params,
    balance_solve,
    best_tradeoff,
    eps_bar,
    h_fn,
    simple_solve,
    tradeoff_objective,
)
from .spectral import (
    LaplacianOperator,
    power_laplacian_vector,
    sweep_cut_best,
    trevisan_baseline,
)
from .threshold import (
    AlgoParams,
    FindResult,
    SIGMA0,
    find_threshold,
    sigma_fn,
    sigma_inv,
    soto_fn,
    threshold_classify,
    walk_count,
)
from .walks import (
    WalkAccumulator,
    WalkConfig,
    WalkTally,
    exact_walk_distribution,
    run_walks,
    signed_estimates,
)

__version__ = "0.1.0"
