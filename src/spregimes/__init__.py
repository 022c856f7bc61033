"""Delineation of spatial regimes.

Jointly optimizes the membership of spatially connected regions and the
per-region linear-model coefficients so that the total sum of squared
residuals is minimized. Ships three solvers (two-stage K-Models, AZP,
Regional-K-Models), a synthetic lattice benchmark generator, evaluation
metrics, and a command-line harness.
"""

__version__ = "0.1.0"

from .exceptions import (
    DisconnectedGraphError,
    DuplicatePointsError,
    InitializationFailedError,
    MergeInfeasibleError,
    NumericalBreakdownError,
    SchemeInfeasibleError,
    SpatialRegimesError,
    TooFewObservationsError,
)
from .graph import (
    AdjacencyGraph,
    Partition,
    build_edge_list_graph,
    build_grid_graph,
    build_knn_graph,
    connected_components,
    grow_initial_partition,
    is_connected_subset,
    read_edge_list,
)
from .linreg import (
    Dataset,
    RegionModel,
    Scaler,
    add_unit,
    fit_ols,
    predict,
    region_ssr,
    remove_unit,
    ssr_decrease_if_removed,
    ssr_increase_if_added,
)
from .metrics import (
    EvaluationReport,
    coefficient_mae,
    entropy,
    evaluate,
    mutual_information,
    nmi,
    rand_index,
)
from .solvers import (
    SOLVERS,
    SolveResult,
    SolverConfig,
    kmodels_merge_stage,
    kmodels_partition_stage,
    solve_azp,
    solve_kmodels,
    solve_regional_kmodels,
    solve_with_restarts,
)
from .synthgen import (
    GroundTruth,
    SimulationSpec,
    assign_coefficients,
    generate_data,
    generate_ground_truth,
    generate_scheme,
    generate_suite,
)
