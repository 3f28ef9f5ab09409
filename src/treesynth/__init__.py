"""Sparse graph synthesis with maximum weighted tree-connectivity.

The package selects k edges from a candidate pool (or prunes k edges
from a dense graph) so that the weighted number of spanning trees of
the result is near-maximal. A greedy selector carries the classic
submodular approximation guarantee; a determinant-maximization
relaxation plus rounding gives a second design and, together with the
greedy bound, a posterior certificate sandwiching the unknown optimum.
"""

from .certificates import (
    GREEDY_FACTOR,
    CertificateBundle,
    GapReport,
    build_bundle,
    certify,
    gap_for_design,
)
from .convex import (
    RandomizedRounding,
    RelaxedSolution,
    laplacian_of_pi,
    project_capped_simplex,
    relaxed_objective_and_gradient,
    round_deterministic,
    round_randomized,
    solve_p2,
    solve_p3,
)
from .errors import (
    ArgumentError,
    ConvergenceError,
    DataError,
    InfeasibleError,
    NumericalError,
    SizeGuardError,
    TreesynthError,
)
from .graphs import (
    EdgeSelectionInstance,
    ReducedLaplacian,
    WeightedGraph,
    build_reduced_laplacian,
    instance_from_json_dict,
    instance_to_json_dict,
    is_connected,
    load_instance,
    random_instance,
    reduce_removal_to_addition,
    removal_set_from_addition,
    save_instance,
)
from .greedy import (
    GainFunction,
    SelectionResult,
    exhaustive_select,
    gain_function,
    greedy_select,
    greedy_to_threshold,
)
from .slam import (
    LoadReport,
    PoseGraphDataset,
    dopt_proxy,
    find_dataset,
    parse_g2o,
    to_instance,
)
from .treeconn import (
    batch_effective_resistance,
    count_spanning_trees_bruteforce,
    effective_resistance,
    tree_connectivity,
    tree_connectivity_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CertificateBundle",
    "ConvergenceError",
    "DataError",
    "EdgeSelectionInstance",
    "GainFunction",
    "GapReport",
    "GREEDY_FACTOR",
    "InfeasibleError",
    "LoadReport",
    "NumericalError",
    "PoseGraphDataset",
    "RandomizedRounding",
    "ReducedLaplacian",
    "RelaxedSolution",
    "SelectionResult",
    "SizeGuardError",
    "TreesynthError",
    "WeightedGraph",
    "batch_effective_resistance",
    "build_bundle",
    "build_reduced_laplacian",
    "certify",
    "count_spanning_trees_bruteforce",
    "dopt_proxy",
    "effective_resistance",
    "exhaustive_select",
    "find_dataset",
    "gain_function",
    "gap_for_design",
    "greedy_select",
    "greedy_to_threshold",
    "instance_from_json_dict",
    "instance_to_json_dict",
    "is_connected",
    "laplacian_of_pi",
    "load_instance",
    "parse_g2o",
    "project_capped_simplex",
    "random_instance",
    "reduce_removal_to_addition",
    "relaxed_objective_and_gradient",
    "removal_set_from_addition",
    "round_deterministic",
    "round_randomized",
    "save_instance",
    "solve_p2",
    "solve_p3",
    "to_instance",
    "tree_connectivity",
    "tree_connectivity_spectral",
]
