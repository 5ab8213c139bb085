"""Lower bounds for the chromatic sum and chromatic number of a graph.

The pipeline computes the stability number, enumerates the maximum
independent sets, measures how many of them can be pairwise disjoint, and
feeds those counts into closed-form bounds obtained from a relaxed
partition problem over color class sizes.
"""

from .bounds import (
    REPORT_SCHEMA,
    BoundReport,
    PipelineConfig,
    choose_s_lower,
    compute_bounds_pipeline,
    compute_m,
    lb_chi,
    lbm_sigma,
    sigma_m,
    sigma_m0,
)
from .cache import SolveCache, default_cache_dir
from .fixtures import ReferenceRow, compare_report, get_row, rows_in_tier
from .graph import DimacsError, Graph, parse_dimacs, read_dimacs, write_dimacs
from .instances import (
    board_symmetries,
    can_generate,
    generate,
    insertions_graph,
    myciel_graph,
    mycielskian,
    queen_graph,
)
from .misgraph import MisGraph, alpha_tilde, build_mis_graph
from .partitions import (
    BoundParams,
    InfeasibleParamsError,
    IntegerPartition,
    LatticeDag,
    change,
    cost,
    enumerate_admissible,
    is_admissible,
    lattice_dag,
    oracle_min,
    predecessors,
    successors,
)
from .stable import (
    AlphaResult,
    Budget,
    EnumerationResult,
    enumerate_maximum_independent_sets,
    max_independent_set,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult",
    "BoundParams",
    "BoundReport",
    "Budget",
    "DimacsError",
    "EnumerationResult",
    "Graph",
    "InfeasibleParamsError",
    "IntegerPartition",
    "LatticeDag",
    "MisGraph",
    "PipelineConfig",
    "REPORT_SCHEMA",
    "ReferenceRow",
    "SolveCache",
    "alpha_tilde",
    "board_symmetries",
    "build_mis_graph",
    "can_generate",
    "change",
    "choose_s_lower",
    "compare_report",
    "compute_bounds_pipeline",
    "compute_m",
    "cost",
    "default_cache_dir",
    "enumerate_admissible",
    "enumerate_maximum_independent_sets",
    "generate",
    "get_row",
    "insertions_graph",
    "is_admissible",
    "lattice_dag",
    "lb_chi",
    "lbm_sigma",
    "max_independent_set",
    "myciel_graph",
    "mycielskian",
    "oracle_min",
    "parse_dimacs",
    "predecessors",
    "queen_graph",
    "read_dimacs",
    "rows_in_tier",
    "sigma_m",
    "sigma_m0",
    "successors",
    "write_dimacs",
    "__version__",
]
