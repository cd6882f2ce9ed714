"""Fitting acyclic directed mixed graph models to binary data.

The package parametrizes the joint distribution of a binary vector
through conditional zero-probabilities indexed by the heads and tails
of an ADMG, evaluates joint probabilities through sparse
inclusion-exclusion matrices, and maximizes the multinomial likelihood
by block coordinate ascent: a damped Newton ascent with feasibility
backtracking on each vertex block, and damped Newton steps on a whole
district after every block cycle.
"""

from .data import Dataset, counts_for, load_data, save_data, simulate
from .fitting import (
    FitError,
    FitOptions,
    FitResult,
    fit,
    initialize,
    loglik,
    update_vertex,
    vertex_block,
)
from .graph import Admg, GraphError, format_graph, parse_graph, read_graph
from .heads import HeadTail, barren_blocks, head_partition, heads, is_head, tail
from .inference import (
    InferenceReport,
    deviance,
    dp_dq,
    fisher_information,
    information_criteria,
    report,
    standard_errors,
)
from .moebius import (
    DistrictMaps,
    Param,
    ParamTable,
    Parametrization,
    Term,
    enumerate_params,
    parametrization,
    prob_direct,
    prob_vector,
    q_from_p,
    state_index,
)
from .select import SearchResult, Step, neighbors, stepwise

__version__ = "0.1.0"

__all__ = [
    "Admg",
    "GraphError",
    "parse_graph",
    "format_graph",
    "read_graph",
    "HeadTail",
    "is_head",
    "tail",
    "heads",
    "barren_blocks",
    "head_partition",
    "Param",
    "ParamTable",
    "Term",
    "DistrictMaps",
    "Parametrization",
    "enumerate_params",
    "parametrization",
    "prob_vector",
    "prob_direct",
    "q_from_p",
    "state_index",
    "FitOptions",
    "FitResult",
    "FitError",
    "fit",
    "initialize",
    "loglik",
    "update_vertex",
    "vertex_block",
    "dp_dq",
    "fisher_information",
    "standard_errors",
    "deviance",
    "information_criteria",
    "InferenceReport",
    "report",
    "Step",
    "SearchResult",
    "neighbors",
    "stepwise",
    "Dataset",
    "load_data",
    "save_data",
    "simulate",
    "counts_for",
    "__version__",
]
