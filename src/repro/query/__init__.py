"""Query model: graphs, selectivity/output-size estimation, hard instances."""

from .graph import QUERY_BUILDERS, QueryGraph
from .hardness import ProblemInstance, hard_instance, planted_instance
from .io import load_instance, query_from_dict, query_to_dict, save_instance
from .selectivity import (
    density_for_solutions,
    expected_solutions,
    expected_solutions_acyclic,
    expected_solutions_clique,
    pairwise_selectivity,
    problem_size_bits,
)

__all__ = [
    "QueryGraph",
    "QUERY_BUILDERS",
    "query_to_dict",
    "query_from_dict",
    "save_instance",
    "load_instance",
    "ProblemInstance",
    "hard_instance",
    "planted_instance",
    "pairwise_selectivity",
    "expected_solutions",
    "expected_solutions_acyclic",
    "expected_solutions_clique",
    "density_for_solutions",
    "problem_size_bits",
]
