"""SAT decision by fully-populated-clause elimination, with a brute-force
oracle, cardinality-based preprocessing, and a scaling benchmark harness."""

from .core import (
    Assignment,
    Clause,
    Formula,
    Literal,
    VariableSet,
    are_siblings,
    evaluate_clause,
    evaluate_formula,
    is_fully_populated,
    is_tautology,
    normalize,
    variables_of,
)
from .dimacs import DimacsDocument, parse_dimacs, write_dimacs, write_result
from .oracle import brute_force_sat, complete_formula, condition_check, enumerate_fpcs
from .solver import SolveConfig, SolveResult, check_sat, model_from_fpc
from .tree import FpcTree

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "Clause",
    "Formula",
    "Literal",
    "VariableSet",
    "are_siblings",
    "brute_force_sat",
    "check_sat",
    "complete_formula",
    "condition_check",
    "DimacsDocument",
    "enumerate_fpcs",
    "evaluate_clause",
    "evaluate_formula",
    "FpcTree",
    "is_fully_populated",
    "is_tautology",
    "model_from_fpc",
    "normalize",
    "parse_dimacs",
    "SolveConfig",
    "SolveResult",
    "variables_of",
    "write_dimacs",
    "write_result",
]
