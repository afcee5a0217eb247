"""Exact cuts and size-constrained partitions of point multisets on a line."""

from .errors import (
    InstanceEmpty,
    InternalInconsistency,
    InvalidGenSpec,
    InvalidK,
    InvalidProfile,
    LinecutError,
    ParseError,
    PrecisionError,
    RangeError,
    TooLargeForOracle,
    UnsupportedProblem,
)
from .formats import format_value, parse_instance, render_instance, render_solution
from .gen import GenKind, GenSpec, SplitMix64, derive_seed, generate
from .model import (
    CompressedInstance,
    Instance,
    Objective,
    ProblemSpec,
    Solution,
    complement_profile,
    compress,
    cut_value_naive,
    cut_value_sweep,
    validate_profile,
)
from .oracle import best_threshold, oracle_solve
from .solver import solve

__version__ = "1.0.0"

__all__ = [
    "CompressedInstance",
    "GenKind",
    "GenSpec",
    "Instance",
    "InstanceEmpty",
    "InternalInconsistency",
    "InvalidGenSpec",
    "InvalidK",
    "InvalidProfile",
    "LinecutError",
    "Objective",
    "ParseError",
    "PrecisionError",
    "ProblemSpec",
    "RangeError",
    "SplitMix64",
    "Solution",
    "TooLargeForOracle",
    "UnsupportedProblem",
    "best_threshold",
    "complement_profile",
    "compress",
    "cut_value_naive",
    "cut_value_sweep",
    "derive_seed",
    "format_value",
    "generate",
    "oracle_solve",
    "parse_instance",
    "render_instance",
    "render_solution",
    "solve",
    "validate_profile",
]
