"""Exact computation of vertical-strip LLT polynomials from Schroeder paths.

The package computes the same symmetric function by three independent
routes (coloring enumeration, orientation e-expansion, axiomatic
recursion), verifies the linear relations tying them together on
exhaustive small instances, and derives the standard applications:
signed Schur expansions, transformed Hall-Littlewood polynomials, the
nabla images of e_n and p_n, and chromatic quasisymmetric functions.
"""

from .coeffring import CoeffQT
from .errors import (
    BelowDiagonal,
    BoundExceeded,
    DiagonalOnMainDiagonal,
    HasDiagonal,
    InvalidArgument,
    InvalidColoring,
    InvalidPath,
    InvalidStep,
    LLTError,
    NegativeExponentShift,
    NonTermination,
    NotDivisible,
    PointNotOnPath,
    SizeMismatch,
)
from .llt import (
    Orientation,
    asc_coloring,
    asc_orientation,
    chromatic,
    hrv,
    lambda_theta,
    llt,
    llt_via_orientations,
    orientation_e_expansion,
    orientations,
    swap_coloring,
)
from .memo import clear_caches
from .partitions import (
    conjugate,
    dominates,
    kostka,
    partitions_of,
    weak_compositions,
)
from .schroeder import (
    BounceData,
    DecoratedGraph,
    SchroederPath,
    area,
    bounce_at,
    dyck_star,
    enumerate_paths,
    graph,
    haglund_bounce,
    nu_alpha,
    p_mu,
    parse,
    reverse,
)
from .symfunc import SymFunc, straighten_schur

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
