"""Exact weight-3/2 modular form bases from definite quaternion algebras.

Given an odd square-free level and a rational weight-2 newform with
nonvanishing central L-value, this package computes the two-dimensional
space of half-integral-weight cusp forms attached to it: the first basis
element g is an eigenvector combination of ternary theta series of
ideal-class orders, and the second element h is assembled from g by an
exact coefficient recursion.  Everything runs over the rationals; no
floating point enters any published coefficient.
"""

from .brandt import (
    Eigenform,
    IdealClassSet,
    cuspidal_eigenlines,
    equivalent_ideals,
    ideal_classes,
    rational_eigenlines,
)
from .errors import (
    AmbiguousSelectorError,
    ComputationError,
    ConfigurationError,
    EvenRootNumberError,
    HalfIntError,
    IntegralityError,
    IrrationalEigenspaceError,
    MissingEigenvalueError,
    NewformFileError,
    PrecisionError,
    SelectorNotFoundError,
    ZeroFormError,
)
from .lattice import Lattice4, Order, eichler_order, maximal_order
from .lift import LiftProfile, assemble_h, kronecker_gate, power_sums
from .qexp import QExpansion
from .quat import Quat, QuaternionAlgebra, algebra_ramified_at
from .theta import (
    TernaryLattice,
    deep_coefficients,
    hecke_check,
    kohnen_form,
    ternary_theta,
    trace_zero_lattice,
)
from .cli import JobConfig, kohnen_basis, main

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSelectorError",
    "ComputationError",
    "ConfigurationError",
    "Eigenform",
    "EvenRootNumberError",
    "HalfIntError",
    "IdealClassSet",
    "IntegralityError",
    "IrrationalEigenspaceError",
    "JobConfig",
    "Lattice4",
    "LiftProfile",
    "MissingEigenvalueError",
    "NewformFileError",
    "Order",
    "PrecisionError",
    "QExpansion",
    "Quat",
    "QuaternionAlgebra",
    "SelectorNotFoundError",
    "TernaryLattice",
    "ZeroFormError",
    "algebra_ramified_at",
    "assemble_h",
    "cuspidal_eigenlines",
    "deep_coefficients",
    "eichler_order",
    "equivalent_ideals",
    "f1_f2_diagnostic",
    "global_factor",
    "hecke_check",
    "ideal_classes",
    "ingest_newform",
    "kohnen_basis",
    "kohnen_form",
    "kronecker_gate",
    "local_K",
    "main",
    "maximal_order",
    "power_sums",
    "rational_eigenlines",
    "ternary_theta",
    "trace_zero_lattice",
]

# loaded on first use, since a basis job needs neither: the float
# diagnostics and the newform-file parser
_LOCALFACTORS = ("f1_f2_diagnostic", "global_factor", "local_K")


def __getattr__(name: str):
    if name in _LOCALFACTORS:
        from . import localfactors

        return getattr(localfactors, name)
    if name == "ingest_newform":
        from .pins import ingest_newform

        return ingest_newform
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
