"""Exact arithmetic for Dirichlet L-values and Dirichlet J-spectrum homotopy tables."""

from .exactalg import IntMatrix
from .homotopy import AbelianGroupExpr, LocalizationSpec

__all__ = [
    "IntMatrix",
    "AbelianGroupExpr",
    "LocalizationSpec",
]
