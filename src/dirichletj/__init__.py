"""Exact arithmetic for Dirichlet L-values and Dirichlet J-spectrum homotopy tables."""

from .exactalg import AbelianGroupExpr
from .homotopy import LocalizationSpec

__all__ = [
    "AbelianGroupExpr",
    "LocalizationSpec",
]
