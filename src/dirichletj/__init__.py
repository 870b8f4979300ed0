"""Exact arithmetic for Dirichlet L-values and Dirichlet J-spectrum homotopy tables."""

from .exactalg import AbelianGroupExpr

__all__ = [
    "AbelianGroupExpr",
]
