"""Exact arithmetic for Dirichlet L-values and Dirichlet J-spectrum homotopy tables."""

from .homotopy import AbelianGroupExpr, LocalizationSpec

__all__ = [
    "AbelianGroupExpr",
    "LocalizationSpec",
]
