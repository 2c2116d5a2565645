"""Exact computation of spin structures on 4-dimensional almost-flat manifolds."""

__version__ = "0.1.0"

__all__ = [
    "catalog",
    "chartables",
    "cli",
    "clifford",
    "errors",
    "fp",
    "groups",
    "holonomy",
    "intmat",
    "linalg",
    "oracles",
    "qsqrt2",
    "spin",
]
