"""Finite Coxeter groups and their descent algebras over exact rationals."""

from .coxeter import CoxeterSystem, Shape, build_system
from .algebra import (
    DescentVector,
    basis_x,
    basis_xprime,
    basis_y,
    multiply,
    oracle_multiply,
    unit,
)
from .exprs import parse_expression
from . import errors

__all__ = [
    "CoxeterSystem",
    "DescentVector",
    "Shape",
    "basis_x",
    "basis_xprime",
    "basis_y",
    "build_system",
    "errors",
    "multiply",
    "oracle_multiply",
    "parse_expression",
    "unit",
]

__version__ = "0.1.0"
