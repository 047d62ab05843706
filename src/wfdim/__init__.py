"""Exact dimension and basis of the divisibility kernel

    W(f) = { p : deg p <= deg f - 2  and  f | f''p - f'p' }

computed three ways that must always agree: a brute-force kernel oracle, a
reduction to a derivative-interpolation problem at the simple roots, and the
closed-form classification by multiplicity configuration.

The top level holds the entry points; everything else is imported from its
submodule (``wfdim.bridge``, ``wfdim.zspace``, ``wfdim.approx``, ...).
"""

from .classify import WfReport, classify
from .errors import (
    CoincidentPointsError,
    DegreeTooSmallError,
    FieldMismatchError,
    HypothesisError,
    NoSimpleRootsError,
    NotDivisibleError,
    ParseError,
    PoleError,
    RouteDisagreementError,
)
from .fields import Field
from .poly import FactoredInput, Poly

__version__ = "0.1.0"

__all__ = [
    "CoincidentPointsError",
    "DegreeTooSmallError",
    "FactoredInput",
    "Field",
    "FieldMismatchError",
    "HypothesisError",
    "NoSimpleRootsError",
    "NotDivisibleError",
    "ParseError",
    "PoleError",
    "Poly",
    "RouteDisagreementError",
    "WfReport",
    "classify",
    "__version__",
]
