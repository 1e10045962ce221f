"""Exact workbench for half-derivation spaces and transposed Poisson products."""

from .basis import BasisIndex, Family, Scalar, as_scalar, bidx
from .core import ParseError, parse_element, render
from .element import Element, element_combine

__version__ = "0.1.0"

__all__ = [
    "BasisIndex",
    "Element",
    "Family",
    "ParseError",
    "Scalar",
    "as_scalar",
    "bidx",
    "element_combine",
    "parse_element",
    "render",
    "__version__",
]
