"""Exact-arithmetic engine for bar constructions over operads.

Modules cover sparse linear algebra over Q and F_p, differential graded
modules with Koszul signs, Sigma_*-modules and operads, modules over
operads with their represented functors, the (iterated) bar complex,
the categorical bar construction, and normalized cochain algebras of
finite simplicial sets.
"""

from .dg import DegreeWindow, DgMap, DgModule, homology, suspension, tensor
from .linalg import CoeffField, SparseMatrix, homology_dimension, kernel_basis, rank
from .modules import DgAlgebra, check_algebra
from .bar import bar, bar_module, iterated_bar, shuffle_product

__all__ = [
    "CoeffField",
    "SparseMatrix",
    "rank",
    "kernel_basis",
    "homology_dimension",
    "DegreeWindow",
    "DgModule",
    "DgMap",
    "tensor",
    "suspension",
    "homology",
    "DgAlgebra",
    "check_algebra",
    "bar",
    "bar_module",
    "iterated_bar",
    "shuffle_product",
]

__version__ = "0.1.0"
