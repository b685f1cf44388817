"""Exact-arithmetic classification of Galois covers of cusp singularity links.

The link of a cusp singularity is a torus bundle over the circle whose
monodromy is an SL(2, Z) matrix of trace at least 3.  This package computes
resolution cycles and their duals by minus-sign continued fractions,
enumerates the fibers of all normal Galois covers up to base degree 4, and
certifies whether any cover is a complete intersection, everything in
unbounded integer arithmetic.
"""

# The root re-exports each module's __all__, cli's aside: `import cuspcovers` leaves cli unloaded.
from . import cfrac, covers, cycles, intmath, matrices, verifier
from .cfrac import *
from .covers import *
from .cycles import *
from .intmath import *
from .matrices import *
from .verifier import *

__version__ = "0.1.0"

__all__ = [name for module in (cfrac, covers, cycles, intmath, matrices, verifier) for name in module.__all__]
