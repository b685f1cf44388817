"""Exact-arithmetic classification of Galois covers of cusp singularity links.

The link of a cusp singularity is a torus bundle over the circle whose
monodromy is an SL(2, Z) matrix of trace at least 3.  This package computes
resolution cycles and their duals by minus-sign continued fractions,
enumerates the fibers of all normal Galois covers up to base degree 4, and
certifies whether any cover is a complete intersection, everything in
unbounded integer arithmetic.
"""

from .cfrac import ExpansionError, expand, step
from .covers import (
    CoverRecord,
    Lattice2,
    enumerate_covers,
    induced_action,
    invariant_sublattices_between,
    prime_index_invariant_lattices,
)
from .cycles import (
    Cycle,
    cycle_of,
    dual_cycle,
    dual_length,
    is_ci_link,
    monodromy_of,
)
from .intmath import solve_quadratic_congruence
from .matrices import (
    Mat2,
    conjugate,
    inverse,
    mul,
    power,
)
from .verifier import (
    HAS_CI_COVER,
    NO_CI_COVER,
    Certificate,
    admissible_traces,
    candidate_matrices,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CoverRecord",
    "Cycle",
    "ExpansionError",
    "HAS_CI_COVER",
    "Lattice2",
    "Mat2",
    "NO_CI_COVER",
    "admissible_traces",
    "candidate_matrices",
    "conjugate",
    "cycle_of",
    "dual_cycle",
    "dual_length",
    "enumerate_covers",
    "expand",
    "induced_action",
    "invariant_sublattices_between",
    "inverse",
    "is_ci_link",
    "monodromy_of",
    "mul",
    "power",
    "prime_index_invariant_lattices",
    "solve_quadratic_congruence",
    "step",
    "verify",
]
