"""Exact-arithmetic classification of Galois covers of cusp singularity links.

The link of a cusp singularity is a torus bundle over the circle whose
monodromy is an SL(2, Z) matrix of trace at least 3.  This package computes
resolution cycles and their duals by minus-sign continued fractions,
enumerates the fibers of all normal Galois covers up to base degree 4, and
certifies whether any cover is a complete intersection, everything in
unbounded integer arithmetic.
"""

from .cfrac import (
    CFExpansion,
    ExpansionError,
    QuadIrr,
    ceil_quad,
    expand,
    fixed_point,
    is_purely_periodic,
    step,
)
from .covers import (
    FULL_LATTICE,
    CoverRecord,
    Lattice2,
    contains,
    contains_lattice,
    enumerate_covers,
    induced_action,
    invariant_sublattices_between,
    is_invariant,
    prime_index_invariant_lattices,
    sublattices_of_index,
)
from .cycles import (
    Cycle,
    canonicalize,
    cycle_of,
    dual_cycle,
    dual_length,
    is_ci_link,
    monodromy_of,
)
from .intmath import is_prime, solve_quadratic_congruence
from .matrices import (
    IDENTITY,
    Mat2,
    conjugate,
    hermite_normal_form,
    index_formula,
    inverse,
    mul,
    power,
    trace_power_polynomial,
)
from .verifier import (
    HAS_CI_COVER,
    NO_CI_COVER,
    Certificate,
    admissible_traces,
    candidate_matrices,
    verify,
    verify_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "CFExpansion",
    "Certificate",
    "CoverRecord",
    "Cycle",
    "ExpansionError",
    "FULL_LATTICE",
    "HAS_CI_COVER",
    "IDENTITY",
    "Lattice2",
    "Mat2",
    "NO_CI_COVER",
    "QuadIrr",
    "admissible_traces",
    "candidate_matrices",
    "canonicalize",
    "ceil_quad",
    "conjugate",
    "contains",
    "contains_lattice",
    "cycle_of",
    "dual_cycle",
    "dual_length",
    "enumerate_covers",
    "expand",
    "fixed_point",
    "hermite_normal_form",
    "index_formula",
    "induced_action",
    "invariant_sublattices_between",
    "inverse",
    "is_ci_link",
    "is_invariant",
    "is_prime",
    "is_purely_periodic",
    "monodromy_of",
    "mul",
    "power",
    "prime_index_invariant_lattices",
    "solve_quadratic_congruence",
    "step",
    "sublattices_of_index",
    "trace_power_polynomial",
    "verify",
    "verify_cycle",
]
