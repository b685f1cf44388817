"""The package's public surface: what `from cuspcovers import *` binds.

Reference oracles (brute-force sublattice listing, trace-power and index
formulas, Hermite-reduced lattice constructors, the exact ceiling and the
expansion step on plain (p, d, q) ints) live in tests/helpers.py, not in
the package.  `expand` takes the monodromy and returns (preperiod, period)
as plain tuples, so no quadratic-irrational or expansion type is exported.
"""

from pathlib import Path

import cuspcovers
from cuspcovers import Lattice2

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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
    "admissible_traces",
    "candidate_matrices",
    "conjugate",
    "contains",
    "cycle_of",
    "dual_cycle",
    "dual_length",
    "enumerate_covers",
    "expand",
    "induced_action",
    "invariant_sublattices_between",
    "inverse",
    "is_ci_link",
    "is_prime",
    "monodromy_of",
    "mul",
    "power",
    "prime_index_invariant_lattices",
    "solve_quadratic_congruence",
    "step",
    "verify",
]

MOVED_OR_DELETED = [
    "CFExpansion",
    "QuadIrr",
    "ceil_quad",
    "contains_lattice",
    "fixed_point",
    "hermite_normal_form",
    "index_formula",
    "is_invariant",
    "is_purely_periodic",
    "sublattices_of_index",
    "trace_power_polynomial",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 31
    assert sorted(cuspcovers.__all__) == PUBLIC


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from cuspcovers import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_oracles_and_wrappers_are_not_in_the_package_root():
    for name in MOVED_OR_DELETED:
        assert not hasattr(cuspcovers, name), name
    for name in ("CFExpansion", "QuadIrr", "fixed_point", "is_purely_periodic"):
        assert not hasattr(cuspcovers.cfrac, name), name


def test_lattice_has_no_hermite_constructors():
    assert not hasattr(Lattice2, "from_basis")
    assert not hasattr(Lattice2, "from_columns")


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    assert len(namespace["records"]) == 58
    assert namespace["cert"].verdict == "NO_CI_COVER"
    assert len(namespace["cert"].dual) == 19
