"""The package's public surface: what `from cuspcovers import *` binds.

Reference oracles (brute-force sublattice listing, trace-power and index
formulas, Hermite-reduced lattice constructors, the exact ceiling and the
expansion step on plain (p, d, q) ints) live in tests/helpers.py, not in
the package.  `expand` takes the monodromy and returns the preperiod length
and the period's flat blocks as a plain int and tuple, so no
quadratic-irrational or expansion type is exported.
Names that only tests and package internals use stay out of the root:
`IDENTITY` and `is_prime` live in `cuspcovers.matrices` and
`cuspcovers.intmath`, the lattice-membership test is the private
`covers._contains`, and Z^2 as a lattice is `Lattice2(1, 0, 1)`.
"""

import importlib
import re
from pathlib import Path

import cuspcovers
from cuspcovers import Certificate, CoverRecord, Cycle, Lattice2, dual_cycle

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
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

MOVED_OR_DELETED = [
    "CFExpansion",
    "FULL_LATTICE",
    "IDENTITY",
    "QuadIrr",
    "ceil_quad",
    "contains",
    "contains_lattice",
    "fixed_point",
    "hermite_normal_form",
    "index_formula",
    "is_invariant",
    "is_prime",
    "is_purely_periodic",
    "sublattices_of_index",
    "trace_power_polynomial",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 27
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
    for name in ("FULL_LATTICE", "contains", "_build_record"):
        assert not hasattr(cuspcovers.covers, name), name
    assert not hasattr(cuspcovers.intmath, "xgcd")


def test_lattice_has_no_hermite_constructors():
    assert not hasattr(Lattice2, "from_basis")
    assert not hasattr(Lattice2, "from_columns")


def test_records_certificates_and_cycles_hold_no_derived_views():
    # A dual is built by dual_cycle(x.cycle) and a cycle's flat blocks are
    # c.word * c.copies; no member repeats either call.
    assert not hasattr(CoverRecord, "dual")
    assert not hasattr(Certificate, "dual")
    assert not hasattr(Cycle, "blocks")
    assert not hasattr(Cycle((3, 2, 4)), "blocks")
    for module in (cuspcovers.covers, cuspcovers.verifier):
        assert not hasattr(module, "dual_cycle"), module.__name__


def test_readme_layout_lists_each_module_all():
    # Each `cuspcovers.<module>` row of README's Layout table ends in its
    # "public names" column, which must be that module's __all__.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `cuspcovers."):
            cells = line.strip("|").split("|")
            rows[cells[0].strip(" `")] = set(re.findall(r"`([^`]+)`", cells[-1]))
    modules = ["cfrac", "cli", "covers", "cycles", "intmath", "matrices", "verifier"]
    assert sorted(rows) == [f"cuspcovers.{m}" for m in modules]
    for name, names in rows.items():
        assert names == set(importlib.import_module(name).__all__), name


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library in one minute", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    assert len(namespace["records"]) == 58
    assert namespace["cert"].verdict == "NO_CI_COVER"
    assert len(namespace["dual"]) == len(dual_cycle(namespace["cert"].cycle)) == 19
