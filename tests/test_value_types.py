"""The value types `Mat2`, `Lattice2`, `CoverRecord` and `Certificate` are
NamedTuples: the same field names, text and immutability as frozen
dataclasses, the same checks on construction, and tuple equality,
unpacking, length and order.  A `Cycle` is a frozen dataclass, immutable
too."""

import copy
import pickle

import pytest

from cuspcovers import HAS_CI_COVER, NO_CI_COVER, Certificate, CoverRecord, Lattice2, Mat2, enumerate_covers, verify
from cuspcovers.cycles import Cycle

PAPER_A = Mat2(1640, 221, -141, -19)
FIBER = Lattice2(1619, 1527, 1)
INDUCED = Mat2(216947, 204637, -228279, -215326)
RECORD_REPR = (
    "CoverRecord(base_degree=1, fiber=Lattice2(x=1619, y=1527, z=1),"
    " induced=Mat2(a=216947, b=204637, c=-228279, d=-215326),"
    " cycle=Cycle((2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 4, 2, 3, 3)))"
)


def flagship_record() -> CoverRecord:
    return enumerate_covers(PAPER_A, 1)[1]


def test_text_and_fields_are_those_of_the_dataclasses():
    assert repr(PAPER_A) == "Mat2(a=1640, b=221, c=-141, d=-19)"
    assert str(PAPER_A) == "[[1640, 221], [-141, -19]]"
    lat = Lattice2(811, 183, 1)
    assert repr(lat) == "Lattice2(x=811, y=183, z=1)"
    assert str(lat) == "<(811,0), (183,1)>"
    rec = flagship_record()
    assert rec == CoverRecord(1, FIBER, INDUCED, rec.cycle)
    assert repr(rec) == str(rec) == RECORD_REPR
    assert Mat2._fields == ("a", "b", "c", "d")
    assert Lattice2._fields == ("x", "y", "z")
    assert CoverRecord._fields == ("base_degree", "fiber", "induced", "cycle")
    assert Certificate._fields == ("monodromy", "cycle", "covers", "witness")
    cert = verify(PAPER_A)
    assert repr(cert) == (
        f"Certificate(monodromy={PAPER_A!r}, cycle={cert.cycle!r}, covers={cert.covers!r}, witness=None)"
    )
    assert (PAPER_A.trace, PAPER_A.det, lat.index, lat.basis) == (1621, 1, 811, Mat2(811, 183, 0, 1))


def test_values_are_immutable():
    rec = flagship_record()
    values = ((PAPER_A, "a"), (FIBER, "y"), (rec, "cycle"), (verify(PAPER_A), "witness"), (rec.cycle, "copies"))
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            value.extra = 0
        with pytest.raises(AttributeError):
            delattr(value, field)
        if not isinstance(value, Cycle):  # a frozen dataclass keeps its __dict__
            assert not hasattr(value, "__dict__")


def test_equal_values_hash_alike_and_equal_plain_tuples():
    rec = flagship_record()
    assert Mat2(2, 1, 1, 1) == Mat2(2, 1, 1, 1) == (2, 1, 1, 1)
    assert hash(Mat2(2, 1, 1, 1)) == hash((2, 1, 1, 1))
    assert FIBER == Lattice2(1619, 1527, 1) == (1619, 1527, 1)
    assert hash(FIBER) == hash(Lattice2(1619, 1527, 1))
    assert len({rec, CoverRecord(*rec), CoverRecord(1, FIBER, INDUCED, Cycle(rec.cycle.entries))}) == 1
    assert Mat2(2, 1, 1, 1) != Mat2(1, 1, 1, 2)
    assert Lattice2(1, 0, 2) != Lattice2(2, 0, 1)
    cert = verify(PAPER_A)
    assert cert == verify(PAPER_A) == (PAPER_A, cert.cycle, tuple(enumerate_covers(PAPER_A)), None)
    assert hash(cert) == hash(tuple(cert))


def test_values_unpack_have_a_length_and_order_as_tuples():
    a, b, c, d = PAPER_A
    assert (a, b, c, d) == PAPER_A.entries() and len(PAPER_A) == 4
    degree, (x, y, z), induced, cycle = rec = flagship_record()
    assert (degree, x * z, induced, cycle) == (1, rec.fiber.index, INDUCED, rec.cycle)
    assert len(FIBER) == 3 and len(rec) == 4
    monodromy, cycle, covers, witness = cert = verify(PAPER_A)
    assert (monodromy, covers[1], witness, len(cert)) == (PAPER_A, rec, None, 4)
    assert cycle == cert.cycle and cert.verdict == NO_CI_COVER
    assert Certificate(monodromy, cycle, covers, 0).verdict == HAS_CI_COVER
    # Tuple order is lexicographic in (x, y, z); the fiber order is sort_key's.
    lats = [Lattice2(2, 1, 1), Lattice2(1, 0, 3), Lattice2(1, 0, 2)]
    assert sorted(lats) == [Lattice2(1, 0, 2), Lattice2(1, 0, 3), Lattice2(2, 1, 1)]
    assert sorted(lats, key=Lattice2.sort_key) == [Lattice2(1, 0, 2), Lattice2(2, 1, 1), Lattice2(1, 0, 3)]
    assert Mat2(1, 2, 3, 4) < Mat2(1, 2, 4, 0)


@pytest.mark.parametrize("triple", [(0, 0, 1), (2, 2, 1), (2, -1, 1), (3, 1, 0), (-1, 0, 1)])
def test_lattice_rejects_triples_not_in_hermite_normal_form(triple):
    message = f"not a Hermite normal form triple: {triple}"
    x, y, z = triple
    with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
        Lattice2(*triple)
    with pytest.raises(ValueError, match="not a Hermite normal form triple"):
        Lattice2(x=x, y=y, z=z)
    with pytest.raises(ValueError, match="not a Hermite normal form triple"):
        Lattice2._make(triple)
    with pytest.raises(ValueError, match="not a Hermite normal form triple"):
        Lattice2(5, 1, 1)._replace(x=x, y=y, z=z)


def test_record_rejects_an_induced_action_of_determinant_other_than_one():
    cycle = flagship_record().cycle
    message = r"induced action \[\[2, 1\], \[1, 2\]\] has determinant 3, not 1"
    with pytest.raises(ValueError, match=message):
        CoverRecord(1, FIBER, Mat2(2, 1, 1, 2), cycle)
    with pytest.raises(ValueError, match=message):
        CoverRecord(base_degree=1, fiber=FIBER, induced=Mat2(2, 1, 1, 2), cycle=cycle)
    with pytest.raises(ValueError, match=message):
        CoverRecord(1, FIBER, INDUCED, cycle)._replace(induced=Mat2(2, 1, 1, 2))
    with pytest.raises(ValueError, match="has determinant -1, not 1"):
        CoverRecord._make((1, FIBER, Mat2(0, 1, 1, 0), cycle))
    # Any 4-sequence is checked: the message computes its own determinant.
    with pytest.raises(ValueError, match=r"induced action \(2, 1, 1, 2\) has determinant 3, not 1"):
        CoverRecord(1, FIBER, (2, 1, 1, 2), cycle)


def test_values_survive_pickle_and_copy():
    rec = flagship_record()
    for value in (PAPER_A, FIBER, rec, enumerate_covers(PAPER_A, 4), verify(PAPER_A)):
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value and type(clone) is type(value)
    assert type(pickle.loads(pickle.dumps(rec)).fiber) is Lattice2
