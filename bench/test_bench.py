"""Tests of the benchmark's own parts: the tracer's exact counters for the
flagship, its patching, the correctness gate and the seeded sampler.

    python3 -m pytest bench
"""

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import cuspcovers  # noqa: E402
import cuspcovers.cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, PLAN, Tracer  # noqa: E402


def flagship_json() -> str:
    return cuspcovers.cli.certificate_to_json(cuspcovers.verify(cuspcovers.Mat2(*gate.FLAGSHIP)))


def test_flagship_counters():
    tracer = Tracer()
    tracer.install(cuspcovers)
    try:
        text = tracer.root("op", 0, flagship_json)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    doc = json.loads(text)
    assert Counter(r["degree"] for r in doc["covers"]) == {1: 2, 2: 8, 3: 16, 4: 32}
    assert m["covers.records"] == 58
    assert m["cycles.longest"] == 447
    assert m["intmath.solve_quadratic_congruence.calls"] == 26
    assert m["intmath.scan_residues"] == 24860
    assert m["cfrac.step.calls"] == 1673
    assert m["cli.json_bytes"] == 113514
    assert m["verifier.verify.calls"] == 1
    assert set(m) == {name for name, _ in LAYER_METRICS}
    assert all(m[name] >= 0 for name in m)
    # One root span per op; every other span has a parent and the op id.
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[3] for s in roots] == ["op"]
    assert all(s[2] == 0 for s in tracer.spans)


def test_install_wraps_every_binding_and_uninstall_restores():
    originals = {(mod, func): getattr(getattr(cuspcovers, mod), func) for mod, func, _ in PLAN}
    post_init = cuspcovers.Cycle.__post_init__
    tracer = Tracer()
    tracer.install(cuspcovers)
    try:
        for (mod, func), orig in originals.items():
            assert getattr(getattr(cuspcovers, mod), func) is not orig
        # Direct imports in other modules see the wrapper too.
        assert cuspcovers.covers.cycle_of is cuspcovers.cycles.cycle_of
        assert cuspcovers.verifier.is_prime is cuspcovers.intmath.is_prime
        assert cuspcovers.cycles.mul is cuspcovers.matrices.mul
        assert cuspcovers.verify is cuspcovers.verifier.verify
        assert cuspcovers.Cycle.__post_init__ is not post_init
    finally:
        tracer.uninstall()
    for (mod, func), orig in originals.items():
        assert getattr(getattr(cuspcovers, mod), func) is orig
    assert cuspcovers.covers.cycle_of is originals[("cycles", "cycle_of")]
    assert cuspcovers.Cycle.__post_init__ is post_init


def test_gate_accepts_flagship_and_rejects_tampering():
    text = flagship_json()
    assert gate.check(text, gate.FLAGSHIP, gate.FLAGSHIP_EXPECT) is None

    doc = json.loads(text)
    doc["witness"] = 0
    assert "witness" in gate.check(json.dumps(doc), gate.FLAGSHIP, gate.FLAGSHIP_EXPECT)

    doc = json.loads(text)
    doc["covers"][3]["dual"].pop()
    assert gate.check(json.dumps(doc), gate.FLAGSHIP, gate.FLAGSHIP_EXPECT) is not None

    doc = json.loads(text)
    doc["covers"].pop()
    assert "records" in gate.check(json.dumps(doc), gate.FLAGSHIP, gate.FLAGSHIP_EXPECT)


def test_stratified_draws_are_seeded_and_cover_every_cell():
    weights = [1.0] * 256
    a = workloads.stratified(weights, 1, 64, level=6)
    assert a == workloads.stratified(weights, 1, 64, level=6)
    assert a != workloads.stratified(weights, 2, 64, level=6)
    # Four items per cell: 64 draws take one item from every cell.
    assert sorted(i // 4 for i in a) == list(range(64))
