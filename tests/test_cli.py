import errno
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import types

import pytest

import cuspcovers.cli
import cuspcovers.covers
import cuspcovers.cycles
import cuspcovers.intmath
import cuspcovers.verifier
from cuspcovers import Certificate, CoverRecord, Cycle, Lattice2, cycle_of, dual_cycle, monodromy_of, verify
from cuspcovers.cfrac import expand
from cuspcovers.cli import certificate_to_json, certificate_to_text, main
from cuspcovers.cycles import _repeated
from cuspcovers.intmath import factorize
from cuspcovers.matrices import Mat2
from helpers import (
    REPO,
    certificate_to_json_oracle,
    conjugated,
    random_cycle,
    random_hyperbolic,
    random_unimodular,
    run_python,
    subprocess_env,
)


README = REPO / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every CLI output pin: (bytes, sha256, arguments) of one command's standard
# output.  A pin changes only in a change that alters output bytes on purpose.
PINS = [
    # verify --format json.  (1621) has long cycles; (2, 6, 2, 6), the census
    #   anchor with the most fibers, pins fiber order, HNF triples and induced
    #   entries, and has 3284 records, most of them sharing a cycle laid out once
    #   per document; (6661) has the longest cover cycles, of up to 26636 entries;
    #   [[1622, 3], [-541, -1]] shares expanded periods and induced matrices across
    #   fibers, for the writer's shared record heads; (2, 2, 2, 3) * 2 is two copies
    #   of the word (3, 3), so its covers' cycles are repetitions of repetitions.
    #   A degree-n cover's cycle is its fiber's word at n times the copies and
    #   (3, 3) is the word (3) twice: the writer lays out each word's text once per
    #   document, so (3, 3), (3, 4, 5) and (2, 2, 3, 2, 2, 2, 4) pin its repeated
    #   joins, and (3, 3) and (2, 2, 2, 3) * 2 are repetitions even at depth 1.
    #   (3, 4, 5) has no 2s, and the run of 2s of (2, 2, 3, 2, 2, 2, 4) wraps
    #   around, for the block writer of cycle arrays.  (2, 2, 5, 2, 6) is the one
    #   pinned document whose witness is an int (31, a degree-4 cover), not null.
    #   The flagship and (8, 2, 4, 3, 12) have conjugate monodromies, so their
    #   documents differ; every rotation of a cycle gives the latter's bytes.
    (1472822, "93336817cea8f367b1cd928345237646c444f24f4f9fcfc05cbb9164ad971a16", "verify -c 1621 --format json"),
    (3607301, "c353be6ccbfa34dd20d496d112428123d90af07e01637481fdb4da972b9db6b0", "verify -c 2,6,2,6 --format json"),
    (5911174, "13b290dd131ab24e4041aab70a87f26d957a64104928dbc2efa3fd10c95f17ff", "verify -c 6661 --format json"),
    (1155974, "82ab3726ee7cfc468b1906ff02c5161f16873350fa335f30ed70af372243b747", "verify -m 1622 3 -541 -1 --format json"),
    (1063452, "e6896416811a4608b45dcfd9d0357bcb552a11f0a34a23540bdfda4b133d3e84", "verify -c 2,2,2,3,2,2,2,3 --format json"),
    (22006, "926638c863a8cc3df9840f9862bb428a533e88edffd5d6ef8d0c1504fcb7a2f4", "verify -c 3,3 --format json"),
    (149691, "65e6b5936bfe606b75f2810ddda8ed423a9b74ea9dd6364afd19b30f47e8928b", "verify -c 3,4,5 --format json"),
    (112735, "86bb223cd874a11d6e39ca85d0f98929a22ce21efbb6809bb91c961fb43f745f", "verify -c 2,2,3,2,2,2,4 --format json"),
    (87128, "aa5fab68fbd027b5a63fd8ca6f5f8769a332def068469f39718166044218b771", "verify -c 2,2,5,2,6 --format json"),
    (113514, "eb14148b8187c3de0b3f2603659534eb85a73d0d2b9a3fc858e45120faf8eccc", "verify -m 1640 221 -141 -19 --format json"),
    (113604, "d07ed2f430cdeab43a0a621cbb25164a50aed558e3b306607c13340b79cf7620", "verify -c 8,2,4,3,12 --format json"),
    # verify, text.  (1621) prints its 1619-entry dual; the covers of
    #   [[200003, 1], [-1, 0]] expand periods of hundreds of thousands of digits,
    #   which the expansion run-length-codes into blocks as it steps.
    #   (2, 2, 4, 2, 5), (2, 2, 5, 2, 4), (2, 2, 2, 2, 3, 7) and (2, 2, 2, 2, 7, 3)
    #   are the four trace-63 classes, the smallest trace with no CI cover: the 72
    #   covers of each have cycle and dual length >= 5, so each prints NO_CI_COVER.
    #   CI also checks the flagship's text as printed by the installed console script.
    (8707, "ec2629e31aab0ecd3787b5aea1eb3cea9249b61582ee6226236493c8dfe558b8", "verify -c 1621"),
    (650480, "631b5a6366392f4970a3b6bdaf1e6ff4ffd14b4851b5185051f5cbc3d9cb0be4", "verify -m 200003 1 -1 0"),
    (4699, "184327a8701158389deebc903eb4751a6b874b90b0b97ba523630ead9e0267f0", "verify -c 2,2,4,2,5"),
    (4699, "5351f4ad24ce2c64f053c6faf3df4303740b30aae48cea61da1871721df8b4e3", "verify -c 2,2,5,2,4"),
    (4704, "97c4ac27f74430305ff7a6a5f59780dd78a292b7ef9d0759c494032b13a2f95d", "verify -c 2,2,2,2,3,7"),
    (4705, "842df3dfa46cdab49ae743edb02c1e704ee4641ba557aecc5c9809ffe45dd17c", "verify -c 2,2,2,2,7,3"),
    (3900, "13ca69390c316f8a2585352ada3cba25828cdb115610eb2168351650e806f02a", "verify -m 1640 221 -141 -19"),
    # cycle and dual read their entries through Cycle(entries), which reads them
    #   as blocks, wraps the 2s after the last entry >= 3 onto the first block and
    #   canonicalizes the blocks in Cycle.__post_init__.  The run of 2s of
    #   (2, 2, 3, 2, 2, 2, 4) wraps in its least rotation, (3, 2, 2, 4, 2, 2) ends
    #   in 2s, the dual of (6661) has 6659 entries, and (2, 2, 2, 3) * 2 is a
    #   repetition.
    (46, "060d747bc182c51afbe3ca1797ec7c469408c44c910973044189cae0e26a6fc4", "cycle -c 2,2,3,2,2,2,4"),
    (10, "6a029e7cc76db0218c79451bdb0e6252700e6a1902d1702e89d93d78af804be8", "dual -c 2,2,3,2,2,2,4"),
    (10, "335dd2e0c39aeab7ebb4987162edc7ec5d016f5dfa0bc8d7a479ba411d197986", "dual -c 3,2,2,4,2,2"),
    (19978, "9fdf8d955ad152fec02e71a45e16a3f0bf745b395ea6064045c055ff4d7fa605", "dual -c 6661"),
    (46, "88b7a92c21ca64011675720797378a9f994a02e4445852f4ea34cf81cdb976b0", "cycle -c 2,2,2,3,2,2,2,3"),
    # covers: a header line and the 3284 records of (2, 6, 2, 6), the fiber
    #   order, index and HNF triple of every fiber with no certificate around them.
    (203670, "9fd069fa2f34cacc56f143d290cc758503ead11a6a401b44f54dd07d3ef0ead9", "covers -c 2,6,2,6"),
    # search-traces: the 54 admissible traces up to 10**6, read from the prime
    #   sieve and rechecked by trial division.  search-matrix: the first 64
    #   candidates of trace 94441, the largest admissible trace below 10**5, from
    #   divisor pairs.
    (359, "e0d9f85a7b44814881fd53c0803eedd2c1ccad244c9c423ecb96a5a22b2140f5", "search-traces 1000000"),
    (1815, "e03f2fdf7559d9d01537db3a482a30024e12b258e3143c2284ba49f3c5dfb715", "search-matrix 94441 --limit 64"),
]


@pytest.mark.parametrize("size, digest, args", PINS, ids=[args for _, _, args in PINS])
def test_cli_output_is_pinned(capsys, size, digest, args):
    code, out, err = run_cli(capsys, *args.split())
    assert (code, err) == (0, "")
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
    if "--format json" in args:
        # The stdlib encoder's key-sorted indent-2 layout, as json.tool writes it;
        # compared outside the assert, since pytest's diff of megabyte documents
        # runs for minutes.
        stdlib_layout = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
        assert stdlib_layout


def test_cycle_command_text(capsys):
    code, out, err = run_cli(capsys, "cycle", "-m", "3", "1", "-1", "0")
    assert code == 0
    assert out == "cycle: (3)  dual: (3)\n"


def test_cycle_command_matrix_and_cycle_agree(capsys):
    _, out_m, _ = run_cli(capsys, "cycle", "-m", "1640", "221", "-141", "-19")
    _, out_c, _ = run_cli(capsys, "cycle", "-c", "8,2,4,3,12")
    assert out_m == out_c
    assert "cycle: (2, 4, 3, 12, 8)" in out_m


def test_monodromy_command(capsys):
    code, out, _ = run_cli(capsys, "monodromy", "-c", "3")
    assert code == 0
    assert out == "[[3, 1], [-1, 0]]\n"


def test_dual_command(capsys):
    code, out, _ = run_cli(capsys, "dual", "-c", "3")
    assert code == 0 and out == "(3)\n"
    code, out, _ = run_cli(capsys, "dual", "-c", "8,2,4,3,12")
    assert out.count("2") > 10  # nineteen entries, mostly twos


def test_verify_json_flagship(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-m", "1640", "221", "-141", "-19", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "NO_CI_COVER"
    assert doc["witness"] is None
    assert doc["trace"] == "1621"
    assert doc["cycle"] == [2, 4, 3, 12, 8]
    assert len(doc["dual_cycle"]) == 19
    assert doc["input"] == {"matrix": [1640, 221, -141, -19]}
    assert len(doc["covers"]) == 58
    rec = doc["covers"][0]
    assert set(rec) == {
        "degree", "fiber_index", "fiber_hnf", "induced",
        "cycle_len", "dual_len", "cycle", "dual",
    }
    assert rec["degree"] == 1 and rec["fiber_index"] == "1"
    assert rec["induced"] == ["1640", "221", "-141", "-19"]
    # degree-4 induced entries outgrow 32-bit consumers; strings keep them exact
    big = [r for r in doc["covers"] if r["degree"] == 4]
    assert any(abs(int(e)) > 2**31 for r in big for e in r["induced"])
    assert all(str(int(e)) == e for r in big for e in r["induced"])


def test_verify_json_deterministic_and_key_sorted(capsys):
    args = ("verify", "-c", "8,2,4,3,12", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second

    def sorted_pairs(pairs):
        keys = [k for k, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    # The hook sees every object, so keys are sorted at every depth.
    json.loads(first, object_pairs_hook=sorted_pairs)


def test_certificate_json_matches_stdlib_encoder():
    # The direct writer must give the bytes of json.dumps(sort_keys=True, indent=2).
    # It writes one head per (cycle, degree); `shares` counts the inputs with
    # a repeated cycle, whose later records take that head and write their
    # own fiber and induced action.
    shares = 0

    def same(cert):
        nonlocal shares
        assert certificate_to_json(cert) == certificate_to_json_oracle(cert)
        cycles = {r.cycle for r in cert.covers}
        # A degree-n record's cycle has the trace of A**n, so a cycle repeats
        # only within one degree, at another fiber: the (cycle, degree) head
        # key is then the cycle alone, and each dual is built once.
        assert len(cycles) == len({(r.cycle, r.base_degree) for r in cert.covers})
        shares += len(cycles) < len(cert.covers)
        return cert

    assert same(verify(Mat2(1640, 221, -141, -19))).witness is None  # the flagship
    same(verify(Mat2(1621, 1, -1, 0)))  # long cycles
    assert same(verify(Mat2(3, 1, -1, 0))).witness == 0
    # The canonical cycle (2, 2, 2, 4, 2, 2, 3) opens with a run of 2s.  A
    # canonical rotation never ends in 2 (it starts after an entry >= 3), so
    # the input matrix [[2, -3], [-1, 2]], which opens and closes with a 2 and
    # has negative entries, is the array that ends in a run of 2s.
    assert same(verify(monodromy_of((2, 2, 3, 2, 2, 2, 4)))).cycle.entries[:3] == (2, 2, 2)
    assert same(verify(Mat2(2, -3, -1, 2))).monodromy.entries() == (2, -3, -1, 2)
    # A seeded search for a witness that is a proper cover.
    rng = random.Random(2)
    while not (cert := verify(monodromy_of(random_cycle(rng, max_len=6, max_entry=4)))).witness:
        pass
    same(cert)

    # Long shear chains give degree-4 induced entries beyond 64 bits, of both signs.
    rng = random.Random(8)
    induced = []
    for _ in range(200):
        cert = same(verify(random_hyperbolic(rng, max_len=2, max_entry=5, shear_steps=48)))
        induced += [e for r in cert.covers if r.base_degree == 4 for e in r.induced.entries()]
    assert min(induced) < -(2**63) and max(induced) > 2**63
    assert shares > 0

    # A conjugate of (1622, 3, -541, -1), whose records share expanded periods
    # across fibers, with negative multi-digit induced entries at degree 4.
    cert = same(verify(conjugated(Mat2(1622, 3, -541, -1), random_unimodular(random.Random(5), steps=6))))
    assert cert.monodromy != Mat2(1622, 3, -541, -1)
    assert any(r.base_degree == 4 and min(r.induced.entries()) <= -10 for r in cert.covers)


def test_json_memos_keep_the_stdlib_bytes_for_shared_and_equal_values(monkeypatch):
    # The writer keeps one record head per (word, copies, degree) and writes
    # each word's text once, keyed by the word's value.  A hand-built
    # certificate whose records hold equal but distinct cycles, one cycle
    # object at several degrees, and one induced matrix at several fibers, as
    # one object and as an equal copy, must still give the stdlib encoder's
    # bytes.
    a = Mat2(1640, 221, -141, -19)
    cert = verify(a)
    first, second = cert.covers[:2]
    twin = Cycle(second.cycle.entries)
    assert twin == second.cycle and twin is not second.cycle
    ind = second.induced
    records = (
        first,
        second,
        CoverRecord(1, Lattice2(7, 3, 1), ind, twin),
        CoverRecord(2, Lattice2(7, 3, 5), Mat2(*ind), second.cycle),
        CoverRecord(2, Lattice2(1, 0, 9), ind, Cycle(twin.entries)),
        CoverRecord(3, Lattice2(1, 0, 1), first.induced, second.cycle),
    )
    for witness in (None, 2):
        hand = Certificate(a, cert.cycle, records, witness)
        assert certificate_to_json(hand) == certificate_to_json_oracle(hand)
    # The census shares one cycle object per (expanded period, degree), and
    # periods that are rotations of one another build equal cycles, so the
    # flagship's 58 records hold 39 cycle objects for 24 distinct cycles; the
    # writer, keyed by value and degree, writes one head per distinct cycle
    # (test_duals_are_built_only_on_demand counts the duals those heads build).
    assert len({r.cycle for r in cert.covers}) == 24
    shared: dict = {}
    for r in cert.covers:
        assert shared.setdefault((expand(r.induced)[1], r.base_degree), r.cycle) is r.cycle
    assert len(shared) == 39

    c = second.cycle
    lat = iter(Lattice2(x, y, z) for x in (1, 2, 3) for z in (1, 2, 3, 4) for y in range(x))
    # Degrees that run 1, 2, 1 over one cycle object: a head written at degree
    # 1 must not serve the degree-2 record, nor the degree-2 head the last one.
    runs = [CoverRecord(n, next(lat), ind, c) for n in (1, 1, 2, 1)]
    # One word at copies 1, 2 and 3: one word text, joined 1, 2 and 3 times.
    runs += [CoverRecord(n, next(lat), ind, _repeated(c, n)) for n in (1, 2, 3)]
    # One word at copies 1 and 2 at one degree: the head key holds the
    # copies, so the second record does not take the first one's head.
    runs += [CoverRecord(4, next(lat), ind, _repeated(c, n)) for n in (1, 2)]
    # Distinct cycles whose duals have equal words, in distinct tuples: each
    # dual is built once per cycle object and freed after its layout, so a
    # text keyed by the tuple's identity could be read for another word that
    # reuses the address.  The short cycles' duals are words of equal length.
    assert dual_cycle(c).word == dual_cycle(twin).word
    assert dual_cycle(c).word is not dual_cycle(twin).word
    runs += [CoverRecord(3, next(lat), ind, twin)]
    short = [Cycle((p, q)) for p in (3, 4, 5) for q in (3, 4, 5, 6) if p < q]
    runs += [CoverRecord(1, next(lat), ind, s) for s in short]
    runs += [CoverRecord(1, next(lat), ind, Cycle(s.entries)) for s in short]
    hand = Certificate(a, cert.cycle, tuple(runs), None)
    assert certificate_to_json(hand) == certificate_to_json_oracle(hand)

    # Word texts at depth 3 are written once per distinct word of the cover
    # cycles and their duals.
    texts = []
    word_text = cuspcovers.cli._word_text

    def counting(word, sep):
        texts.append(word)
        return word_text(word, sep)

    monkeypatch.setattr(cuspcovers.cli, "_word_text", counting)
    for doc in (cert, hand):
        texts.clear()
        certificate_to_json(doc)
        words = {r.cycle.word for r in doc.covers} | {dual_cycle(r.cycle).word for r in doc.covers}
        assert len(texts) == len(words) == len(set(texts))


def test_int_arrays_match_the_stdlib_layout_at_depths_1_to_3():
    # A Cycle is written from its blocks, each run of k 2s in one step, as
    # the certificate's own cycle and dual (depth 1) and as a record's cycle
    # and dual (depth 3); the input matrix is four ints at depth 2.
    # json.dumps writes one entry at a time, its nested lines indented by two
    # spaces per depth.
    rng = random.Random(103)
    values = (2, 2, 2, 3, -2, 0, 12, -7, 10**30)
    matrices = [Mat2(0, 0, 0, 0), Mat2(-2, -7, -1, -12), Mat2(*[10**30] * 4), Mat2(10**30, -2, 0, 12)]
    matrices += [Mat2(*(rng.choice(values) for _ in range(4))) for _ in range(100)]
    cycles = [Cycle((3,)), Cycle((2,) * 40 + (7,)), Cycle((3, 4, 5)), Cycle((2, 2, 3, 2, 2, 2, 4))]
    cycles += [random_cycle(rng, max_len=rng.randint(1, 30), max_entry=rng.choice((3, 4, 40))) for _ in range(300)]
    # A Cycle writes its word's text once and joins it `copies` times, so
    # repeated and non-primitive cycles must still give every entry.
    # (2, 2, 2, 3)^2 has the blocks (3, 3, 3, 3): its word is (3, 3), two copies.
    cycles += [_repeated(c, n) for c in cycles[:60] for n in (2, 3, 4)]
    cycles += [Cycle((2, 2, 2, 3) * 2), Cycle((3,) * 4), Cycle((3, 4, 3, 5)), _repeated(Cycle((2, 2, 2, 3) * 2), 3)]
    ind = Mat2(1640, 221, -141, -19)
    # 488 cycles, so every matrix is the input of some certificate.
    for i, c in enumerate(cycles):
        m = matrices[i % len(matrices)]
        for witness in (None, 0):
            cert = Certificate(m, c, (CoverRecord(1, Lattice2(1, 0, 1), ind, c),), witness)
            assert certificate_to_json(cert) == certificate_to_json_oracle(cert)


def test_certificate_with_no_covers_is_valid_json():
    # `verify` always yields the degree-1 record with fiber Z^2, but a
    # hand-built Certificate may hold no records: `covers` is then `[]`.
    for m in (Mat2(3, 1, -1, 0), Mat2(1640, 221, -141, -19)):
        cert = Certificate(m, cycle_of(m), (), None)
        text = certificate_to_json(cert)
        assert text == certificate_to_json_oracle(cert)
        assert json.loads(text)["covers"] == []


def test_text_certificate_of_a_long_cycle_is_pinned(capsys):
    # The text writer prints each cycle from its blocks.  (1621) prints the
    # 1619-entry dual of its cycle (1621): 1618 2s, then a 3.  Its bytes are
    # the `verify -c 1621` row of PINS.
    code, out, _ = run_cli(capsys, "verify", "-c", "1621")
    assert code == 0
    assert "\ndual:      (" + "2, " * 1618 + "3)\n" in out


def test_verify_rotations_of_a_cycle_give_one_certificate(capsys):
    # -c takes any rotation; the certificate echoes the monodromy of the
    # canonical rotation (2, 4, 3, 12, 8), so every rotation gives one document.
    _, first, _ = run_cli(capsys, "verify", "-c", "8,2,4,3,12", "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "-c", "2,4,3,12,8", "--format", "json")
    assert first == second
    assert json.loads(first)["input"] == {"matrix": [1749, 1013, -221, -128]}


def test_verify_text_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "-m", "3", "1", "-1", "0")
    assert code == 0
    assert "verdict: HAS_CI_COVER" in out
    assert "witness: degree 1" in out


def test_covers_command(capsys):
    code, out, _ = run_cli(capsys, "covers", "-m", "1640", "221", "-141", "-19",
                           "--max-degree", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two degree-1 covers
    assert lines[1].split()[:2] == ["1", "1"]
    assert lines[2].split()[:2] == ["1", "1619"]


def test_duals_are_built_only_on_demand(capsys, monkeypatch):
    # Records and certificates store no dual; only serializing one builds it,
    # through the writer's own dual_cycle binding.
    built = []

    def counting(c, dual_cycle=cuspcovers.cli.dual_cycle):
        built.append(c)
        return dual_cycle(c)

    # cli's own binding counts the writer's duals; the cycles binding counts
    # any dual that verify or enumerate_covers would build.
    monkeypatch.setattr(cuspcovers.cli, "dual_cycle", counting)
    monkeypatch.setattr(cuspcovers.cycles, "dual_cycle", counting)

    cert = verify(monodromy_of((8, 2, 4, 3, 12)))
    assert len(built) == 0
    certificate_to_text(cert)
    assert len(built) == 1
    # JSON builds one dual per record head, keyed by the cycle's value and
    # the degree, and the certificate's.  No cycle spans two degrees (its
    # trace is that of A**n), so that is one dual per distinct cover cycle;
    # the heads live for one call, so a second call builds them again.
    distinct = len({r.cycle for r in cert.covers})
    for _ in range(2):
        built.clear()
        certificate_to_json(cert)
        assert len(built) == 25 == distinct + 1  # 58 records share 24 cycles
    built.clear()
    code, _, _ = run_cli(capsys, "covers", "-c", "8,2,4,3,12")
    assert code == 0 and len(built) == 0

    assert "dual" not in cuspcovers.covers.CoverRecord._fields
    assert "dual" not in cuspcovers.verifier.Certificate._fields


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "verify", "-c", "3", "--format", "json",
                           "-o", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "HAS_CI_COVER"


@pytest.mark.parametrize("where", ["missing/cert.json", "."])
def test_output_file_unwritable_exits_2(tmp_path, capsys, where):
    # A missing directory and a directory are both bad -o paths.
    target = tmp_path / where
    code, out, err = run_cli(capsys, "verify", "-c", "3", "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write")


def _full_device(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("argv", [("dual", "-c", "3"), ("search-traces", "100"), ("verify", "-c", "3")])
def test_failed_write_to_standard_output_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, fails):
    # Standard output on a full device: the write fails, or, when the text
    # fits in the buffer, the flush does.  Either way the run ends as a bad
    # -o path does, with exit 2 and one error line, and the descriptor now
    # points at the null device, so the interpreter's flush at exit succeeds.
    with open(tmp_path / "stdout", "w") as fh:
        stdout = types.SimpleNamespace(write=len, flush=lambda: None, fileno=fh.fileno)
        setattr(stdout, fails, _full_device)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(list(argv))
        redirected = os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}"]
    assert "Traceback" not in err
    assert redirected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_failed_writes_to_standard_output_leave_no_open_descriptor(tmp_path, monkeypatch):
    # Each failed write opens the null device to point standard output at it;
    # that descriptor is closed again, so repeated failures open none.
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=_full_device, fileno=fh.fileno))
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["dual", "-c", "3"]) == 2
        assert len(os.listdir("/proc/self/fd")) == before


def _run_on(stdout, *argv, preexec_fn=None):
    return run_python("-m", "cuspcovers", *argv, stdout=stdout, stderr=subprocess.PIPE, preexec_fn=preexec_fn)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("dual", "-c", "3"), ("search-traces", "100000")])
def test_full_device_exits_2_with_one_line(argv):
    # In a real process standard output is buffered: the interpreter's flush
    # at exit must not fail again and turn exit 2 into 120 with more lines.
    with open("/dev/full", "w") as full:
        proc = _run_on(full, *argv)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}"
    ]


def test_search_traces(capsys):
    code, out, _ = run_cli(capsys, "search-traces", "2000")
    assert code == 0
    assert out.split() == ["13", "1621"]


def test_search_matrix(capsys):
    code, out, _ = run_cli(capsys, "search-matrix", "1621", "--limit", "50")
    assert code == 0
    assert "[[1640, 221], [-141, -19]]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "-m", "1", "0", "0", "1"),        # trace 2
        ("verify", "-m", "2", "0", "0", "2"),        # det 4
        ("verify", "-c", "2,2,2"),                   # no entry >= 3
        ("verify", "-c", "8,x,4"),                   # malformed list
        ("cycle", "-c", "1,5"),                      # entry < 2
        # -m is checked by the first call that needs a cusp: expand for
        # cycle, invariant_sublattices_between for covers and verify.
        ("cycle", "-m", "1", "0", "0", "1"),         # trace 2
        ("covers", "-m", "3", "1", "1", "1", "--max-degree", "1"),  # det 2
        ("verify", "-m", "1", "0", "0", "1", "--format", "json", "-o", "PATH"),
    ],
)
def test_invalid_input_exits_2(capsys, tmp_path, argv):
    # One error line, no output and no -o file: each rejection comes before
    # any output is written.
    path = tmp_path / "out.json"
    code = main([str(path) if arg == "PATH" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not path.exists()
    if argv[1] == "-m":
        m = Mat2(*map(int, argv[2:6]))
        assert f"determinant {m.det} and trace {m.trace};" in captured.err


@pytest.mark.parametrize(
    "module, name, fake, argv, message",
    [
        # a square root modulo a prime that is no root
        (
            "intmath", "_sqrt_mod", lambda n, p: 0, ("verify", "-c", "8,2,4,3,12"),
            "93 is not a root of 590 t^2 + 556 t + 609 modulo 811",
        ),
        # a factorization that drops the prime 541
        (
            "covers", "factorize", lambda n: {p: k for p, k in factorize(n).items() if p != 541},
            ("verify", "-m", "1640", "221", "-141", "-19"),
            "the factors of [1619, 1623] do not multiply to |det(A**2 - I)|",
        ),
        # a prime sieve that passes every odd number
        (
            "verifier", "_odd_prime_table", lambda limit: b"\1" * (limit // 2 + 1), ("search-traces", "100"),
            "the prime table passes 25, which trial division rejects",
        ),
    ],
)
def test_failed_self_checks_exit_1(capsys, monkeypatch, module, name, fake, argv, message):
    # Every internal self-check raises RuntimeError, and the CLI reports each
    # as one "internal error:" line with exit code 1, never a traceback.
    monkeypatch.setattr(getattr(cuspcovers, module), name, fake)
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"internal error: {message}\n"
    assert "Traceback" not in captured.out + captured.err


def test_out_of_memory_exits_1_with_one_line(capsys, monkeypatch):
    # `search-traces 10000000000` asks for a 5 GB prime table; under a memory
    # limit that ends in MemoryError, which the CLI reports as one line with
    # exit code 1.  The patched filter raises it without allocating anything.
    def out_of_memory(limit):
        raise MemoryError

    monkeypatch.setattr(cuspcovers.cli, "admissible_traces", out_of_memory)
    assert main(["search-traces", "10000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "internal error: out of memory\n"
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS as Linux enforces it")
def test_search_past_the_memory_limit_exits_1_with_one_line():
    # The real limit: under a 1 GB address space, the 5 GB prime table of
    # `search-traces 10000000000` is a MemoryError in a fresh interpreter.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    proc = _run_on(subprocess.PIPE, "search-traces", "10000000000", preexec_fn=limit)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"internal error: out of memory\n"


def test_overflow_exits_1_with_one_line(capsys):
    # The cycle (10**20) is valid input, and its dual has 10**20 - 3 entries,
    # more than one str can index: writing either cycle line raises
    # OverflowError before any output, which the CLI reports as one line with
    # exit code 1, as it does a MemoryError; in-process and in a fresh
    # interpreter alike.
    for command in ("cycle", "dual"):
        assert main([command, "-c", str(10**20)]) == 1
        captured = capsys.readouterr()
        proc = _run_on(subprocess.PIPE, command, "-c", str(10**20))
        assert proc.returncode == 1
        for out, err in ((captured.out, captured.err), (proc.stdout.decode(), proc.stderr.decode())):
            assert out == ""
            assert err.count("\n") == 1
            assert err.startswith("internal error: too large: ")
            assert "Traceback" not in err


def test_trace_with_two_large_index_primes_ends_at_the_step_ceiling():
    # t - 2 = 10**22 + 1 has two prime factors near 10**9, past trial
    # division's reach; rho splits it at once, and the run then ends at the
    # expansion's step ceiling, `cfrac.MAX_STEPS`, with one line.
    proc = run_python(
        "-m", "cuspcovers", "verify", "-m", "10000000000000000000003", "1", "-1", "0",
        capture_output=True, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"internal error: state failed to repeat within 1000000 steps\n"


def test_missing_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = expectations = 0
    prev = out = None
    for line in block.splitlines():
        if line.startswith("cuspcovers "):
            code = main(shlex.split(line)[1:])
            out = capsys.readouterr().out
            assert code == 0, line
            commands += 1
        elif line.startswith("# -> "):
            assert prev.startswith("cuspcovers "), line
            assert out == line.removeprefix("# -> ") + "\n", prev
            expectations += 1
        prev = line
    assert (commands, expectations) == (8, 1)
    assert (tmp_path / "certificate.json").is_file()


def test_module_entry_point():
    proc = run_python("-m", "cuspcovers", "cycle", "-m", "3", "1", "-1", "0", capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "cycle: (3)  dual: (3)\n"


def test_closed_output_pipe_exits_0_quietly():
    # A reader that stops after 10 bytes of the (6661) JSON document, 5.9 MB,
    # closes the pipe mid-write; the run ends with exit 0 and no message.
    with subprocess.Popen(
        [sys.executable, "-m", "cuspcovers", "verify", "-c", "6661", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO,
        env=subprocess_env(),
    ) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
    assert head == b'{\n  "cover'
    assert proc.returncode == 0
    assert err == b""


def test_pipe_closed_before_a_small_write_exits_0_quietly():
    # The reader is gone before the run starts, so the one write of "(3)"
    # fails; the interpreter's flush at exit must not fail again (exit 120).
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as pipe:
        proc = _run_on(pipe, "dual", "-c", "3")
    assert proc.returncode == 0
    assert proc.stderr == b""
