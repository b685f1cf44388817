"""Command-line surface: cycles, duals, cover tables, CI certificates, searches.

Exit codes: 0 for a completed computation (whatever the verdict), 2 for
invalid input (bad matrix, bad cycle, malformed arguments) and for a failed
write, to the `-o` file or to standard output, printed as one `error: cannot
write ...` line, 1 for an internal failure: any `RuntimeError`, printed as
one `internal error:` line, a `MemoryError`, printed as `internal error: out
of memory`, and an `OverflowError`, printed as `internal error: too large:
...`: a size past what one Python object can index, such as the 10**20 - 3
entries of the dual of the valid cycle (10**20), whose text `cycle` and
`dual` cannot build.  The `RuntimeError`s are a failed self-check (a
factorization whose primes do not multiply back, a congruence root that is
no root, a sieve that disagrees with trial division) and a
`cfrac.ExpansionError`: a period whose powers miss the trace in
`cycles._CoverCycles`, or an expansion past the `cfrac.MAX_STEPS` = 10**6
step ceiling of `cfrac.expand`, which valid cusps such as (x) near trace
10**6 meet.  Every command builds its whole text and writes it through
`_emit`; a closed output pipe ends the run with exit 0 and no message.

`verify --format json` writes the bytes of json.dumps(doc, sort_keys=True,
indent=2) followed by a newline, without the json module, with its memos
keyed by value: equal cycles share one record head whether or not they are
one object; see `certificate_to_json` for how.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .covers import MAX_DEGREE, CoverRecord, enumerate_covers
from .cycles import CI_MAX_LENGTH, Cycle, _word_text, cycle_of, dual_cycle, dual_length, monodromy_of
from .matrices import Mat2
from .verifier import Certificate, admissible_traces, candidate_matrices, verify

__all__ = ["certificate_to_json", "certificate_to_text", "main"]


def certificate_to_json(cert: Certificate) -> str:
    """The certificate as JSON: the bytes of json.dumps(doc, sort_keys=True, indent=2), plus a newline.

    Written directly, keys in sorted order, every array and object with one
    member per line at a two-space indent; `covers` is `[]` when there are
    no records, and no other array is ever empty.  `trace`, `fiber_index`
    and the `induced` entries are quoted decimal strings, and `witness` is
    null or an int.  Records and the input matrix are unpacked as tuples,
    and `fiber_index` is written as x z.  Two memos live for one call:
    - word texts, keyed by the word's value, since `dual_cycle` returns a
      new word tuple on every build: each depth-3 cycle or dual array is
      its word's text joined `copies` times;
    - record heads, keyed by the cycle's value and the degree,
      (word, copies, degree): the record's opening, its cycle's members,
      `degree`, its dual's members and the opening of `fiber_hnf`, as one
      string, with the dual built once per head.  Equal cycles share one
      head whether or not they are one object.  A degree-n cover cycle has
      the trace of A**n, so no cycle of a `verify` certificate appears at
      two degrees, and its duals are built once per distinct cover cycle;
      hand-built certificates whose degrees interleave still get their own
      bytes, since the degree is in the key.
    A record is then its head and one body string with its fiber and
    induced members; each body closes its record with a comma, and the
    last one's is dropped.  The document is one flat list of pieces,
    joined once.  The test suite keeps json.dumps as the byte-for-byte
    oracle `certificate_to_json_oracle` in tests/helpers.py.
    """
    # A record sits at depth 2 (document, covers, record), its members at
    # depth 3, keys in sorted order: `degree` falls between the members that
    # depend only on the cycle.  Both memos are keyed by value and live for
    # this call only.
    texts: dict[tuple[int, ...], str] = {}
    heads: dict[tuple[tuple[int, ...], int, int], str] = {}
    member = ",\n      "
    # Entry separator and closing bracket of a depth-3 array.
    entry, close = ",\n        ", "\n      ]"

    def array(c: Cycle) -> str:
        # Keyed by the word's value: a dual is a new tuple on every build.
        text = texts.get(c.word)
        if text is None:
            text = texts[c.word] = _word_text(c.word, entry)
        return "[\n        " + entry.join([text] * c.copies) + close

    out = ['{\n  "covers": [']
    for rec in cert.covers:
        degree, (x, y, z), (a, b, c, d), cycle = rec
        key = cycle.word, cycle.copies, degree
        head = heads.get(key)
        if head is None:
            dual = dual_cycle(cycle)
            head = heads[key] = (
                f'\n    {{\n      "cycle": {array(cycle)}{member}"cycle_len": {len(cycle)}{member}"degree": {degree}'
                f'{member}"dual": {array(dual)}{member}"dual_len": {len(dual)}{member}"fiber_hnf": [\n        '
            )
        # Induced entries exceed 64-bit ranges at degree 4, hence decimal strings.
        out += (
            head,
            f'{x},\n        {y},\n        {z}\n      ],\n      "fiber_index": "{x * z}",\n      "induced": [\n'
            f'        "{a}",\n        "{b}",\n        "{c}",\n        "{d}"\n      ]\n    }},',
        )
    # Every record closes with a comma; the last one takes none.  With no
    # records, the opening bracket is the last piece and becomes `[]`.
    out[-1] = out[-1][:-1] + ("\n  ]" if cert.covers else "[]")
    a, b, c, d = cert.monodromy
    witness = "null" if cert.witness is None else cert.witness
    top, sep = ",\n  ", ",\n    "
    out += (
        f'{top}"cycle": [\n    ', cert.cycle.joined(sep),
        f'\n  ]{top}"dual_cycle": [\n    ', dual_cycle(cert.cycle).joined(sep),
        f'\n  ]{top}"input": {{\n    "matrix": [\n      {a},\n      {b},\n      {c},\n      {d}\n    ]\n  }}'
        f'{top}"trace": "{a + d}"{top}"verdict": "{cert.verdict}"{top}"witness": {witness}\n}}\n',
    )
    return "".join(out)


def _cover_table(records: Sequence[CoverRecord]) -> list[str]:
    lines = [f"{'deg':>3}  {'fiber index':>14}  {'fiber hnf':>24}  {'cycle':>6}  {'dual':>6}"]
    for r in records:
        hnf = f"[{r.fiber.x}, {r.fiber.y}, {r.fiber.z}]"
        lines.append(
            f"{r.base_degree:>3}  {r.fiber.index:>14}  {hnf:>24}  {len(r.cycle):>6}  {dual_length(r.cycle):>6}"
        )
    return lines


def certificate_to_text(cert: Certificate) -> str:
    lines = [
        f"monodromy: {cert.monodromy}",
        f"trace:     {cert.monodromy.trace}",
        f"cycle:     {cert.cycle}",
        f"dual:      {dual_cycle(cert.cycle)}",
        "",
    ]
    lines += _cover_table(cert.covers)
    lines.append("")
    if cert.witness is None:
        lines.append(
            f"verdict: {cert.verdict} (all {len(cert.covers)} covers have cycle and dual length"
            f" >= {CI_MAX_LENGTH + 1})"
        )
    else:
        w = cert.covers[cert.witness]
        lines.append(
            f"verdict: {cert.verdict} (witness: degree {w.base_degree}, fiber index {w.fiber.index},"
            f" cycle length {len(w.cycle)}, dual length {dual_length(w.cycle)})"
        )
    return "\n".join(lines) + "\n"


def _parse_cycle_arg(text: str) -> Cycle:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed cycle {text!r}: expected comma-separated integers") from exc
    return Cycle(entries)


def _input_matrix(args: argparse.Namespace) -> Mat2:
    # A -m matrix is not checked here: every command that takes it rejects a
    # non-cusp before any output, in `cfrac.expand` (cycle) or in
    # `covers.invariant_sublattices_between` (covers, verify).
    if args.matrix is not None:
        return Mat2(*args.matrix)
    return monodromy_of(_parse_cycle_arg(args.cycle))


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "-m", "--matrix", nargs=4, type=int, metavar=("A", "B", "C", "D"),
        help="monodromy matrix, row-major a b c d",
    )
    group.add_argument(
        "-c", "--cycle", type=str, metavar="LIST",
        help="resolution cycle as comma-separated integers, e.g. 8,2,4,3,12",
    )


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to standard output when path is None.

    Standard output is flushed here, so a write that fails in its buffer
    fails inside the `try` too.  A `BrokenPipeError` ends the write quietly
    (the run exits 0); any other `OSError` becomes one ValueError."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:
            # The buffer keeps the bytes that failed and the interpreter
            # flushes them again at exit, which would fail again (exit 120):
            # point the descriptor at the null device so that flush succeeds.
            null = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(null, sys.stdout.fileno())
            finally:
                os.close(null)
        if not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write {'standard output' if path is None else path}: {exc.strerror or exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspcovers",
        description="classify Galois covers of cusp singularity links in exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cycle = sub.add_parser("cycle", help="resolution cycle and dual of a monodromy")
    _add_input_options(p_cycle)

    p_mono = sub.add_parser("monodromy", help="monodromy matrix of a cycle")
    p_mono.add_argument("-c", "--cycle", type=str, required=True, metavar="LIST")

    p_dual = sub.add_parser("dual", help="dual of a cycle")
    p_dual.add_argument("-c", "--cycle", type=str, required=True, metavar="LIST")

    p_covers = sub.add_parser("covers", help="table of normal Galois covers")
    _add_input_options(p_covers)
    p_covers.add_argument("--max-degree", type=int, default=MAX_DEGREE, choices=range(1, MAX_DEGREE + 1))

    p_verify = sub.add_parser("verify", help="certify existence of a CI Galois cover")
    _add_input_options(p_verify)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("-o", "--output", type=str, default=None, metavar="PATH")

    p_traces = sub.add_parser("search-traces", help="traces passing the prime-factor filter")
    p_traces.add_argument("limit", type=int)

    p_matrix = sub.add_parser("search-matrix", help="candidate monodromies of a given trace")
    p_matrix.add_argument("trace", type=int)
    p_matrix.add_argument("--limit", type=int, default=20)

    return parser


def run(args: argparse.Namespace) -> int:
    path = None
    if args.command == "cycle":
        c = cycle_of(_input_matrix(args))
        text = f"cycle: {c}  dual: {dual_cycle(c)}\n"
    elif args.command == "monodromy":
        text = f"{monodromy_of(_parse_cycle_arg(args.cycle))}\n"
    elif args.command == "dual":
        text = f"{dual_cycle(_parse_cycle_arg(args.cycle))}\n"
    elif args.command == "covers":
        records = enumerate_covers(_input_matrix(args), args.max_degree)
        text = "\n".join(_cover_table(records)) + "\n"
    elif args.command == "verify":
        cert = verify(_input_matrix(args))
        text = certificate_to_json(cert) if args.format == "json" else certificate_to_text(cert)
        path = args.output
    elif args.command == "search-traces":
        text = "".join(f"{x}\n" for x in admissible_traces(args.limit))
    elif args.command == "search-matrix":
        text = "".join(f"{m}\n" for m in candidate_matrices(args.trace, args.limit))
    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {args.command}")
    _emit(text, path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"internal error: too large: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
