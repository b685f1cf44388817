"""Command-line surface: cycles, duals, cover tables, CI certificates, searches.

Exit codes: 0 for a completed computation (whatever the verdict), 2 for
invalid input (bad matrix, bad cycle, malformed arguments), 1 for an
internal failure such as an expansion that never became periodic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cfrac import ExpansionError
from .covers import CoverRecord, enumerate_covers
from .cycles import Cycle, canonicalize, cycle_of, dual_cycle, monodromy_of
from .matrices import Mat2
from .verifier import Certificate, admissible_traces, candidate_matrices, verify


def _record_dict(rec: CoverRecord) -> dict:
    # Induced entries exceed 64-bit ranges at degree 4, hence decimal strings.
    return {
        "degree": rec.base_degree,
        "fiber_index": str(rec.fiber.index),
        "fiber_hnf": [rec.fiber.x, rec.fiber.y, rec.fiber.z],
        "induced": [str(e) for e in rec.induced.entries()],
        "cycle_len": len(rec.cycle),
        "dual_len": len(rec.dual),
        "cycle": list(rec.cycle),
        "dual": list(rec.dual),
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "input": {"matrix": list(cert.monodromy.entries())},
        "trace": str(cert.trace),
        "cycle": list(cert.cycle),
        "dual_cycle": list(cert.dual),
        "covers": [_record_dict(r) for r in cert.covers],
        "verdict": cert.verdict,
        "witness": cert.witness,
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), sort_keys=True, indent=2) + "\n"


def _cover_table(records: Sequence[CoverRecord]) -> list[str]:
    lines = [f"{'deg':>3}  {'fiber index':>14}  {'fiber hnf':>24}  {'cycle':>6}  {'dual':>6}"]
    for r in records:
        hnf = f"[{r.fiber.x}, {r.fiber.y}, {r.fiber.z}]"
        lines.append(
            f"{r.base_degree:>3}  {r.fiber.index:>14}  {hnf:>24}  {len(r.cycle):>6}  {len(r.dual):>6}"
        )
    return lines


def certificate_to_text(cert: Certificate) -> str:
    lines = [
        f"monodromy: {cert.monodromy}",
        f"trace:     {cert.trace}",
        f"cycle:     {cert.cycle}",
        f"dual:      {cert.dual}",
        "",
    ]
    lines += _cover_table(cert.covers)
    lines.append("")
    if cert.witness is None:
        lines.append(f"verdict: {cert.verdict} (all {len(cert.covers)} covers have cycle and dual length >= 5)")
    else:
        w = cert.covers[cert.witness]
        lines.append(
            f"verdict: {cert.verdict} (witness: degree {w.base_degree}, fiber index {w.fiber.index},"
            f" cycle length {len(w.cycle)}, dual length {len(w.dual)})"
        )
    return "\n".join(lines) + "\n"


def _parse_cycle_arg(text: str) -> Cycle:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed cycle {text!r}: expected comma-separated integers") from exc
    return canonicalize(entries)


def _input_matrix(args: argparse.Namespace) -> Mat2:
    if args.matrix is not None:
        m = Mat2(*args.matrix)
        if m.det != 1:
            raise ValueError(f"matrix {m} has determinant {m.det}, expected 1")
        if m.trace < 3:
            raise ValueError(f"matrix {m} has trace {m.trace}; a cusp monodromy needs trace >= 3")
        return m
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
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    p_covers.add_argument("--max-degree", type=int, default=4, choices=(1, 2, 3, 4))
    p_covers.add_argument("--half", action="store_true", help="one fiber per dual pair")

    p_verify = sub.add_parser("verify", help="certify existence of a CI Galois cover")
    _add_input_options(p_verify)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--half", action="store_true", help="one fiber per dual pair")
    p_verify.add_argument("-o", "--output", type=str, default=None, metavar="PATH")

    p_traces = sub.add_parser("search-traces", help="traces passing the prime-factor filter")
    p_traces.add_argument("limit", type=int)

    p_matrix = sub.add_parser("search-matrix", help="candidate monodromies of a given trace")
    p_matrix.add_argument("trace", type=int)
    p_matrix.add_argument("--limit", type=int, default=20)

    return parser


def run(args: argparse.Namespace) -> int:
    if args.command == "cycle":
        a = _input_matrix(args)
        c = cycle_of(a)
        sys.stdout.write(f"cycle: {c}  dual: {dual_cycle(c)}\n")
    elif args.command == "monodromy":
        sys.stdout.write(f"{monodromy_of(_parse_cycle_arg(args.cycle))}\n")
    elif args.command == "dual":
        sys.stdout.write(f"{dual_cycle(_parse_cycle_arg(args.cycle))}\n")
    elif args.command == "covers":
        a = _input_matrix(args)
        records = enumerate_covers(a, args.max_degree, half=args.half)
        sys.stdout.write("\n".join(_cover_table(records)) + "\n")
    elif args.command == "verify":
        a = _input_matrix(args)
        cert = verify(a, half=args.half)
        if args.format == "json":
            _emit(certificate_to_json(cert), args.output)
        else:
            _emit(certificate_to_text(cert), args.output)
    elif args.command == "search-traces":
        for x in admissible_traces(args.limit):
            sys.stdout.write(f"{x}\n")
    elif args.command == "search-matrix":
        for m in candidate_matrices(args.trace, args.limit):
            sys.stdout.write(f"{m}\n")
    else:  # pragma: no cover
        raise AssertionError(f"unhandled command {args.command}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpansionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
