"""Regenerate populations.json: the inputs the workloads draw from, each with
the certificate facts the correctness gate pins for it.

    python3 bench/make_populations.py

For every input it records the number of cover records, the longest cover
cycle, the verdict and `entries`, the summed length of all cover cycles and
duals, which orders the census and search populations by size.  The facts
are exact and do not depend on the machine; the run takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cuspcovers  # noqa: E402
from cuspcovers.cli import certificate_to_json  # noqa: E402

import workloads  # noqa: E402

# long_cycle: single-entry cycles (x) of trace 829 and 1621, whose cover
# census has the minimum of 58 records, and the trace-1621 candidate
# [[1622,3],[-541,-1]], a CI link the search skips, whose covers reach 6476.
LADDER = [(829, 1, -1, 0), (1621, 1, -1, 0), (1622, 3, -541, -1)]


def facts(m: cuspcovers.Mat2) -> dict:
    doc = json.loads(certificate_to_json(cuspcovers.verify(m)))
    return {
        "records": len(doc["covers"]),
        "longest": max(r["cycle_len"] for r in doc["covers"]),
        "entries": sum(r["cycle_len"] + r["dual_len"] for r in doc["covers"]),
        "verdict": doc["verdict"],
    }


def census_rows() -> list[dict]:
    sequences: dict[tuple[int, ...], int] = {}
    for k in range(1, 6):
        for seq in itertools.product(range(2, 9), repeat=k):
            if all(e == 2 for e in seq):
                continue
            c = cuspcovers.Cycle(seq)
            if cuspcovers.monodromy_of(c).trace <= 100:
                sequences[c.entries] = sequences.get(c.entries, 0) + 1
    rows = [{"cycle": list(c), "sequences": n, **facts(cuspcovers.monodromy_of(c))} for c, n in sequences.items()]
    return sorted(rows, key=lambda r: (r["entries"], r["cycle"]))


def search_rows() -> list[dict]:
    rows = []
    for x in workloads.ADMISSIBLE_TO_1E5:
        for k, m in enumerate(cuspcovers.candidate_matrices(x, workloads.CANDIDATES)):
            c = cuspcovers.cycle_of(m)
            if not cuspcovers.is_ci_link(c) and cuspcovers.dual_length(c) <= workloads.MAX_DUAL:
                rows.append({"trace": x, "index": k, "matrix": list(m.entries()), **facts(m)})
    return sorted(rows, key=lambda r: (r["entries"], r["trace"], r["index"]))


def main() -> None:
    pop = {
        "census": census_rows(),
        "search": search_rows(),
        "long_cycle": [{"matrix": list(m), **facts(cuspcovers.Mat2(*m))} for m in LADDER],
    }
    with open(workloads.POPULATIONS, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (name, rows) in enumerate(pop.items()):
            fh.write(f' "{name}": [\n')
            fh.write(",\n".join("  " + json.dumps(r) for r in rows))
            fh.write("\n ]" + (",\n" if i < len(pop) - 1 else "\n"))
        fh.write("}\n")


if __name__ == "__main__":
    main()
