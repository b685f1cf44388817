"""One workload in one process: set up, run the ops, gate them, report.

Started by run.py, never by hand.  It prints one JSON line as the last line
of its standard output:
- with --setup-only: {"setup_s": ...} and nothing else is run;
- untraced: latencies, throughput, peak memory and the certificate digest;
- with --trace 1: the per-layer metrics of a fixed prefix of the ops, run
  once untraced and once traced, and the overhead between the two.

An op is one certificate: `verify` followed by `certificate_to_json`.  An
op fails when it raises or when its JSON fails the gate; a failed op is
counted, not retried.  Times are measured in wall seconds and reported both
raw and calibrated (see clock.py); the calibrated clock starts before the
package is imported, so that set-up is sampled too.
"""

from __future__ import annotations

from clock import Clock

CLOCK = Clock()
CLOCK.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cuspcovers  # noqa: E402
import cuspcovers.cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPANS_DIR = ROOT / ".bench_out"


class Pass:
    """Outcome of running a sequence of ops: their perf_counter intervals."""

    def __init__(self) -> None:
        self.prelude: tuple[float, float] | None = None
        self.ops: list[tuple[float, float]] = []
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()

    def stats(self, measure) -> dict:
        """certs_per_s and latency quantiles, timing intervals with measure(a, b).

        The throughput denominator is op time plus the search prelude."""
        lat = [measure(a, b) for a, b in self.ops]
        work = sum(lat) + (measure(*self.prelude) if self.prelude else 0.0)
        return {
            "certs_per_s": (len(lat) - self.failed) / work,
            "cert_p50_s": statistics.median(lat),
            "cert_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        }


def raw_seconds(a: float, b: float) -> float:
    return b - a


def _call(tracer: Tracer | None, name: str, op_id, fn):
    return fn() if tracer is None else tracer.root(name, op_id, fn)


def run_pass(wl: workloads.Workload, seconds: float, max_ops: int | None = None,
             tracer: Tracer | None = None) -> Pass:
    """Run max_ops ops or, without it, whole passes of wl.pass_ops ops until
    `seconds` have passed.  The digest covers the first wl.fixed_ops ops."""
    res = Pass()
    pool: dict = {}
    clock = time.perf_counter
    begin = clock()
    if wl.prelude is not None:
        t0 = clock()
        pool, problems = _call(tracer, "prelude", "prelude", wl.prelude)
        res.prelude = (t0, clock())
        res.problems += problems
    n = 0
    while True:
        op = wl.ops[n % len(wl.ops)]
        text = None
        t0 = clock()
        try:
            m = op.matrix if op.matrix is not None else pool[op.key]
            text = _call(tracer, "op", n, lambda: cuspcovers.cli.certificate_to_json(cuspcovers.verify(m)))
        except Exception:
            err = traceback.format_exc()
        res.ops.append((t0, clock()))
        if text is not None:
            err = gate.check(text, m.entries(), op.expect)
        if err is not None:
            res.failed += 1
            print(f"op {n} {op.key} failed: {err}", file=sys.stderr)
        if n < wl.fixed_ops:
            res.digest.update(text.encode() if err is None else f"failed op {n}\n".encode())
        n += 1
        if n == max_ops or (max_ops is None and n % wl.pass_ops == 0 and clock() - begin >= seconds):
            break
    return res


def check_flagship() -> str | None:
    m = cuspcovers.Mat2(*gate.FLAGSHIP)
    return gate.check(cuspcovers.cli.certificate_to_json(cuspcovers.verify(m)), gate.FLAGSHIP, gate.FLAGSHIP_EXPECT)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, help="perf_counter() when run.py started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(cuspcovers.__file__).resolve().is_relative_to(SRC):
        print(f"cuspcovers was imported from {cuspcovers.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    setup = (args.spawned_at, ready)
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": CLOCK.calibrated(*setup), "setup_raw_s": raw_seconds(*setup)}))
        return 0

    out: dict = {"fixed_ops": wl.fixed_ops}
    if args.trace == 0:
        res = run_pass(wl, args.seconds)
        problems = res.problems
        out.update(attempted=len(res.ops), failed=res.failed, digest=res.digest.hexdigest())
    else:
        plain = run_pass(wl, 0.0, wl.fixed_ops)
        tracer = Tracer()
        tracer.install(cuspcovers)
        try:
            traced = run_pass(wl, 0.0, wl.fixed_ops, tracer)
        finally:
            tracer.uninstall()
        problems = plain.problems + traced.problems
        if plain.digest.digest() != traced.digest.digest():
            problems.append("traced and untraced certificates differ")
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.jsonl")
        out.update(
            attempted=2 * wl.fixed_ops,
            failed=plain.failed + traced.failed,
            layers=tracer.metrics(),
            spans=len(tracer.spans),
            digest=traced.digest.hexdigest(),
        )
    err = check_flagship()
    if err is not None:
        problems.append(f"flagship: {err}")
    CLOCK.stop()
    out["setup_s"] = CLOCK.calibrated(*setup)
    out["setup_raw_s"] = raw_seconds(*setup)
    if args.trace == 0:
        out["calibrated"] = res.stats(CLOCK.calibrated)
        out["raw"] = res.stats(raw_seconds)
    else:
        out["layers"]["trace.overhead_frac"] = (
            1 - traced.stats(CLOCK.calibrated)["certs_per_s"] / plain.stats(CLOCK.calibrated)["certs_per_s"]
        )
    out["problems"] = problems
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
