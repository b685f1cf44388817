"""cuspcovers benchmark: certificate throughput, latency, set-up time and memory.

    python3 bench/run.py                      # every workload, a summary table
    python3 bench/run.py --workload census --seed 3 --seconds 20 --trace 0

Each workload runs in its own process (worker.py), single-threaded, so that
set-up time and peak memory belong to that workload alone.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
BENCHMARK.json with --trace 1.  Lines before it give the same figures for a
reader, with sample counts, `failed_frac`, `cert_p90_s` where at least 100
ops ran, and the SHA-256 digest of the certificates of the first ops, which
a traced and an untraced run of one seed must share.

setup_s is the time from starting a Python process until its first op can
start: interpreter, package import and seeded input generation.  It is the
median of SETUP_PROBES set-up-only processes and the measuring process.

Times in the JSON are calibrated seconds (clock.py), which a drifting core
speed does not move; the readable lines give the raw wall times beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "search", "long_cycle")
SETUP_PROBES = 4
TIMEOUT_S = 170


def spawn(argv: list[str], timeout: float) -> dict:
    """Run worker.py with argv; return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker {' '.join(argv)} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    deadline = time.monotonic() + TIMEOUT_S
    setups = [spawn(base + ["--setup-only"], 30) for _ in range(SETUP_PROBES)]
    res = spawn(base + ["--trace", str(trace)], deadline - time.monotonic())
    setups.append(res)
    res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    res["setup_raw_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    res["setup_samples"] = len(setups)
    res["correct"] = res["failed"] == 0 and not res["problems"]
    return res


def report(name: str, seed: int, trace: int, res: dict) -> dict:
    """Print the human-readable lines and return the result object."""
    for p in res["problems"]:
        print(f"{name}: INCORRECT: {p}")
    n = res["attempted"]
    print(f"{name} seed={seed}: {n} ops, {res['failed']} failed, failed_frac {res['failed'] / n:.4f}")
    print(f"digest {name} seed={seed} ops={res['fixed_ops']} sha256={res['digest']}")
    if trace:
        metrics = {k: {"value": v, "unit": unit} for k, v, unit in _layer_rows(res["layers"])}
        for k, m in metrics.items():
            print(f"  {k:46s} {m['value']:.6g} {m['unit']}")
        print(f"  spans kept: {res['spans']}")
    else:
        cal, raw = res["calibrated"], res["raw"]
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "certs_per_s": {"value": cal["certs_per_s"], "unit": "1/s"},
            "cert_p50_s": {"value": cal["cert_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  {'':12s} {'calibrated':>12s} {'raw':>12s}")
        print(f"  setup_s      {res['setup_s']:12.4f} {res['setup_raw_s']:12.4f} s (median of {res['setup_samples']} processes)")
        print(f"  certs_per_s  {cal['certs_per_s']:12.4f} {raw['certs_per_s']:12.4f} 1/s")
        print(f"  cert_p50_s   {cal['cert_p50_s']:12.4f} {raw['cert_p50_s']:12.4f} s (n={n})")
        if n >= 100:
            print(f"  cert_p90_s   {cal['cert_p90_s']:12.4f} {raw['cert_p90_s']:12.4f} s (n={n})")
        else:
            print(f"  cert_p90_s   not reported: {n} < 100 ops")
        print(f"  peak_rss_mb  {res['peak_rss_mb']:12.1f} MB")
    return {"correct": res["correct"], "attempted": n, "failed": res["failed"], "metrics": metrics}


def _layer_rows(layers: dict):
    for k, unit in LAYER_METRICS:
        yield k, layers[k], unit
    yield "trace.overhead_frac", layers["trace.overhead_frac"], "ratio"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cuspcovers" / "__init__.py").is_file():
        print(f"error: no cuspcovers package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = report(name, args.seed, args.trace, run_workload(name, args.seed, args.seconds, args.trace))
    if args.workload == "all":
        print(f"{'workload':12s} {'correct':8s} " + " ".join(f"{k:>14s}" for k in results[names[0]]["metrics"]))
        for name, r in results.items():
            print(f"{name:12s} {str(r['correct']):8s} " + " ".join(f"{m['value']:14.6g}" for m in r["metrics"].values()))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
