"""Span recorder that wraps the package's public functions from outside.

Nothing under src/ knows about it.  `Tracer.install` replaces each traced
function at every module binding of its name (covers, verifier, cli and
cycles import names directly, so patching only the defining module would
miss their calls) and wraps cycle canonicalization through
`Cycle.__post_init__`.  Every timed call becomes a span with its op id and
parent; a layer's self time is its span's duration minus the time of its
child spans.  Spans stay in memory until `write_spans` is called at the end
of a run.

Three kinds of wrapper keep the overhead and the memory bounded:
- SPAN: timed, kept as a span;
- TIMED: timed and counted but not kept, for `is_prime`, which the trace
  filter calls about a million times per search run;
- COUNT: counted only, for `mul` and `step`, the innermost loops, whose
  time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, function, kind); the metric prefix is "module.function".
PLAN = (
    ("intmath", "is_prime", TIMED),
    ("intmath", "factorize", SPAN),
    ("intmath", "solve_quadratic_congruence", SPAN),
    ("matrices", "mul", COUNT),
    ("matrices", "conjugate", SPAN),
    ("matrices", "hermite_normal_form", SPAN),
    ("matrices", "power", SPAN),
    ("cfrac", "expand", SPAN),
    ("cfrac", "step", COUNT),
    ("cycles", "cycle_of", SPAN),
    ("cycles", "dual_cycle", SPAN),
    ("cycles", "monodromy_of", SPAN),
    ("covers", "enumerate_covers", SPAN),
    ("covers", "invariant_sublattices_between", SPAN),
    ("covers", "prime_index_invariant_lattices", SPAN),
    ("covers", "induced_action", SPAN),
    ("verifier", "verify", SPAN),
    ("verifier", "admissible_traces", SPAN),
    ("verifier", "candidate_matrices", SPAN),
    ("cli", "certificate_to_json", SPAN),
)
MODULES = ("intmath", "matrices", "cfrac", "cycles", "covers", "verifier", "cli")

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
LAYER_METRICS = (
    ("intmath.is_prime.calls", "count"),
    ("intmath.is_prime.self_s", "s"),
    ("intmath.factorize.calls", "count"),
    ("intmath.factorize.self_s", "s"),
    ("intmath.solve_quadratic_congruence.calls", "count"),
    ("intmath.solve_quadratic_congruence.self_s", "s"),
    ("intmath.scan_residues", "count"),
    ("matrices.mul.calls", "count"),
    ("matrices.conjugate.calls", "count"),
    ("matrices.conjugate.self_s", "s"),
    ("matrices.hermite_normal_form.calls", "count"),
    ("matrices.hermite_normal_form.self_s", "s"),
    ("matrices.power.calls", "count"),
    ("matrices.power.self_s", "s"),
    ("cfrac.expand.calls", "count"),
    ("cfrac.expand.self_s", "s"),
    ("cfrac.step.calls", "count"),
    ("cycles.Cycle.calls", "count"),
    ("cycles.Cycle.self_s", "s"),
    ("cycles.Cycle.entries", "count"),
    ("cycles.cycle_of.calls", "count"),
    ("cycles.cycle_of.self_s", "s"),
    ("cycles.dual_cycle.calls", "count"),
    ("cycles.dual_cycle.self_s", "s"),
    ("cycles.monodromy_of.calls", "count"),
    ("cycles.monodromy_of.self_s", "s"),
    ("cycles.longest", "count"),
    ("covers.enumerate_covers.self_s", "s"),
    ("covers.invariant_sublattices_between.calls", "count"),
    ("covers.invariant_sublattices_between.self_s", "s"),
    ("covers.prime_index_invariant_lattices.calls", "count"),
    ("covers.prime_index_invariant_lattices.self_s", "s"),
    ("covers.induced_action.calls", "count"),
    ("covers.induced_action.self_s", "s"),
    ("covers.records", "count"),
    ("verifier.verify.calls", "count"),
    ("verifier.verify.self_s", "s"),
    ("verifier.admissible_traces.self_s", "s"),
    ("verifier.candidate_matrices.self_s", "s"),
    ("cli.certificate_to_json.calls", "count"),
    ("cli.certificate_to_json.self_s", "s"),
    ("cli.json_bytes", "bytes"),
)


class Tracer:
    """Spans, call counts, self times and exact work counters for one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (span_id, parent_id, op_id, name, start, end)
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.op_id: int | str | None = None
        self._stack: list[list] = []  # [span_id, child_seconds]
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _timed(self, name: str, fn, keep: bool, after=None):
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    self.spans.append((span_id, parent, self.op_id, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name: str, op_id, fn):
        """Run fn() as the root span of one op (or of the search prelude)."""
        self.op_id = op_id
        return self._timed(name, fn, keep=True)()

    # -- counters computed from arguments and results ---------------------

    def _after_congruence(self, args, result) -> None:
        self.counts["intmath.scan_residues"] += args[3]

    def _after_cycle(self, args, result) -> None:
        n = len(args[0].entries)
        self.counts["cycles.Cycle.entries"] += n
        if n > self.counts["cycles.longest"]:
            self.counts["cycles.longest"] = n

    def _after_covers(self, args, result) -> None:
        self.counts["covers.records"] += len(result)

    def _after_json(self, args, result) -> None:
        self.counts["cli.json_bytes"] += len(result.encode())

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced function at every binding in the package."""
        mods = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        bindings = [package, *mods.values()]
        after = {
            "solve_quadratic_congruence": self._after_congruence,
            "enumerate_covers": self._after_covers,
            "certificate_to_json": self._after_json,
        }
        for module, func, kind in PLAN:
            orig = getattr(mods[module], func)
            name = f"{module}.{func}"
            if kind == COUNT:
                wrapper = self._counted(name, orig)
            else:
                wrapper = self._timed(name, orig, keep=kind == SPAN, after=after.get(func))
            for mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        cycle_cls = mods["cycles"].Cycle
        orig_post = cycle_cls.__post_init__
        cycle_cls.__post_init__ = self._timed("cycles.Cycle", orig_post, keep=True, after=self._after_cycle)
        self._undo.append((cycle_cls, "__post_init__", orig_post))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[base]
            elif field == "self_s":
                out[name] = self.self_s[base]
            else:
                out[name] = self.counts[name]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, op_id, name, start, end]) + "\n")
