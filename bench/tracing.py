"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of each
numrad module and numpy's two Hermitian eigensolvers. Every wrapped call is
a span on one stack (the benchmark is single-threaded). A span's self time
is its duration minus the time of the spans directly inside it, so the self
times of all layers partition the time spent inside numrad. A layer's busy
time and call count only take spans not nested in a span of the same layer,
so a helper calling a sibling helper is counted once.

Wrappers are installed only inside ``Tracer.active()``; outside it numrad
runs unmodified, which is what the untraced passes measure.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Public functions per layer, by module. The layers are numrad's modules;
# linalg is split into the engine, the sampling oracle and the spectral
# helpers because each answers to a different workload.
LAYER_FUNCTIONS = {
    "ensembles": ("numrad.ensembles", ("generate_ensemble", "trial_matrix")),
    "linalg.radius": ("numrad.linalg", ("numerical_radius",)),
    "linalg.oracle": ("numrad.linalg", ("numerical_radius_oracle",)),
    "linalg.spectral": ("numrad.linalg", ("abs_power", "matrix_power_psd",
                                          "hermitian_eigen", "operator_norm")),
    "bounds.terms": ("numrad.bounds", ("matrix_terms", "pair_terms")),
    "bounds.evaluate": ("numrad.bounds", ("evaluate_bound",)),
    "bounds.chain": ("numrad.bounds", ("refinement_chain",)),
    "suite.run": ("numrad.suite", ("run_suite",)),
    "suite.serialize": ("numrad.suite", ("emit_report", "report_to_json")),
    "cli": ("numrad.cli", ("main",)),
    "scalar_ineq": ("numrad.scalar_ineq", ("cs_refinement_gen", "cs_refinement_two",
                                           "buzano", "buzano_refined",
                                           "buzano_refined_two", "buzano_power",
                                           "young_amgm")),
    "operator_lemmas": ("numrad.operator_lemmas", ("mccarthy_check", "convex_norm_check",
                                                   "mixed_schwarz_check",
                                                   "jensen_operator_check")),
}

# Term objects built on a cache miss of matrix_terms / pair_terms.
TERM_CLASSES = ("MatrixTerms", "PairTerms")

# Computed, not measured: real flops of a complex Hermitian n x n solve.
# Tridiagonal reduction costs 16n^3/3; eigenvectors add the 8n^3
# back-transformation. Lower-order terms are left out.
EIGVALSH_FLOPS_PER_N3 = 16.0 / 3.0
EIGH_FLOPS_PER_N3 = 40.0 / 3.0

# Every per-layer metric, with its unit. The traced run reports all of them
# on every workload; a layer a workload does not reach reports 0. What each
# should move (a prediction of "no change" everywhere else):
#   ensembles.*                 throughput on verify-sweep (a small share)
#   linalg.radius.*             throughput on verify-sweep through overhead
#                               per batch; latency on radius-query through
#                               flops per angle and disc inputs
#   linalg.radius.lapack_share  tells overhead-bound (verify-sweep) from
#                               flop-bound (radius-query) engine time
#   linalg.oracle.*             latency on radius-query
#   linalg.spectral.*           throughput on lemma-fuzz
#   bounds.*, suite.*, cli.*    throughput on verify-sweep; the term-cache
#                               hit ratio comes from its jordan configs
#   scalar_ineq.*, operator_lemmas.*  throughput on lemma-fuzz
#   lapack.*                    all three: whether per-call overhead or
#                               flops dominate at each size
PER_LAYER_UNITS = {
    "ensembles.matrices": "count",
    "ensembles.busy_s": "s",
    "linalg.radius.calls": "count",
    "linalg.radius.busy_s": "s",
    "linalg.radius.share": "fraction",
    "linalg.radius.batches_per_call": "count",
    "linalg.radius.angles_per_call": "count",
    "linalg.radius.lapack_share": "fraction",
    "linalg.oracle.calls": "count",
    "linalg.oracle.busy_s": "s",
    "linalg.spectral.calls": "count",
    "linalg.spectral.busy_s": "s",
    "bounds.terms.builds": "count",
    "bounds.terms.lookups": "count",
    "bounds.terms.hit_ratio": "fraction",
    "bounds.terms.busy_s": "s",
    "bounds.evaluate.calls": "count",
    "bounds.evaluate.self_s": "s",
    "bounds.chain.calls": "count",
    "bounds.chain.self_s": "s",
    "suite.run.self_s": "s",
    "suite.serialize.busy_s": "s",
    "suite.report_bytes": "bytes",
    "cli.self_s": "s",
    "scalar_ineq.records": "count",
    "scalar_ineq.busy_s": "s",
    "operator_lemmas.checks": "count",
    "operator_lemmas.busy_s": "s",
    "lapack.eigvalsh.calls": "count",
    "lapack.eigvalsh.matrices": "count",
    "lapack.eigh.calls": "count",
    "lapack.busy_s": "s",
    "lapack.flops_computed": "flop",
    "trace.overhead_s": "s",
    "trace.accounted_share": "fraction",
}

RADIUS = "linalg.radius"
LAPACK = "lapack"


class Tracer:
    """Span stack plus per-layer totals for one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []  # open spans: [layer, time in child spans]
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack)

    def wrap(self, layer: str, fn, on_exit=None):
        """``fn`` timed as a span of ``layer``; ``on_exit(args, seconds)``
        runs after the span closes, with the enclosing spans still open."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not self._inside(layer)
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self.self_s[layer] += dur - frame[1]
                if outermost:
                    self.busy[layer] += dur
                    self.calls[layer] += 1
                if on_exit is not None:
                    on_exit(args, dur)

        return wrapper

    def _lapack_exit(self, kind: str, flops_per_n3: float):
        def on_exit(args, dur):
            shape = np.shape(args[0])
            n = shape[-1]
            batch = math.prod(shape[:-2])
            self.counts[f"{kind}.calls"] += 1
            self.counts[f"{kind}.matrices"] += batch
            self.counts["flops"] += flops_per_n3 * batch * n**3
            if self._inside(RADIUS):
                self.counts["radius.lapack_s"] += dur
                if kind == "eigvalsh":
                    self.counts["radius.batches"] += 1
                    self.counts["radius.angles"] += batch
        return on_exit

    def _count_matrix(self, args, dur):
        self.counts["matrices"] += 1

    def _count_build(self, init):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            self.counts["term_builds"] += 1
            return init(obj, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, then restore.

        A function imported by name into several numrad modules is replaced
        in each of them, so calls between modules are traced too.
        """
        replacements: dict[int, object] = {}
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                on_exit = self._count_matrix if name == "trial_matrix" else None
                replacements[id(original)] = self.wrap(layer, original, on_exit)
        restore = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "numrad" and not module_name.startswith("numrad."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replacements:
                    restore.append((module, name, value))
                    setattr(module, name, replacements[id(value)])
        for name, flops in (("eigvalsh", EIGVALSH_FLOPS_PER_N3), ("eigh", EIGH_FLOPS_PER_N3)):
            original = getattr(np.linalg, name)
            restore.append((np.linalg, name, original))
            setattr(np.linalg, name, self.wrap(LAPACK, original, self._lapack_exit(name, flops)))
        bounds = sys.modules["numrad.bounds"]
        for cls_name in TERM_CLASSES:
            cls = getattr(bounds, cls_name)
            restore.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._count_build(cls.__init__)
        try:
            yield self
        finally:
            for target, name, value in reversed(restore):
                setattr(target, name, value)

    def layer_metrics(self, wall_s: float, ops_s: float,
                      report_bytes: int) -> dict[str, float]:
        """The per-layer metrics of one traced pass that took ``wall_s``,
        ``ops_s`` of it inside the timed numrad calls (the rest is the
        benchmark's own input building and result checks)."""
        c = self.counts
        radius_calls = self.calls[RADIUS]
        radius_busy = self.busy[RADIUS]
        lookups = self.calls["bounds.terms"]
        return {
            "ensembles.matrices": c["matrices"],
            "ensembles.busy_s": self.busy["ensembles"],
            "linalg.radius.calls": radius_calls,
            "linalg.radius.busy_s": radius_busy,
            "linalg.radius.share": radius_busy / wall_s,
            "linalg.radius.batches_per_call": _ratio(c["radius.batches"], radius_calls),
            "linalg.radius.angles_per_call": _ratio(c["radius.angles"], radius_calls),
            "linalg.radius.lapack_share": _ratio(c["radius.lapack_s"], radius_busy),
            "linalg.oracle.calls": self.calls["linalg.oracle"],
            "linalg.oracle.busy_s": self.busy["linalg.oracle"],
            "linalg.spectral.calls": self.calls["linalg.spectral"],
            "linalg.spectral.busy_s": self.busy["linalg.spectral"],
            "bounds.terms.builds": c["term_builds"],
            "bounds.terms.lookups": lookups,
            "bounds.terms.hit_ratio": _ratio(lookups - c["term_builds"], lookups),
            "bounds.terms.busy_s": self.busy["bounds.terms"],
            "bounds.evaluate.calls": self.calls["bounds.evaluate"],
            "bounds.evaluate.self_s": self.self_s["bounds.evaluate"],
            "bounds.chain.calls": self.calls["bounds.chain"],
            "bounds.chain.self_s": self.self_s["bounds.chain"],
            "suite.run.self_s": self.self_s["suite.run"],
            "suite.serialize.busy_s": self.busy["suite.serialize"],
            "suite.report_bytes": report_bytes,
            "cli.self_s": self.self_s["cli"],
            "scalar_ineq.records": self.calls["scalar_ineq"],
            "scalar_ineq.busy_s": self.busy["scalar_ineq"],
            "operator_lemmas.checks": self.calls["operator_lemmas"],
            "operator_lemmas.busy_s": self.busy["operator_lemmas"],
            "lapack.eigvalsh.calls": c["eigvalsh.calls"],
            "lapack.eigvalsh.matrices": c["eigvalsh.matrices"],
            "lapack.eigh.calls": c["eigh.calls"],
            "lapack.busy_s": self.busy[LAPACK],
            "lapack.flops_computed": c["flops"],
            "trace.accounted_share": sum(self.self_s.values()) / ops_s,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
