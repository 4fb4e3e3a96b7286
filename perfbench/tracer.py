"""Passive per-layer tracing installed from outside the program.

:class:`Tracer` wraps the public entry points of each layer at class
level (and ``solve_energy_lp`` at module level), records one span per
outermost call into a layer, and turns the spans into per-layer counts
and self times.  Nothing under ``src/`` knows about it: the wrappers
call the original functions with the original arguments and return
their results untouched, so a traced pass must reproduce the untraced
passes bit for bit (the benchmark checks that it does).

A span records its name (``<layer>.<op>``), start, end, parent span,
the id of the solve that caused it, and up to two work counters (words,
elements, lanes or computed bytes).  When a layer re-enters itself —
``ProgramEngine.add`` falling through to ``ApproxEngine.add``,
``matvec`` reducing through ``sum``, ``add_signed`` calling
``add_unsigned`` — only the outermost call is recorded.  Spans stay in
memory in flat arrays and are written out once, at the end of the run.

Self time is a span's duration minus the time its child spans cover.
The wrappers' own cost lands in the parent's self time, which is why
the benchmark reports the traced pass's overhead next to the table.
"""

from __future__ import annotations

import functools
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.apps.autoregression import AutoRegression
from repro.apps.gmm import GaussianMixtureEM
from repro.apps.pagerank import PageRank
from repro.arith.engine import BatchedEnergyLedger, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.program import BatchedProgramEngine, ProgramEngine
from repro.backends.base import KernelBackend
from repro.core import framework as framework_mod
from repro.core.strategies import adaptive as adaptive_mod
from repro.core.strategies.adaptive import AdaptiveAngleStrategy
from repro.core.strategies.incremental import IncrementalStrategy
from repro.core.strategies.static_mode import StaticModeStrategy
from repro.hardware.adders.base import AdderModel
from repro.solvers import batched as batched_mod
from repro.solvers.linear import JacobiSolver

ENGINE_OPS = ("add", "sub", "scale_add", "sum", "dot", "matvec", "weighted_sum", "mul")
#: Solo engine ops reported as per-layer metrics.  ``dot`` and ``mul``
#: are wrapped (they appear in the table if anything calls them) but no
#: workload does, so they are not metrics.
REPORTED_ENGINE_OPS = ("add", "sub", "scale_add", "sum", "matvec", "weighted_sum")
FUSED_KERNELS = (
    "add_words_inrange",
    "sub_words_inrange",
    "reduce_inrange",
    "product_reduce_words",
    "csr_matvec_words",
    "scale_encode_inrange",
)
#: ``name -> (unit, better)`` of every per-layer metric, in report order.
PER_LAYER = {
    "data.build_s": ("s", "lower"),
    "core.characterize.s": ("s", "lower"),
    "core.framework.self_s": ("s", "lower"),
    "core.framework.iters": ("count", "lower"),
    "core.framework.rollbacks": ("count", "lower"),
    "core.framework.accept_ratio": ("ratio", "higher"),
    "core.strategies.decide.calls": ("count", "lower"),
    "core.strategies.decide.s": ("s", "lower"),
    "core.strategies.lp.calls": ("count", "lower"),
    "core.strategies.lp.s": ("s", "lower"),
    "solvers.direction.self_s": ("s", "lower"),
    "solvers.update.self_s": ("s", "lower"),
    "solvers.exact.calls": ("count", "lower"),
    "solvers.exact.s": ("s", "lower"),
    "arith.program.captures": ("count", "lower"),
    "arith.program.replays": ("count", "higher"),
    "arith.program.bailouts": ("count", "lower"),
    "arith.program.replay_ratio": ("ratio", "higher"),
    "arith.program.capture_iter_ms": ("ms", "lower"),
    "arith.program.replay_iter_ms": ("ms", "lower"),
    **{
        f"arith.engine.{op}.{col}": unit
        for op in REPORTED_ENGINE_OPS
        for col, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))
    },
    "arith.engine.ledger.calls": ("count", "lower"),
    "arith.engine.ledger.s": ("s", "lower"),
    "arith.engine.batched.calls": ("count", "lower"),
    "arith.engine.batched.self_s": ("s", "lower"),
    "arith.engine.batched.lanes_per_call": ("lanes", "higher"),
    "arith.engine.batched.ledger.s": ("s", "lower"),
    "arith.fixed.encode.calls": ("count", "lower"),
    "arith.fixed.encode.words": ("words", "lower"),
    "arith.fixed.encode.s": ("s", "lower"),
    "arith.fixed.decode.s": ("s", "lower"),
    "backends.add.calls": ("count", "lower"),
    "backends.add.self_s": ("s", "lower"),
    "backends.fused.calls": ("count", "higher"),
    "backends.fused.words": ("words", "higher"),
    "backends.fused.s": ("s", "lower"),
    "backends.fused.bytes": ("bytes", "lower"),
    "hardware.add.calls": ("count", "lower"),
    "hardware.add.elems": ("count", "lower"),
    "hardware.add.s": ("s", "lower"),
    "hardware.add.ns_per_elem": ("ns", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}
METHOD_CLASSES = (GaussianMixtureEM, AutoRegression, PageRank, JacobiSolver)
STRATEGY_CLASSES = (StaticModeStrategy, IncrementalStrategy, AdaptiveAngleStrategy)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _own(classes, names):
    """``(class, name)`` for every listed method a class (or a base
    class inside the program) defines itself, each pair once."""
    seen = set()
    for cls in classes:
        for klass in cls.__mro__:
            if not klass.__module__.startswith("repro."):
                continue
            for name in names:
                if name in klass.__dict__ and (klass, name) not in seen:
                    seen.add((klass, name))
                    yield klass, name


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _nbytes(args, result) -> int:
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return total + (result.nbytes if isinstance(result, np.ndarray) else 0)


def _fused_words(name, args, result) -> int:
    """Fixed-point words a fused kernel computes over."""
    if name == "product_reduce_words":
        return math.prod(np.broadcast_shapes(args[1].shape, args[2].shape))
    if name == "csr_matvec_words":
        x = args[4]
        return _size(args[1]) * (x.shape[0] if x.ndim == 2 else 1)
    if name in ("reduce_inrange", "scale_encode_inrange"):
        return _size(args[1])
    return _size(result)


class Tracer:
    """Span recorder; :meth:`install` / :meth:`uninstall` the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One ``(name id, parent index, solve id, start, end)`` per span,
        #: in opening order (a placeholder while the span is open).
        self.spans: list = []
        #: Work counters of the spans that carry them, by span index.
        self.work: dict[int, int] = {}
        self.nbytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._busy: dict[str, bool] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: The solve that causes the spans being recorded (-1: set-up).
        self.solve_id = -1
        self._windows: dict[int, float] = {}
        self.program_windows = {"captured": [], "replayed": [], "interpreted": []}
        self.program_bailouts = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        """One span recorded from the benchmark's own code."""
        nid = self._id(name)
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (nid, parent, self.solve_id, start, end)

    def _traced(self, func, guard, name, pre=None, post=None):
        """``func`` wrapped to record a span per outermost call into
        ``guard``'s layer."""
        nid = self._id(name)
        busy = self._busy
        busy.setdefault(guard, False)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if busy[guard]:
                return func(*args, **kwargs)
            busy[guard] = True
            if pre is not None:
                pre(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy[guard] = False
                spans[idx] = (nid, parent, tracer.solve_id, start, end)
            if post is not None:
                post(idx, args, result)
            return result

        return wrapper

    def _wrap(self, owner, attr, guard, name, pre=None, post=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._traced(original, guard, name, pre, post))
        self._patches.append((owner, attr, original))

    def _wrap_module_function(self, module, attr, guard, name):
        original = getattr(module, attr)
        setattr(module, attr, self._traced(original, guard, name))
        self._patches.append((module, attr, original))

    # ------------------------------------------------------------------
    # Work counters
    # ------------------------------------------------------------------
    def _post_words(self, idx, args, result):
        self.work[idx] = _size(args[1])

    def _post_elems(self, idx, args, result):
        self.work[idx] = _size(result)

    def _pre_window(self, args):
        self._windows[id(args[0])] = time.perf_counter()

    def _post_window(self, idx, args, result):
        execution, reason = result
        began = self._windows.pop(id(args[0]), None)
        if began is not None:
            self.program_windows[execution].append(self.spans[idx][4] - began)
        if reason is not None:
            self.program_bailouts += 1

    def _post_lanes(self, idx, args, result):
        lanes = args[0].lane_ids
        self.work[idx] = 0 if lanes is None else int(lanes.shape[0])

    def _fused_post(self, name):
        def post(idx, args, result):
            self.work[idx] = _fused_words(name, args, result)
            self.nbytes[idx] = _nbytes(args, result)

        return post

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (before any input of
        the traced pass is built, so programs captured during the pass
        bind the wrapped kernels)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrap = self._wrap
        approxit = framework_mod.ApproxIt
        for attr, op in (("__init__", "init"), ("run", "run"), ("run_batch", "run_batch")):
            wrap(approxit, attr, "core.framework", f"core.framework.{op}")
        wrap(approxit, "characterization", "core.characterize", "core.characterize.table")
        for klass, attr in _own(STRATEGY_CLASSES, ("start", "decide")):
            wrap(klass, attr, "core.strategies", f"core.strategies.{attr}")
        self._wrap_module_function(
            adaptive_mod, "solve_energy_lp", "core.strategies.lp", "core.strategies.lp"
        )
        kernels = tuple(_subclasses(batched_mod.BatchedKernels))
        for klass, attr in _own(METHOD_CLASSES + kernels, ("direction", "update")):
            wrap(klass, attr, "solvers", f"solvers.{attr}")
        for klass, attr in _own(METHOD_CLASSES, ("objective", "gradient")):
            wrap(klass, attr, "solvers", "solvers.exact")
        for klass in (ProgramEngine, BatchedProgramEngine):
            wrap(klass, "begin_iteration", "arith.program", "arith.program.begin",
                 pre=self._pre_window)
            wrap(klass, "end_iteration", "arith.program", "arith.program.end",
                 post=self._post_window)
        for klass, attr in _own((ProgramEngine,), ENGINE_OPS):
            wrap(klass, attr, "arith.engine", f"arith.engine.{attr}")
        for klass, attr in _own((BatchedProgramEngine,), ENGINE_OPS):
            wrap(klass, attr, "arith.engine.batched", "arith.engine.batched.op",
                 post=self._post_lanes)
        for attr in ("charge", "charge_many"):
            wrap(EnergyLedger, attr, "arith.engine.ledger", "arith.engine.ledger")
        for attr in ("charge_lanes", "charge_many_lanes"):
            wrap(BatchedEnergyLedger, attr, "arith.engine.batched.ledger",
                 "arith.engine.batched.ledger")
        wrap(FixedPointFormat, "encode", "arith.fixed", "arith.fixed.encode",
             post=self._post_words)
        wrap(FixedPointFormat, "decode", "arith.fixed", "arith.fixed.decode")
        backends = _subclasses(KernelBackend)
        for klass, attr in _own(backends, ("add_signed", "add_unsigned")):
            wrap(klass, attr, "backends", "backends.add")
        for klass, attr in _own(backends, FUSED_KERNELS):
            wrap(klass, attr, "backends", "backends.fused", post=self._fused_post(attr))
        for klass, attr in _own(_subclasses(AdderModel), ("add_signed", "add_unsigned")):
            wrap(klass, attr, "hardware", "hardware.add", post=self._post_elems)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as flat columns."""
        n = len(self.spans)
        rec = np.array(self.spans, dtype=np.float64).reshape(n, 5)
        work = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        work[list(self.work)] = list(self.work.values())
        nbytes[list(self.nbytes)] = list(self.nbytes.values())
        return {
            "name_id": rec[:, 0].astype(np.int32),
            "parent": rec[:, 1].astype(np.int32),
            "solve": rec[:, 2].astype(np.int32),
            "start": rec[:, 3],
            "end": rec[:, 4],
            "work": work,
            "nbytes": nbytes,
        }

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, work, bytes."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - covered
        ids = a["name_id"]
        cols = {
            "calls": np.bincount(ids, minlength=k),
            "s": np.bincount(ids, weights=dur, minlength=k),
            "self_s": np.bincount(ids, weights=self_s, minlength=k),
            "work": np.bincount(ids, weights=a["work"], minlength=k),
            "bytes": np.bincount(ids, weights=a["nbytes"], minlength=k),
        }
        return {
            name: {col: float(vals[i]) for col, vals in cols.items()}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path, solve_ids: list[str]) -> None:
        """Write every span to ``path`` (``.npz``) plus the name tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            solve_ids=np.array(json.dumps(solve_ids)),
            **self.arrays(),
        )


def _ms_mean(values) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    t: dict[str, dict[str, float]],
    traced_wall_s: float,
    untraced_wall_s: float,
    traced_solve_wall_s: float,
    iters: int,
    accepted: int,
    rollbacks: int,
) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from one traced pass
    (``t`` is :meth:`Tracer.table`)."""
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "work": 0.0, "bytes": 0.0}

    def row(name):
        return t.get(name, zero)

    def rows(prefix):
        picked = [v for n, v in t.items() if n == prefix or n.startswith(prefix + ".")]
        return {col: sum(v[col] for v in picked) for col in zero}

    framework = rows("core.framework")
    decide, lp = row("core.strategies.decide"), row("core.strategies.lp")
    exact = row("solvers.exact")
    windows = tracer.program_windows
    n_windows = sum(len(v) for v in windows.values())
    encode, decode = row("arith.fixed.encode"), row("arith.fixed.decode")
    badd, fused = row("backends.add"), row("backends.fused")
    hw = row("hardware.add")
    batched, bledger = row("arith.engine.batched.op"), row("arith.engine.batched.ledger")
    ledger = row("arith.engine.ledger")
    self_total = sum(v["self_s"] for v in t.values())
    m = {
        "data.build_s": row("data.build")["s"],
        "core.characterize.s": row("core.characterize.table")["s"],
        "core.framework.self_s": framework["self_s"],
        "core.framework.iters": float(iters),
        "core.framework.rollbacks": float(rollbacks),
        "core.framework.accept_ratio": accepted / iters if iters else 0.0,
        "core.strategies.decide.calls": decide["calls"],
        "core.strategies.decide.s": decide["s"],
        "core.strategies.lp.calls": lp["calls"],
        "core.strategies.lp.s": lp["s"],
        "solvers.direction.self_s": row("solvers.direction")["self_s"],
        "solvers.update.self_s": row("solvers.update")["self_s"],
        "solvers.exact.calls": exact["calls"],
        "solvers.exact.s": exact["s"],
        "arith.program.captures": float(len(windows["captured"])),
        "arith.program.replays": float(len(windows["replayed"])),
        "arith.program.bailouts": float(tracer.program_bailouts),
        "arith.program.replay_ratio": len(windows["replayed"]) / n_windows if n_windows else 0.0,
        "arith.program.capture_iter_ms": _ms_mean(windows["captured"]),
        "arith.program.replay_iter_ms": _ms_mean(windows["replayed"]),
    }
    for op in REPORTED_ENGINE_OPS:
        r = row(f"arith.engine.{op}")
        m[f"arith.engine.{op}.calls"] = r["calls"]
        m[f"arith.engine.{op}.self_s"] = r["self_s"]
    m.update({
        "arith.engine.ledger.calls": ledger["calls"],
        "arith.engine.ledger.s": ledger["s"],
        "arith.engine.batched.calls": batched["calls"],
        "arith.engine.batched.self_s": batched["self_s"],
        "arith.engine.batched.lanes_per_call": (
            batched["work"] / batched["calls"] if batched["calls"] else 0.0
        ),
        "arith.engine.batched.ledger.s": bledger["s"],
        "arith.fixed.encode.calls": encode["calls"],
        "arith.fixed.encode.words": encode["work"],
        "arith.fixed.encode.s": encode["s"],
        "arith.fixed.decode.s": decode["s"],
        "backends.add.calls": badd["calls"],
        "backends.add.self_s": badd["self_s"],
        "backends.fused.calls": fused["calls"],
        "backends.fused.words": fused["work"],
        "backends.fused.s": fused["s"],
        "backends.fused.bytes": fused["bytes"],
        "hardware.add.calls": hw["calls"],
        "hardware.add.elems": hw["work"],
        "hardware.add.s": hw["s"],
        "hardware.add.ns_per_elem": 1e9 * hw["s"] / hw["work"] if hw["work"] else 0.0,
        "trace.overhead_pct": 100.0 * (traced_solve_wall_s / untraced_wall_s - 1.0),
        "trace.unattributed_s": traced_wall_s - self_total,
    })
    return {name: m[name] for name in PER_LAYER}
