"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer of the program
(see :func:`install`) from outside: nothing in ``src/`` is edited, the
wrappers are installed for one run and removed afterwards.  A span is
recorded only inside a *root* span that the benchmark opens around a
timed stage (set-up, generate, verify, ...), so the correctness oracle
and other untimed work never count.

Self time of a span is its duration minus the time its child spans
cover, so a LIF scan nested inside a convolution kernel is counted once,
under ``snn.lif_scan``.  The ``training.fit`` span hides its subtree:
training runs the same autograd and layer code as generation, and is
reported as one layer.

Spans are kept in memory and written out as Chrome trace-event JSON
(``chrome://tracing`` / Perfetto) when the run ends.  Forked campaign
workers inherit the wrappers but their spans die with them; the parent
sees only the ``faults.sharded`` call that waits for them.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span stack with per-name self-time and call-count totals."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # frames: [name, start, child_time, root]
        self.opaque = 0
        self.events: List[tuple] = []  # (name, start, end, depth)
        self.self_time: Dict[tuple, float] = defaultdict(float)  # (root, name)
        self.calls: Dict[tuple, int] = defaultdict(int)
        self.counts: Dict[tuple, float] = defaultdict(float)
        self.root_time: Dict[str, float] = defaultdict(float)
        self.root_runs: Dict[str, int] = defaultdict(int)
        self.t0 = time.perf_counter()

    @property
    def active(self) -> bool:
        return bool(self.stack) and not self.opaque

    def enter(self, name: str, root: Optional[str] = None) -> None:
        if root is None:
            root = self.stack[-1][3]
        self.stack.append([name, time.perf_counter(), 0.0, root])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, root = self.stack.pop()
        duration = end - start
        self.self_time[(root, name)] += duration - child
        self.calls[(root, name)] += 1
        self.events.append((name, start, end, len(self.stack)))
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.root_time[root] += duration
            self.root_runs[root] += 1

    def root(self, stage: str) -> "_RootSpan":
        """Context manager opening the root span of one timed stage."""
        return _RootSpan(self, stage)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter attributed to the current root (no-op outside one)."""
        if self.stack:
            self.counts[(self.stack[-1][3], name)] += amount

    # ------------------------------------------------------------------
    def per_root(self, name: str, roots, field: str = "self") -> float:
        """Total of ``name`` over ``roots``, averaged over each root's runs."""
        table = {"self": self.self_time, "calls": self.calls, "count": self.counts}[field]
        total = 0.0
        for root in roots:
            runs = self.root_runs.get(root, 0)
            if runs:
                total += table.get((root, name), 0.0) / runs
        return total

    def attributed_share(self, root: str) -> float:
        """Share of a root's wall time that its child spans account for."""
        wall = self.root_time.get(root, 0.0)
        if not wall:
            return 0.0
        return 1.0 - self.self_time.get((root, "stage." + root), 0.0) / wall

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, start, end, depth in self.events
        ]
        events.sort(key=lambda event: event["ts"])
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class _RootSpan:
    def __init__(self, tracer: Tracer, stage: str) -> None:
        self.tracer = tracer
        self.stage = stage

    def __enter__(self):
        self.tracer.enter("stage." + self.stage, root=self.stage)
        return self

    def __exit__(self, *exc):
        self.tracer.exit()
        return False


def _span_wrapper(tracer: Tracer, fn: Callable, name: Optional[str],
                  opaque: bool = False, after: Optional[Callable] = None,
                  when: Optional[Callable] = None):
    """Wrap ``fn`` in a span ``name`` (``None``: count only).
    ``after(result, args, kwargs)`` records counters; ``when(args,
    kwargs)`` gates the span per call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active or (when is not None and not when(args, kwargs)):
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        tracer.enter(name)
        if opaque:
            tracer.opaque += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            if opaque:
                tracer.opaque -= 1
            tracer.exit()
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


class Instrumentation:
    """Installs span wrappers on the program's layer entry points and
    removes them again (use as a context manager)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[tuple] = []

    def patch(self, owner, attr: str, name: Optional[str], **options) -> None:
        """Replace ``owner.attr`` (a module function or a method the class
        defines itself) by a span wrapper."""
        saved = getattr(owner, attr)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, _span_wrapper(self.tracer, getattr(owner, attr), name, **options))

    def __enter__(self):
        install(self)
        return self

    def __exit__(self, *exc):
        for owner, attr, saved in reversed(self._saved):
            setattr(owner, attr, saved)
        self._saved.clear()
        return False


#: Fast-path kernel entry points of each layer type.  The autograd path
#: (``forward_sequence*``) is covered by ``snn.forward_fused`` instead.
KERNEL_METHODS = (
    "run_sequence_numpy",
    "run_sequence_fused",
    "sequence_currents",
    "run_sequence_kbatched",
    "run_sequence_kbatched_fused",
    "neuron_input_currents",
    "synapse_splice_currents",
)


def install(inst: Instrumentation) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.autograd.optim import Adam
    from repro.autograd.tensor import Tensor
    from repro.core import checkpoint, compaction, coverage, duration, generator
    from repro.experiments import pipeline
    from repro.faults import parallel, segmented, simulator, store
    from repro.snn import layers, network
    from repro.training import trainer

    tracer = inst.tracer
    patch = inst.patch

    # Set-up layers.
    patch(trainer.Trainer, "fit", "training.fit", opaque=True)
    patch(pipeline, "build_catalog", "faults.catalog")

    # Generation layers.
    patch(generator, "find_minimum_duration", "core.min_duration")
    patch(generator, "run_stage", "core.stage")
    patch(duration, "run_stage", "core.stage")
    patch(generator.TestGenerator, "activation_sets", "core.activation_sets")
    patch(network.SNN, "forward_fused", "snn.forward_fused")
    patch(Tensor, "backward", "autograd.backward")
    patch(Adam, "step", "autograd.adam",
          after=lambda result, args, kwargs: tracer.count("core.optimizer_steps"))
    patch(checkpoint.GeneratorCheckpoint, "save", "core.checkpoint_write")
    patch(checkpoint.CampaignCheckpoint, "save", "core.checkpoint_write")

    # Kernels, attributed by layer type.
    kinds = {
        layers.ConvLIF: "snn.conv",
        layers.SumPool: "snn.pool",
        layers.DenseLIF: "snn.dense",
        layers.RecurrentLIF: "snn.recurrent",
    }
    for cls, name in kinds.items():
        for method in KERNEL_METHODS:
            # Only methods the class defines: the campaign engine detects
            # a layer's fast paths by comparing them with the base class's.
            if method in vars(cls):
                patch(cls, method, name)
    patch(layers, "lif_scan_numpy", "snn.lif_scan")

    # Campaign layers.
    patch(coverage, "verify_coverage", "faults.campaign")
    patch(segmented.GoldenSegmentRunner, "run_segment", "faults.golden")
    patch(segmented.GoldenSegmentRunner, "skip_segments", "faults.golden")
    patch(simulator.FaultSimulator, "classify", "faults.classify")
    patch(simulator.FaultSimulator, "detect", "faults.detect_assembled")
    patch(compaction, "compact_test", "core.compact")

    def pooled(args, kwargs):
        return parallel.resolve_workers(kwargs.get("workers")) > 1

    patch(coverage, "parallel_detect_segmented", "faults.sharded", when=pooled)
    patch(pipeline, "parallel_classify", "faults.sharded", when=pooled)

    def shards(result, args, kwargs):
        if any(frame[0] == "faults.sharded" for frame in tracer.stack):
            tracer.count("faults.shards", len(result))

    patch(parallel, "shard_bounds", None, after=shards)

    # Coverage store traffic.
    def put_done(written, args, kwargs):
        tracer.count("faults.store_puts")
        if written:
            tracer.count("faults.store_bytes_written", len(args[2]))

    def get_done(record, args, kwargs):
        tracer.count("faults.store_gets")
        if record is not None:
            tracer.count("faults.store_hits")

    patch(store.CoverageStore, "put_bytes", "faults.store_put", after=put_done)
    patch(store.CoverageStore, "get", "faults.store_get", after=get_done)

