"""The paper flow the benchmark times, built from the program's public calls.

One run: ``SETUP_REPEATS`` set-ups (dataset, training, fault catalog),
then whole rounds until ``--seconds`` of timed stages have passed.  A
round is

    generate -> cold verify of the test minus its last ``appended``
    chunks into an empty coverage store -> append those chunks one at a
    time, re-verifying warm after each -> classify -> compact

followed by the untimed checks of :mod:`oracle`.  Every round and every
set-up runs in a fresh results directory.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List

import oracle
from workloads import NET_SEED, SETUP_REPEATS, SIZING, SMOKE_SIZING, Sizing, Workload

from repro.core import compaction, coverage
from repro.core.testset import TestStimulus
from repro.datasets import NMNISTLike, SHDLike
from repro.experiments.benchmarks import BenchmarkDefinition, get_benchmark
from repro.experiments.pipeline import ExperimentPipeline
from repro.faults.store import CoverageStore

STAGES = ("generate", "verify", "reverify", "classify", "compact")


def make_definition(bench: str, smoke: bool) -> BenchmarkDefinition:
    """The committed definition (``small``, or ``tiny`` in smoke mode)
    with the sizes of :data:`SIZING`.

    Generation gets an iteration budget it always reaches first: the
    wall-clock limit is out of reach and stalls never stop it early, so
    the test does not depend on host speed.  Every chunk lasts
    ``chunk_steps``: the duration probe tries that one rung and chunks
    never grow, so the test length is the same for every seed.
    """
    base = get_benchmark(bench, "tiny" if smoke else "small")
    size: Sizing = (SMOKE_SIZING if smoke else SIZING)[bench]
    shape = base.spec.input_shape
    if bench == "shd":
        def dataset():
            return SHDLike(train_size=size.train_size, test_size=size.test_size,
                           channels=shape[0], steps=size.sample_steps, seed=NET_SEED)
    else:
        def dataset():
            return NMNISTLike(train_size=size.train_size, test_size=size.test_size,
                              size=shape[-1], steps=size.sample_steps, seed=NET_SEED)
    return BenchmarkDefinition(
        name=bench,
        scale="perfbench-smoke" if smoke else "perfbench",
        dataset_factory=dataset,
        spec=base.spec,
        training=replace(base.training, epochs=size.epochs),
        fault_config=replace(
            base.fault_config,
            neuron_sample_fraction=size.neuron_fraction,
            synapse_sample_fraction=size.synapse_fraction,
        ),
        testgen_config=replace(
            base.testgen_config,
            steps_stage1=size.steps_stage1,
            probe_steps=size.probe_steps,
            max_iterations=size.iterations,
            stall_iterations=size.iterations,
            t_in_start=size.chunk_steps,
            t_in_max=size.chunk_steps,
            max_growths=0,
            time_limit_s=1e9,
        ),
        classify_samples=size.classify_samples,
    )


@dataclass
class RunResult:
    setup_s: List[float] = field(default_factory=list)
    stage_s: Dict[str, List[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    verify_rate: List[float] = field(default_factory=list)
    test_steps: int = 0
    fault_coverage: float = 0.0
    store_bytes: int = 0
    iterations: int = 0
    fault_segments: int = 0
    rounds: int = 0

    def timed_s(self) -> float:
        return sum(sum(values) for values in self.stage_s.values())


class Flow:
    """Runs one workload for one seed inside ``scratch`` (removed by the
    caller).  ``tracer`` (a :class:`tracing.Tracer`) opens a root span
    around every timed stage."""

    def __init__(self, workload: Workload, seed: int, scratch: Path,
                 smoke: bool = False, tracer=None, log=print) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.size = (SMOKE_SIZING if smoke else SIZING)[workload.bench]
        self.definition = make_definition(workload.bench, smoke)
        self.tracer = tracer
        self.log = log
        self.checks = oracle.Checks(log)
        self.result = RunResult()
        self._dirs = 0

    def _fresh_dir(self, kind: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{kind}{self._dirs:02d}"
        path.mkdir()
        return path

    @contextmanager
    def _timed(self, stage: str, sink: List[float]):
        with self.tracer.root(stage) if self.tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                sink.append(time.perf_counter() - start)

    def _pipeline(self, results_dir: Path, seed: int) -> ExperimentPipeline:
        # The benchmark passes its own CoverageStore to verify_coverage.
        return ExperimentPipeline(
            self.definition, results_dir=results_dir, seed=seed,
            workers=self.workload.workers, store_dir=False,
        )

    # ------------------------------------------------------------------
    def set_up(self) -> Path:
        """Dataset, training and catalog, each time from scratch.  Returns
        the results directory holding the trained weights."""
        results_dir = self._fresh_dir("setup")
        pipeline = self._pipeline(results_dir, NET_SEED)
        with self._timed("setup", self.result.setup_s):
            pipeline.dataset()
            pipeline.network()
            pipeline.catalog()
        self.log(f"set-up {len(self.result.setup_s)}: {self.result.setup_s[-1]:.3f}s, "
                 f"test accuracy {pipeline.training_metrics().test_accuracy:.3f}")
        return results_dir

    def run(self, seconds: float) -> RunResult:
        trained = self.set_up()
        for _ in range(SETUP_REPEATS - 1):
            self.set_up()
        while True:
            self.run_round(trained)
            if self.result.timed_s() >= seconds:
                return self.result

    # ------------------------------------------------------------------
    def run_round(self, trained: Path) -> None:
        result = self.result
        size = self.size
        workers = self.workload.workers
        round_dir = self._fresh_dir("round")
        # The set-up's cache holds only the trained weights.  Placed under
        # a seed's cache key, they are what that seed's pipeline loads
        # instead of training again.  The net and the test are fixed (the
        # pipeline seeded with NET_SEED generates); the run's seed draws
        # the fault catalog that verify, classify and compact work on.
        key = self.definition.cache_key
        for seed in {NET_SEED, self.seed}:
            shutil.copytree(trained / "cache" / f"{key}-seed{NET_SEED}",
                            round_dir / "cache" / f"{key}-seed{seed}")
        generating = self._pipeline(round_dir, NET_SEED)
        pipeline = self._pipeline(round_dir, self.seed)
        network = pipeline.network()
        faults = pipeline.catalog().faults
        config = pipeline.fault_config
        store = CoverageStore(round_dir / "store")
        segments = []

        def progress(done: int, total: int) -> None:
            segments[-1] = done

        with self._timed("generate", result.stage_s["generate"]):
            generation = generating.generation()
        stimulus = generation.stimulus
        chunks = stimulus.chunks
        cold = TestStimulus(chunks=chunks[: len(chunks) - size.appended],
                            input_shape=stimulus.input_shape)

        segments.append(0)
        with self._timed("verify", result.stage_s["verify"]):
            cold_det, _ = coverage.verify_coverage(
                network, cold, faults, config, progress=progress, workers=workers,
                exact_metrics=True, store=store,
            )
        result.verify_rate.append(
            len(faults) * cold.duration_steps / result.stage_s["verify"][-1]
        )
        with self._timed("reverify", result.stage_s["reverify"]):
            for end in range(len(cold.chunks) + 1, len(chunks) + 1):
                segments.append(0)
                warm = TestStimulus(chunks=chunks[:end], input_shape=stimulus.input_shape)
                warm_det, _ = coverage.verify_coverage(
                    network, warm, faults, config, progress=progress, workers=workers,
                    exact_metrics=True, store=store,
                )
        with self._timed("classify", result.stage_s["classify"]):
            classification = pipeline.classification()
        with self._timed("compact", result.stage_s["compact"]):
            compacted, report = compaction.compact_test(network, stimulus, faults, config)

        result.rounds += 1
        result.test_steps = stimulus.duration_steps
        result.fault_coverage = warm_det.detection_rate()
        result.store_bytes = int(store.stat()["bytes"])
        result.iterations = len(generation.iterations)
        result.fault_segments = sum(segments)
        self.log(
            f"round {result.rounds}: {len(chunks)} chunks, {stimulus.duration_steps} steps, "
            f"coverage {result.fault_coverage:.4f}, "
            + ", ".join(f"{s} {result.stage_s[s][-1]:.3f}s" for s in STAGES)
        )
        self._check_round(network, pipeline, generation, faults, cold, cold_det,
                          warm_det, classification, compacted, report, store)

    def _check_round(self, network, pipeline, generation, faults, cold, cold_det,
                     warm_det, classification, compacted, report, store) -> None:
        checks = self.checks
        config = pipeline.fault_config
        stimulus = generation.stimulus
        checks.record("generation_budget", not generation.timed_out
                      and len(generation.iterations) <= self.size.iterations,
                      f"timed_out={generation.timed_out}")
        indices = oracle.sample_indices(len(faults), self.size.oracle_faults, self.seed)
        oracle.check_detection(checks, "cold", network, cold_det, faults, indices,
                               config, cold)
        oracle.check_detection(checks, "warm", network, warm_det, faults, indices,
                               config, stimulus)
        inputs, labels = pipeline.classify_data()
        oracle.check_classification(checks, network, classification, faults, indices,
                                    config, inputs, labels)
        if report.dropped_chunks:
            measured, _ = coverage.verify_coverage(
                network, compacted, faults, config, workers=self.workload.workers,
                exact_metrics=True, store=store,
            )
            compacted_coverage = measured.detection_rate()
        else:
            compacted_coverage = warm_det.detection_rate()
        oracle.check_compaction(checks, stimulus, compacted, report, compacted_coverage)
        self.log(f"compaction: union of per-chunk detections {report.original_coverage:.4f}, "
                 f"compacted test {report.compacted_coverage:.4f} "
                 f"(kept {len(report.kept_chunks)}/{len(stimulus.chunks)})")
        threshold = int(self.definition.testgen_config.activation_threshold)
        silent, reported = oracle.check_activation(checks, network, generation, threshold)
        self.log(f"in-test activation: {sum(reported) - sum(silent)} of {sum(reported)} "
                 f"reported-activated neurons fire (silent per layer {silent})")


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


def end_to_end(result: RunResult) -> Dict[str, tuple]:
    """The untraced run's metrics: ``name -> (value, unit)``."""
    median = statistics.median
    return {
        "setup_s": (median(result.setup_s), "s"),
        "generate_s": (median(result.stage_s["generate"]), "s"),
        "verify_rate": (median(result.verify_rate), "fault-steps/s"),
        "reverify_s": (median(result.stage_s["reverify"]), "s"),
        "classify_s": (median(result.stage_s["classify"]), "s"),
        "compact_s": (median(result.stage_s["compact"]), "s"),
        "test_steps": (result.test_steps, "steps"),
        "fault_coverage": (result.fault_coverage, "ratio"),
        "store_mb": (result.store_bytes / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(tracer, result: RunResult) -> Dict[str, tuple]:
    """The traced run's metrics: self times and counts per layer, per
    set-up for the set-up layers and per round for the rest."""
    setup = ("setup",)
    metrics: Dict[str, tuple] = {}

    def seconds(metric: str, span: str, roots=STAGES) -> None:
        metrics[metric] = (tracer.per_root(span, roots), "s")

    def count(metric: str, name: str, field: str, unit: str = "count") -> None:
        metrics[metric] = (tracer.per_root(name, STAGES, field), unit)

    seconds("training.fit_s", "training.fit", setup)
    seconds("faults.catalog_s", "faults.catalog", setup)
    for span in ("core.min_duration", "core.stage", "core.activation_sets",
                 "snn.forward_fused", "autograd.backward", "autograd.adam"):
        seconds(span + "_s", span)
    metrics["core.iterations"] = (result.iterations, "count")
    count("core.optimizer_steps", "core.optimizer_steps", "count")
    for layer in ("conv", "pool", "dense", "recurrent", "lif_scan"):
        seconds(f"snn.{layer}_s", f"snn.{layer}")
        count(f"snn.{layer}_calls", f"snn.{layer}", "calls")
    seconds("faults.golden_s", "faults.golden")
    seconds("faults.campaign_self_s", "faults.campaign")
    metrics["faults.fault_segments"] = (result.fault_segments, "count")
    seconds("faults.classify_self_s", "faults.classify")
    seconds("faults.detect_assembled_s", "faults.detect_assembled")
    seconds("core.compact_self_s", "core.compact")
    seconds("faults.store_put_s", "faults.store_put")
    count("faults.store_puts", "faults.store_puts", "count")
    count("faults.store_bytes_written", "faults.store_bytes_written", "count", "B")
    seconds("faults.store_get_s", "faults.store_get")
    count("faults.store_gets", "faults.store_gets", "count")
    count("faults.store_hits", "faults.store_hits", "count")
    seconds("core.checkpoint_write_s", "core.checkpoint_write")
    seconds("faults.sharded_s", "faults.sharded")
    count("faults.shards", "faults.shards", "count")
    metrics["trace.timed_s"] = (result.timed_s() / max(result.rounds, 1), "s")
    metrics["trace.spans"] = (len(tracer.events), "count")
    for stage in setup + STAGES:
        metrics[f"trace.{stage}_attributed"] = (tracer.attributed_share(stage), "ratio")
    return metrics
