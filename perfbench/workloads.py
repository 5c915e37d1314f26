"""Workload table and input sizing of the paper-flow benchmark.

Kept free of numpy and of the program's imports: the launcher reads the
worker count from here before numpy loads, to pin the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    bench: str  # benchmark definition the net comes from: "nmnist" | "shd"
    workers: int  # campaign worker processes (1 = in-process)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "nmnist_flow", "nmnist", 1,
            "conv net, serial: conv currents, im2col, SumPool and the assembled "
            "engine under compaction do the work; the recurrent kernel does none",
        ),
        Workload(
            "shd_flow", "shd", 1,
            "recurrent net, serial: the K-batched recurrent kernel does most of "
            "the campaign work; conv and pool do none",
        ),
        Workload(
            "nmnist_2workers", "nmnist", 2,
            "the nmnist_flow net with 2 campaign workers: store writes and reads "
            "and worker transport on the cold verify, warm re-verify and classify",
        ),
    )
}


@dataclass(frozen=True)
class Sizing:
    """Make-up of one workload's inputs (see README.md)."""

    train_size: int
    test_size: int
    sample_steps: int  # time steps per dataset sample
    epochs: int
    neuron_fraction: float  # catalog sample
    synapse_fraction: float
    steps_stage1: int  # generation budget
    probe_steps: int
    iterations: int
    chunk_steps: int  # the one duration the probe tries; chunks never grow
    classify_samples: int
    appended: int  # chunks appended one at a time for the warm re-verify
    oracle_faults: int  # faults the independent oracle re-simulates


SIZING = {
    "nmnist": Sizing(
        train_size=128, test_size=40, sample_steps=32, epochs=2,
        neuron_fraction=0.12, synapse_fraction=0.042,
        steps_stage1=150, probe_steps=60, iterations=6, chunk_steps=8,
        classify_samples=3, appended=2, oracle_faults=48,
    ),
    "shd": Sizing(
        train_size=320, test_size=40, sample_steps=40, epochs=4,
        neuron_fraction=0.25, synapse_fraction=0.0018,
        steps_stage1=200, probe_steps=120, iterations=5, chunk_steps=24,
        classify_samples=24, appended=2, oracle_faults=32,
    ),
}

#: Smoke mode: the ``tiny`` definitions, cut further so that a run takes
#: seconds; every check stays on.
SMOKE_SIZING = {
    "nmnist": Sizing(
        train_size=40, test_size=16, sample_steps=16, epochs=1,
        neuron_fraction=0.1, synapse_fraction=0.03,
        steps_stage1=20, probe_steps=20, iterations=3, chunk_steps=8,
        classify_samples=4, appended=1, oracle_faults=12,
    ),
    "shd": Sizing(
        train_size=40, test_size=16, sample_steps=16, epochs=1,
        neuron_fraction=0.5, synapse_fraction=0.05,
        steps_stage1=20, probe_steps=20, iterations=3, chunk_steps=8,
        classify_samples=4, appended=1, oracle_faults=12,
    ),
}

#: Seed of the dataset, the initial weights, training and the test
#: generator: each workload's net and test are fixed, and the run's
#: ``--seed`` draws the fault catalog the campaigns work on.
NET_SEED = 0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
