"""Independent correctness checks of one benchmark round.

The oracle shares no engine code with the campaigns it checks: each
sampled fault is injected with :func:`repro.faults.injector.inject` and
the network is run with the plain per-step :meth:`SNN.run` on the
assembled test.  A check is one operation (the in-test activation check
is one per reported neuron); a failed operation is counted, never raised,
so a run always reaches its end.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.faults.injector import inject

#: Name of the one check that fails on every run, for the reason the
#: README gives under "Named fault": the generator's activated set is
#: computed per chunk from rest, but the Eq. 7 sleep gap does not bring
#: the state back to rest, so some neurons it reports never fire in the
#: assembled test.
NAMED_FAULT = "in_test_activation"


class Checks:
    """Tally of operations attempted and failed in a run."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()  # check name -> failed operations
        self.log = log

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.tally(name, 1, 0 if ok else 1, detail)

    def tally(self, name: str, attempted: int, failed: int, detail: str = "") -> None:
        self.attempted += attempted
        if failed:
            self.failed[name] += failed
            self.log(f"check failed: {name} x{failed} {detail}".rstrip())

    @property
    def correct(self) -> bool:
        """True iff every failure is the named fault."""
        return set(self.failed) <= {NAMED_FAULT}


def sample_indices(n_faults: int, count: int, seed: int) -> np.ndarray:
    """Seeded, sorted sample of catalog positions for the oracle."""
    rng = np.random.default_rng([seed, 0x0AC1E])
    return np.sort(rng.choice(n_faults, size=min(count, n_faults), replace=False))


def _reference_outputs(network, faults, indices, config, stimulus: np.ndarray):
    golden = network.run(stimulus)
    detected = np.zeros(len(indices), dtype=bool)
    l1 = np.zeros(len(indices))
    for row, idx in enumerate(indices):
        with inject(network, faults[idx], config):
            out = network.run(stimulus)
        diff = float(np.abs(out - golden).sum())
        l1[row] = diff
        detected[row] = diff > 0
    return detected, l1


def check_detection(checks: Checks, label: str, network, detection, faults,
                    indices, config, stimulus) -> None:
    """Campaign detection mask and ``output_l1`` against the oracle."""
    detected, l1 = _reference_outputs(
        network, faults, indices, config, stimulus.assembled()
    )
    for row, idx in enumerate(indices):
        ok = (bool(detection.detected[idx]) == bool(detected[row])
              and float(detection.output_l1[idx]) == l1[row])
        checks.record(
            f"{label}_detection", ok,
            f"fault {faults[idx].describe()}: campaign "
            f"({bool(detection.detected[idx])}, {detection.output_l1[idx]}) "
            f"oracle ({bool(detected[row])}, {l1[row]})",
        )


def check_classification(checks: Checks, network, classification, faults,
                         indices, config, inputs, labels) -> None:
    """Campaign ``accuracy_drop`` against accuracy under injection."""
    nominal = float((network.predict(inputs) == labels).mean())
    for idx in indices:
        with inject(network, faults[idx], config):
            faulty = float((network.predict(inputs) == labels).mean())
        drop = nominal - faulty
        got = float(classification.accuracy_drop[idx])
        checks.record(
            "accuracy_drop", got == drop,
            f"fault {faults[idx].describe()}: campaign {got} oracle {drop}",
        )


def check_activation(checks: Checks, network, generation, threshold: int):
    """Every neuron the generator reports activated must fire in the
    assembled test: one operation per reported neuron.  Returns (silent,
    reported) neuron counts per layer."""
    records = network.run_spiking_layers(generation.stimulus.assembled())
    silent, reported = [], []
    for rec, activated in zip(records, generation.activated_per_layer):
        fired = rec[:, 0, :].sum(axis=0) >= threshold
        silent.append(int((activated & ~fired).sum()))
        reported.append(int(activated.sum()))
    checks.tally(
        NAMED_FAULT, sum(reported), sum(silent),
        f"silent {silent} of reported {reported} per layer",
    )
    return silent, reported


def check_compaction(checks: Checks, stimulus, compacted, report,
                     compacted_coverage: float) -> None:
    """Compaction keeps chunk order, never lengthens the test, and
    reports the coverage the campaign engine measures on its output."""
    kept = report.kept_chunks
    ordered = (
        kept == sorted(set(kept))
        and len(compacted.chunks) == len(kept)
        and all(np.array_equal(c, stimulus.chunks[i])
                for c, i in zip(compacted.chunks, kept))
    )
    checks.record("compaction_order", ordered, f"kept {kept}")
    checks.record(
        "compaction_length",
        compacted.duration_steps <= stimulus.duration_steps
        and compacted.duration_steps == report.compacted_steps,
        f"{stimulus.duration_steps} -> {compacted.duration_steps} "
        f"(report {report.compacted_steps})",
    )
    checks.record(
        "compaction_coverage",
        report.compacted_coverage == compacted_coverage,
        f"report {report.compacted_coverage} campaign {compacted_coverage}",
    )
