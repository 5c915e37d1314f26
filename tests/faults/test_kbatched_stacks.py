"""K-batched synapse-fault weight stacks and the arithmetic they drive.

Both campaign engines lift a module's weights to a ``(K, ...)`` stack,
one faulty copy per fault, built by ``kbatched_weight_stacks``.  The
K-batched kernels hand every 2-D slice of a stack to BLAS; a stack whose
slices lack a unit inner stride silently runs on numpy's own matmul loop
instead, which is about 10x slower and sums in a different order.  These
tests pin the layout, and pin the consequence at the level where a
summation-order change first shows: the membrane potentials a segmented
``synapse_k`` group carries from one segment to the next must equal, bit
for bit, a per-fault ``inject()`` + ``run_sequence_numpy`` reference.
Spikes would hide the drift until a firing decision fell inside it.
"""

import numpy as np
import pytest

from repro.core.testset import TestStimulus
from repro.faults.catalog import build_catalog
from repro.faults.injector import inject
from repro.faults.model import FaultModelConfig, SynapseFault, SynapseFaultKind
from repro.faults.segmented import SegmentedDetectionCampaign
from repro.faults.simulator import (
    FaultSimulator,
    _synapse_entries,
    kbatched_weight_stacks,
)
from repro.snn.builder import (
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    NetworkSpec,
    RecurrentSpec,
    build_network,
)
from repro.snn.neuron import LIFParameters


def _net(input_shape, layers, seed=0):
    spec = NetworkSpec(
        name="stacks",
        input_shape=input_shape,
        layers=layers,
        lif=LIFParameters(leak=0.9, refractory_steps=1),
    )
    return build_network(spec, np.random.default_rng(seed))


NETS = {
    "dense": lambda: _net((12,), (DenseSpec(out_features=9),)),
    "recurrent": lambda: _net((12,), (RecurrentSpec(out_features=9),)),
    "conv": lambda: _net(
        (2, 5, 5),
        (ConvSpec(out_channels=3, kernel=3, padding=1), FlattenSpec(),
         DenseSpec(out_features=4)),
    ),
}


@pytest.mark.parametrize("window", [None, (2, 5)], ids=["permanent", "windowed"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("name", sorted(NETS))
def test_builder_returns_c_contiguous_stacks(name, dtype, window):
    net = NETS[name]()
    config = FaultModelConfig()
    catalog = build_catalog(net, config)
    module = net.modules[0]
    faults = [f for f in catalog.synapse_faults if f.module_index == 0][::7][:6]
    assert len(faults) == 6
    entries = _synapse_entries(module, faults, config)
    stacks, nominal = kbatched_weight_stacks(module, entries, dtype, window)
    params = module.parameters()
    assert len(stacks) == len(params)
    for p, stack in zip(params, stacks):
        assert stack.shape == (len(faults),) + p.data.shape
        assert stack.dtype == dtype
        assert stack.flags.c_contiguous, stack.strides
    for row, (pidx, widx, value) in enumerate(entries):
        expected = [p.data.astype(dtype) for p in params]
        expected[pidx].reshape(-1)[widx] = value
        for stack, want in zip(stacks, expected):
            assert np.array_equal(stack[row], want)
    if window is None:
        assert nominal is None
        return
    for p, stack in zip(params, nominal):
        assert stack.shape == (len(faults),) + p.data.shape
        assert stack.dtype == dtype
        for row in range(len(faults)):
            # Stride-0 along K is fine: each slice is the weight itself.
            assert stack[row].flags.c_contiguous
            assert np.array_equal(stack[row], p.data.astype(dtype))


def _recurrent_faults(net, count, rng):
    module = net.modules[0]
    kinds = list(SynapseFaultKind)[:3]  # dead, saturated +/-
    faults = []
    for j in range(count):
        pidx = j % 2  # feedforward and recurrent weights alike
        size = module.parameters()[pidx].data.size
        faults.append(
            SynapseFault(
                module_index=0,
                parameter_index=pidx,
                weight_index=int(rng.integers(size)),
                kind=kinds[j % len(kinds)],
            )
        )
    return faults


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "per-step"])
def test_segmented_synapse_k_potentials_equal_per_step_reference(fused):
    """Carried ``grp.pot`` after every segment equals a per-fault
    ``inject()`` + ``run_sequence_numpy`` run with state carried over the
    same segments, bit for bit, on a SHD-sized recurrent layer."""
    net = _net(
        (128,),
        (RecurrentSpec(out_features=140), DenseSpec(out_features=4)),
        seed=5,
    )
    config = FaultModelConfig()
    rng = np.random.default_rng(11)
    faults = _recurrent_faults(net, 12, rng)
    chunks = [
        (rng.random((d, 1, 128)) < 0.3).astype(float) for d in (14, 10, 12)
    ]
    stimulus = TestStimulus(chunks=chunks, input_shape=(128,))
    simulator = FaultSimulator(net, config, synapse_batch=8, fused=fused)

    carried = []

    def hook(campaign, group_index, segment_index):
        group = campaign.groups[group_index]
        assert group.kind == "synapse_k"
        carried.append(
            (group.indices, group.export_arrays()["grp.pot"].copy())
        )

    # A segment hook keeps the campaign on the exact arithmetic (float64,
    # no guarded event tiers); no dropping keeps every row integrating.
    SegmentedDetectionCampaign(
        simulator, stimulus, faults, drop_detected=False,
        divergence_exit=False, segment_hook=hook,
    ).run()
    assert len(carried) == stimulus.num_segments

    module = net.modules[0]
    reference = np.empty((stimulus.num_segments, len(faults), 140))
    for i, fault in enumerate(faults):
        state = module.init_state(1)
        for s in range(stimulus.num_segments):
            with inject(net, fault, config):
                module.run_sequence_numpy(stimulus.segment(s), state=state)
            reference[s, i] = state.potential[0]
    for s, (indices, pot) in enumerate(carried):
        want = reference[s, indices]
        assert np.array_equal(pot, want), (
            f"segment {s}: carried potentials drift from the per-step "
            f"reference by up to {np.abs(pot - want).max():.3g}"
        )
