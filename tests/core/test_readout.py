"""The output block's readout equals the full-sequence path, bit for bit.

:meth:`~repro.core.tpb.PrintedTemporalProcessingBlock.readout` runs the
output block's crossbar and ptanh on the final time step only.  Both
are memoryless, so the logits — and every parameter gradient — must be
bit-equal to the full-sequence oracle ``blocks[-1](seq)[..., -1, :]``
under the same seeded samplers, across the MC and scan backends.  A spy
on the crossbar and ptanh checks the row counts each block really runs.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from repro.autograd import no_grad
from repro.circuits import PrintedCrossbar, PrintedTanh, VariationSampler
from repro.circuits.variation import UniformVariation
from repro.compile import compile_plan
from repro.core import SCAN_BACKENDS, AdaptPNC, PTPNC, Trainer, TrainingConfig
from repro.core.models import PrintedTemporalClassifier, _coerce_sequences

BATCH, STEPS, CLASSES, DRAWS = 5, 12, 3, 3

MODELS = {
    "ptpnc": lambda rng: PTPNC(CLASSES, rng=rng),
    "adapt": lambda rng: AdaptPNC(CLASSES, rng=rng),
    "deep": lambda rng: PrintedTemporalClassifier(CLASSES, hidden_sizes=(4, 5), rng=rng),
    "multivariate": lambda rng: PrintedTemporalClassifier(CLASSES, in_channels=2, rng=rng),
}
MC_BACKENDS = ("batched", "sequential")
GRID = list(product(MODELS, MC_BACKENDS, SCAN_BACKENDS))


def _full_sequence_forward(model):
    """The full-sequence oracle: every block, output included, over all steps."""

    def forward(x):
        seq = _coerce_sequences(x, model.in_channels)
        for block in model.blocks[:-1]:
            seq = block(seq)
        return model.blocks[-1](seq)[..., -1, :] * model.logit_scale

    return forward


def _series(model, seed=1):
    rng = np.random.default_rng(seed)
    shape = (BATCH, STEPS) + ((model.in_channels,) if model.in_channels > 1 else ())
    return rng.uniform(-1, 1, shape), rng.integers(0, CLASSES, BATCH)


def _trainer(name, mc_backend, scan_backend, seed=0):
    model = MODELS[name](np.random.default_rng(seed))
    model.set_sampler(VariationSampler(UniformVariation(0.1), rng=np.random.default_rng(seed)))
    config = replace(
        TrainingConfig.ci(),
        mc_samples=DRAWS,
        mc_backend=mc_backend,
        scan_backend=scan_backend,
    )
    return Trainer(model, config, variation_aware=True, seed=seed)


def _loss_and_grads(trainer, x, y):
    trainer.model.zero_grad()
    loss = trainer._loss(x, y)
    loss.backward()
    grads = {n: p.grad.copy() for n, p in trainer.model.named_parameters()}
    return loss.data.copy(), grads


@pytest.mark.parametrize("name,mc_backend,scan_backend", GRID)
def test_loss_and_gradients_bit_equal_to_full_sequence(
    name, mc_backend, scan_backend, monkeypatch
):
    readout = _trainer(name, mc_backend, scan_backend)
    oracle = _trainer(name, mc_backend, scan_backend)
    monkeypatch.setattr(oracle.model, "forward", _full_sequence_forward(oracle.model))
    x, y = _series(readout.model)
    loss, grads = _loss_and_grads(readout, x, y)
    ref_loss, ref_grads = _loss_and_grads(oracle, x, y)
    assert np.array_equal(loss, ref_loss)
    assert grads.keys() == ref_grads.keys()
    for param, grad in grads.items():
        assert np.array_equal(grad, ref_grads[param]), param


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "single"])
def test_logits_bit_equal_to_full_sequence(name, batched):
    model = MODELS[name](np.random.default_rng(0))
    x, _ = _series(model)
    outputs = []
    for forward in (model.forward, _full_sequence_forward(model)):
        sampler = VariationSampler(UniformVariation(0.1), rng=np.random.default_rng(3))
        model.set_sampler(sampler)
        if batched:
            with sampler.batched(DRAWS):
                outputs.append(forward(x).data)
        else:
            outputs.append(forward(x).data)
    expected = (DRAWS, BATCH, CLASSES) if batched else (BATCH, CLASSES)
    assert outputs[0].shape == expected
    assert np.array_equal(outputs[0], outputs[1])


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("batched", [True, False], ids=["batched", "single"])
def test_output_block_crossbar_and_ptanh_see_final_step_only(
    name, batched, monkeypatch
):
    model = MODELS[name](np.random.default_rng(0))
    seen = []
    for cls in (PrintedCrossbar, PrintedTanh):
        original = cls.forward

        def spy(self, x, _original=original):
            seen.append((self, x.shape))
            return _original(self, x)

        monkeypatch.setattr(cls, "forward", spy)
    x, _ = _series(model)
    sampler = model.sampler
    if batched:
        with sampler.batched(DRAWS):
            model(x)
    else:
        model(x)
    lead = (DRAWS,) if batched else ()
    expected = []
    for block in model.blocks[:-1]:
        expected.append((block.crossbar, lead + (BATCH * STEPS, block.in_features)))
        expected.append((block.activation, lead + (BATCH * STEPS, block.out_features)))
    out = model.blocks[-1]
    expected.append((out.crossbar, lead + (BATCH, out.in_features)))
    expected.append((out.activation, lead + (BATCH, out.out_features)))
    assert [(id(m), s) for m, s in seen] == [(id(m), s) for m, s in expected]


def _full_sequence_plan(plan, x):
    """The full-sequence plan oracle: every layer's GEMM over all steps."""
    seq = plan._validate_batch(x)
    for li, layer in enumerate(plan.layers):
        for si, (a, b) in enumerate(layer.stages):
            seq = plan._scan(seq, a, b, (li, si))
        batch, steps = seq.shape[0], seq.shape[1]
        flat = seq.reshape(batch * steps, layer.in_features)
        act = plan._affine_ptanh(flat, layer)
        seq = act.reshape(batch, steps, layer.out_features)
    return seq[:, -1, :] * plan.logit_scale


def _plan_and_batch(name, batch):
    model = MODELS[name](np.random.default_rng(0))
    rng = np.random.default_rng(batch)
    shape = (batch, 64) + ((model.in_channels,) if model.in_channels > 1 else ())
    return model, compile_plan(model), rng.uniform(-1, 1, shape)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("batch", [2, 8, 64])
def test_plan_forward_bit_equal_to_full_sequence_plan(name, batch):
    _, plan, x = _plan_and_batch(name, batch)
    logits = plan.forward(x)
    assert np.array_equal(logits, _full_sequence_plan(plan, x))


@pytest.mark.parametrize("name", MODELS)
def test_single_series_keeps_model_plan_parity(name):
    """At batch 1 BLAS runs the final-step product as a GEMV, which may
    round differently from a row of the full-sequence GEMM.  Model and
    plan still hand BLAS the same shape, so they stay bit-equal."""
    model, plan, x = _plan_and_batch(name, 1)
    logits = plan.forward(x)
    with no_grad():
        assert np.array_equal(logits, model(x).data)
    np.testing.assert_allclose(logits, _full_sequence_plan(plan, x), rtol=0, atol=1e-14)
