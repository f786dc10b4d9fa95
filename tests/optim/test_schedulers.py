"""The plateau LR schedule — the paper's training protocol."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import Adam, ReduceLROnPlateau


def make_optimizer(lr=0.1):
    return Adam([Parameter(np.zeros(1))], lr=lr)


class TestReduceLROnPlateau:
    def test_halves_after_patience_exceeded(self):
        opt = make_optimizer(0.1)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=2)
        sched.step(1.0)  # best
        for _ in range(3):  # 3 bad epochs > patience 2
            sched.step(2.0)
        assert np.isclose(opt.lr, 0.05)

    def test_improvement_resets_counter(self):
        opt = make_optimizer(0.1)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=2)
        sched.step(1.0)
        sched.step(2.0)
        sched.step(0.5)  # improvement
        sched.step(2.0)
        sched.step(2.0)
        assert opt.lr == 0.1  # only 2 bad epochs since reset

    def test_paper_protocol_terminates(self):
        # lr 0.1 halved on every plateau must cross 1e-5 after 14 halvings.
        opt = make_optimizer(0.1)
        sched = ReduceLROnPlateau(opt, factor=0.5, patience=0, min_lr=1e-5)
        sched.step(1.0)
        epochs = 0
        while not sched.should_stop() and epochs < 100:
            sched.step(1.0)
            epochs += 1
        assert sched.should_stop()
        assert epochs == 14  # ceil(log2(0.1 / 1e-5)) halvings at patience 0

    def test_threshold_requires_relative_improvement(self):
        opt = make_optimizer(0.1)
        sched = ReduceLROnPlateau(opt, patience=0, threshold=0.01)
        sched.step(1.0)
        sched.step(0.999)  # below 1% improvement -> counts as bad
        assert opt.lr < 0.1

    @pytest.mark.parametrize("bad", [{"factor": 0.0}, {"factor": 1.0}, {"patience": -1}])
    def test_rejects_bad_hyperparameters(self, bad):
        with pytest.raises(ValueError):
            ReduceLROnPlateau(make_optimizer(), **bad)
