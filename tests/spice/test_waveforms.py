"""Source waveforms."""

import numpy as np
import pytest

from repro.spice import DC, PiecewiseLinear, Sine, Step


class TestDC:
    def test_constant(self):
        w = DC(2.5)
        assert w(0.0) == 2.5 and w(1e6) == 2.5


class TestStep:
    def test_transitions_at_t0(self):
        w = Step(low=0.0, high=1.0, t0=0.5)
        assert w(0.49) == 0.0
        assert w(0.5) == 1.0
        assert w(10.0) == 1.0


class TestSine:
    def test_value(self):
        w = Sine(amplitude=2.0, frequency=1.0, offset=0.5)
        assert np.isclose(w(0.25), 0.5 + 2.0)  # quarter period: peak

    def test_phase(self):
        w = Sine(amplitude=1.0, frequency=1.0, phase=np.pi / 2)
        assert np.isclose(w(0.0), 1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Sine(frequency=0.0)


class TestPiecewiseLinear:
    def test_interpolates(self):
        w = PiecewiseLinear([0.0, 1.0], [0.0, 2.0])
        assert np.isclose(w(0.5), 1.0)

    def test_holds_outside_range(self):
        w = PiecewiseLinear([0.0, 1.0], [3.0, 5.0])
        assert w(-1.0) == 3.0
        assert w(2.0) == 5.0

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            PiecewiseLinear([0.0], [1.0])
