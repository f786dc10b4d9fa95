"""AC sweeps and cutoff extraction."""

import numpy as np
import pytest

from repro.spice import Circuit, ac_sweep, cutoff_frequency


def first_order(r=1e3, c=1e-6):
    circ = Circuit("rc")
    circ.add_voltage_source("vin", "in", 0, 1.0)
    circ.add_resistor("r", "in", "out", r)
    circ.add_capacitor("c", "out", 0, c)
    return circ


def second_order(r1=1e3, c1=1e-6, r2=1e3, c2=1e-6):
    circ = Circuit("so")
    circ.add_voltage_source("vin", "in", 0, 1.0)
    circ.add_resistor("r1", "in", "m", r1)
    circ.add_capacitor("c1", "m", 0, c1)
    circ.add_resistor("r2", "m", "out", r2)
    circ.add_capacitor("c2", "out", 0, c2)
    return circ


class TestFirstOrder:
    def test_magnitude_matches_analytic(self):
        r, c = 1e3, 1e-6
        freqs = np.logspace(0, 5, 50)
        res = ac_sweep(first_order(r, c), "vin", "out", freqs)
        analytic = 1.0 / np.sqrt(1.0 + (2 * np.pi * freqs * r * c) ** 2)
        assert np.allclose(res.magnitude, analytic, rtol=1e-6)

    def test_cutoff_is_1_over_2pi_rc(self):
        r, c = 1e3, 1e-6
        res = ac_sweep(first_order(r, c), "vin", "out", np.logspace(0, 5, 400))
        assert np.isclose(cutoff_frequency(res), 1.0 / (2 * np.pi * r * c), rtol=0.01)

    def test_rolloff_20db_per_decade(self):
        res = ac_sweep(first_order(), "vin", "out", np.logspace(3, 5, 3))
        slope = res.magnitude_db[-1] - res.magnitude_db[-2]
        assert np.isclose(slope, -20.0, atol=1.0)

    def test_phase_approaches_minus_90(self):
        res = ac_sweep(first_order(), "vin", "out", np.array([1e6]))
        assert np.isclose(res.phase[0], -np.pi / 2, atol=0.01)


class TestSecondOrder:
    def test_rolloff_40db_per_decade(self):
        res = ac_sweep(second_order(), "vin", "out", np.logspace(4, 6, 3))
        slope = res.magnitude_db[-1] - res.magnitude_db[-2]
        assert np.isclose(slope, -40.0, atol=2.0)

    def test_sharper_than_first_order(self):
        """The paper's rationale for SO-LF: better separation past cutoff."""
        freqs = np.logspace(3, 5, 20)
        first = ac_sweep(first_order(), "vin", "out", freqs)
        second = ac_sweep(second_order(), "vin", "out", freqs)
        assert np.all(second.magnitude < first.magnitude)

    def test_dc_gain_unity(self):
        res = ac_sweep(second_order(), "vin", "out", np.array([0.01]))
        assert np.isclose(res.magnitude[0], 1.0, atol=1e-4)


class TestValidation:
    def test_unknown_source_raises(self):
        with pytest.raises(KeyError):
            ac_sweep(first_order(), "nope", "out", np.array([1.0]))

    def test_nonpositive_frequency_raises(self):
        with pytest.raises(ValueError):
            ac_sweep(first_order(), "vin", "out", np.array([0.0]))

    def test_cutoff_requires_crossing(self):
        res = ac_sweep(first_order(), "vin", "out", np.array([0.1, 0.2]))
        with pytest.raises(ValueError):
            cutoff_frequency(res)
