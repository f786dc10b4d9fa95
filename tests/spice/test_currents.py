"""Resistor currents and simulation-measured power."""

import numpy as np
import pytest

from repro.spice import Circuit, resistor_currents, resistor_power


def static_power(circuit):
    return sum(resistor_power(circuit).values())


def divider(v=10.0, r1=1e3, r2=1e3):
    c = Circuit()
    c.add_voltage_source("vin", "in", 0, v)
    c.add_resistor("r1", "in", "mid", r1)
    c.add_resistor("r2", "mid", 0, r2)
    return c


class TestResistorCurrents:
    def test_series_currents_equal(self):
        i = resistor_currents(divider())
        assert np.isclose(i["r1"], i["r2"])
        assert np.isclose(i["r1"], 5e-3)

    def test_sign_convention(self):
        i = resistor_currents(divider())
        assert i["r1"] > 0  # flows pos -> neg (in -> mid)

    def test_ohms_law(self):
        c = divider(v=3.0, r1=2e3, r2=1e3)
        i = resistor_currents(c)
        assert np.isclose(i["r1"], 3.0 / 3e3)


class TestPower:
    def test_i_squared_r(self):
        p = resistor_power(divider())
        assert np.isclose(p["r1"], 25e-3)
        assert np.isclose(p["r2"], 25e-3)

    def test_tellegen_balance(self):
        """Resistive dissipation equals delivered source power."""
        c = divider(v=7.0, r1=3.3e3, r2=4.7e3)
        dissipated = static_power(c)
        delivered = 7.0 * resistor_currents(c)["r1"]
        assert np.isclose(dissipated, delivered, rtol=1e-9)

    def test_parallel_network(self):
        c = Circuit()
        c.add_voltage_source("v", "a", 0, 1.0)
        c.add_resistor("ra", "a", 0, 1e3)
        c.add_resistor("rb", "a", 0, 2e3)
        total = static_power(c)
        assert np.isclose(total, 1.0 / 1e3 + 1.0 / 2e3)


class TestCrossbarPowerCrossCheck:
    def test_simulated_power_matches_hw_estimate_order(self, rng):
        """The hw power estimate and the MNA-measured dissipation of a
        compiled crossbar agree within the utilisation-factor margin."""
        from repro.compile.model_compiler import _compile_crossbar
        from repro.circuits import PrintedCrossbar, DEFAULT_PDK
        from repro.hw import estimate_power
        from repro.spice import NonlinearCircuit

        xb = PrintedCrossbar(3, 2, pdk=DEFAULT_PDK, rng=rng)
        circuit = NonlinearCircuit()
        circuit.add_voltage_source("vdd", "vdd", 0, 1.0)
        circuit.add_vcvs("evss", "vss", 0, "vdd", 0, -1.0)
        inputs = []
        for i in range(3):
            circuit.add_voltage_source(f"vin{i}", f"in{i}", 0, 0.5)
            inputs.append(f"in{i}")
        _compile_crossbar(circuit, xb, inputs, "b0", "vdd", "vss")

        measured = static_power(circuit)
        estimated = estimate_power(xb).crossbar_resistors
        # same order of magnitude: the estimate folds operating-point
        # statistics into a 0.5 utilisation factor
        assert estimated / 10 < measured < estimated * 10
