"""SPICE netlist file I/O.

Writes :class:`~repro.spice.Circuit` /
:class:`~repro.spice.NonlinearCircuit` objects as ngspice-compatible
netlists — including behavioural ptanh stages as B-sources — so a
compiled ADAPT-pNC can be handed to an external SPICE engine or a
printed-PDK flow.  A parser for the linear subset (R, C, V, I, E lines)
reads netlists back for round-tripping and for importing externally
designed filters.

Supported syntax (a pragmatic subset of Berkeley SPICE):

* ``R<name> n+ n- value`` — resistor
* ``C<name> n+ n- value [IC=v0]`` — capacitor
* ``V<name> n+ n- [DC] value`` — DC voltage source
* ``I<name> n+ n- [DC] value`` — DC current source
* ``E<name> n+ n- nc+ nc- gain`` — VCVS
* ``B<name> n+ n- V=expr`` — behavioural source (write-only)
* ``*`` comments, ``.title``, ``.end`` lines

Engineering suffixes (``k``, ``meg``, ``m``, ``u``, ``n``, ``p``, ``f``,
``g``, ``t``) are handled in both directions.
"""

from __future__ import annotations

import re
from typing import List

from .netlist import Circuit
from .waveforms import DC

__all__ = ["format_value", "parse_value", "circuit_to_spice", "spice_to_circuit"]

_SUFFIXES = [
    (1e12, "t"),
    (1e9, "g"),
    (1e6, "meg"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
]

_SUFFIX_VALUES = {
    "t": 1e12,
    "g": 1e9,
    "meg": 1e6,
    "k": 1e3,
    "m": 1e-3,
    "u": 1e-6,
    "n": 1e-9,
    "p": 1e-12,
    "f": 1e-15,
}


def format_value(value: float) -> str:
    """Render a component value with an engineering suffix (``4.7k``)."""
    if value == 0.0:
        return "0"
    magnitude = abs(value)
    for scale, suffix in _SUFFIXES:
        if magnitude >= scale:
            scaled = value / scale
            text = f"{scaled:.6g}"
            return f"{text}{suffix}"
    return f"{value:.6g}"


def parse_value(token: str) -> float:
    """Parse a SPICE value token (``4.7k``, ``100n``, ``1e-6``)."""
    token = token.strip().lower()
    match = re.fullmatch(r"([-+]?[0-9]*\.?[0-9]+(?:e[-+]?[0-9]+)?)(meg|[tgkmunpf])?.*", token)
    if not match:
        raise ValueError(f"cannot parse SPICE value {token!r}")
    base = float(match.group(1))
    suffix = match.group(2)
    if suffix:
        base *= _SUFFIX_VALUES[suffix]
    return base


def _node(label: str) -> str:
    return "0" if label == "0" else label


def circuit_to_spice(circuit: Circuit, title: str | None = None) -> str:
    """Serialise a circuit as an ngspice-compatible netlist string.

    Time-varying sources are emitted at their t = 0 value with a
    comment (external engines define their own stimuli); behavioural
    elements of a :class:`NonlinearCircuit` become B-sources and EGTs
    become commented placeholder lines referencing the pPDK model.
    """
    lines: List[str] = [f".title {title or circuit.name}"]

    def designator(kind: str, name: str) -> str:
        return name if name[:1].upper() == kind else f"{kind}{name}"

    for r in circuit.resistors:
        lines.append(
            f"{designator('R', r.name)} {_node(r.node_pos)} {_node(r.node_neg)} "
            f"{format_value(r.resistance)}"
        )
    for c in circuit.capacitors:
        ic = f" IC={format_value(c.initial_voltage)}" if c.initial_voltage else ""
        lines.append(
            f"{designator('C', c.name)} {_node(c.node_pos)} {_node(c.node_neg)} "
            f"{format_value(c.capacitance)}{ic}"
        )
    for v in circuit.voltage_sources:
        value = v.value(0.0)
        note = "" if isinstance(v.waveform, DC) else "  * time-varying; value at t=0"
        lines.append(
            f"{designator('V', v.name)} {_node(v.node_pos)} {_node(v.node_neg)} "
            f"DC {format_value(value)}{note}"
        )
    for i in circuit.current_sources:
        value = i.value(0.0)
        note = "" if isinstance(i.waveform, DC) else "  * time-varying; value at t=0"
        lines.append(
            f"{designator('I', i.name)} {_node(i.node_pos)} {_node(i.node_neg)} "
            f"DC {format_value(value)}{note}"
        )
    for e in circuit.vcvs:
        if e.name.startswith("_") and e.name.endswith("_branch"):
            continue  # internal placeholder row of a behavioural element
        lines.append(
            f"{designator('E', e.name)} {_node(e.node_pos)} {_node(e.node_neg)} "
            f"{_node(e.ctrl_pos)} {_node(e.ctrl_neg)} {format_value(e.gain)}"
        )

    behavioral = getattr(circuit, "behavioral", [])
    for b in behavioral:
        # Compiled ptanh stages carry their eta on the closure defaults.
        defaults = getattr(b.fn, "__defaults__", None)
        if defaults and len(defaults) == 4:
            e1, e2, e3, e4 = defaults
            expr = f"{e1:.6g}+{e2:.6g}*tanh((v({_node(b.ctrl)})-{e3:.6g})*{e4:.6g})"
        else:
            expr = f"f(v({_node(b.ctrl)}))  * opaque python transfer"
        lines.append(f"{designator('B', b.name)} {_node(b.out)} 0 V={expr}")

    for egt in getattr(circuit, "egts", []):
        lines.append(
            f"M{egt.name} {_node(egt.drain)} {_node(egt.gate)} {_node(egt.source)} "
            f"{_node(egt.source)} negt_model W=1 L=1"
            f"  * n-EGT: k={egt.params.k:.3g} vt={egt.params.v_t:.3g} lambda={egt.params.lambda_:.3g}"
        )

    lines.append(".end")
    return "\n".join(lines) + "\n"


def spice_to_circuit(text: str, name: str = "imported") -> Circuit:
    """Parse the linear subset of a SPICE netlist into a circuit.

    Handles R/C/V/I/E lines, comments, ``.title``/``.end``; raises on
    anything else (behavioural sources and transistors cannot be
    imported into the linear engine).
    """
    circuit = Circuit(name)
    for raw in text.splitlines():
        line = raw.split("*", 1)[0].strip()
        if not line:
            continue
        lower = line.lower()
        if lower.startswith(".title"):
            circuit.name = line.split(None, 1)[1] if " " in line else circuit.name
            continue
        if lower.startswith(".end"):
            break
        if lower.startswith("."):
            continue  # ignore other directives
        tokens = line.split()
        kind = tokens[0][0].upper()
        # Keep the full designator as the name: suffixes alone collide
        # across element kinds (R1 and C1 would both become "1").
        ident = tokens[0]
        if kind == "R":
            circuit.add_resistor(ident, tokens[1], tokens[2], parse_value(tokens[3]))
        elif kind == "C":
            ic = 0.0
            for tok in tokens[4:]:
                if tok.upper().startswith("IC="):
                    ic = parse_value(tok[3:])
            circuit.add_capacitor(ident, tokens[1], tokens[2], parse_value(tokens[3]), ic)
        elif kind == "V":
            value_tokens = [t for t in tokens[3:] if t.upper() != "DC"]
            circuit.add_voltage_source(ident, tokens[1], tokens[2], parse_value(value_tokens[0]))
        elif kind == "I":
            value_tokens = [t for t in tokens[3:] if t.upper() != "DC"]
            circuit.add_current_source(ident, tokens[1], tokens[2], parse_value(value_tokens[0]))
        elif kind == "E":
            circuit.add_vcvs(
                ident, tokens[1], tokens[2], tokens[3], tokens[4], parse_value(tokens[5])
            )
        else:
            raise ValueError(f"unsupported SPICE element: {line!r}")
    return circuit
