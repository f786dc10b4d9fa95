"""Process-level precision policy for the autograd engine.

Every tensor in the reproduction used to be hardwired to ``float64``.
That is the right *reference* numerics — the float64 path is the oracle
the equivalence suites pin against — but on a bandwidth-bound numpy
stack it moves twice the memory the forward/backward actually needs.
This module introduces a process-level :class:`PrecisionPolicy` that the
whole engine resolves its allocation dtype from:

``"float64"`` (default)
    Compute and master dtype are both ``np.float64``.  This policy is
    **bit-equal to the seed implementation** — it is the oracle, the
    same pattern as the sequential MC backend (PR 1) and the unfused
    scan backend (PR 2).
``"float32"``
    Compute and master dtype are both ``np.float32``: parameters,
    activations, gradients and optimizer moments all live in single
    precision.
``"mixed"``
    PyTorch-AMP style: ``np.float32`` compute with ``np.float64``
    *master* weights and optimizer moments inside
    :class:`~repro.optim.Adam`.  The forward/backward move float32;
    the optimizer accumulates updates in float64 and casts back to the
    compute dtype at the step boundary, keeping long-horizon update
    numerics stable.

The active policy is plain module-level state (the engine is
single-threaded per process; worker processes of the sweep orchestrator
each resolve their own policy from the cell's
:class:`~repro.core.TrainingConfig`).  Use :func:`set_precision` for a
process-wide switch and :func:`use_precision` for a scoped one::

    with use_precision("float32"):
        out = model(x)          # float32 forward

Dtype-aware tolerances
----------------------
Finite-difference gradient checks and the float32-vs-float64
equivalence suites need looser tolerances at lower precision;
:func:`default_tolerances` centralises those per-dtype defaults so test
suites and benches agree on what "close enough" means.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

__all__ = [
    "PRECISION_POLICIES",
    "PrecisionPolicy",
    "get_precision",
    "set_precision",
    "use_precision",
    "resolve_policy",
    "compute_dtype",
    "default_tolerances",
]

#: Recognised policy names, in documentation order.
PRECISION_POLICIES: Tuple[str, ...] = ("float64", "float32", "mixed")


@dataclass(frozen=True)
class PrecisionPolicy:
    """An immutable (name, compute dtype, master dtype) triple."""

    name: str
    compute: np.dtype
    master: np.dtype

    @property
    def is_mixed(self) -> bool:
        """Whether the optimizer should keep separate master weights."""
        return self.compute != self.master


_POLICIES: Dict[str, PrecisionPolicy] = {
    "float64": PrecisionPolicy("float64", np.dtype(np.float64), np.dtype(np.float64)),
    "float32": PrecisionPolicy("float32", np.dtype(np.float32), np.dtype(np.float32)),
    "mixed": PrecisionPolicy("mixed", np.dtype(np.float32), np.dtype(np.float64)),
}

_active: PrecisionPolicy = _POLICIES["float64"]


def _resolve(policy: "str | PrecisionPolicy") -> PrecisionPolicy:
    """Coerce a policy name (or policy) to a :class:`PrecisionPolicy`."""
    if isinstance(policy, PrecisionPolicy):
        return policy
    try:
        return _POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown precision policy {policy!r} "
            f"(choose from {', '.join(PRECISION_POLICIES)})"
        ) from None


def resolve_policy(policy: "str | PrecisionPolicy") -> PrecisionPolicy:
    """Look up a policy by name without activating it."""
    return _resolve(policy)


def get_precision() -> PrecisionPolicy:
    """Return the active :class:`PrecisionPolicy`."""
    return _active


def set_precision(policy: "str | PrecisionPolicy") -> PrecisionPolicy:
    """Set the process-wide policy; returns the newly active policy."""
    global _active
    _active = _resolve(policy)
    return _active


@contextmanager
def use_precision(policy: "str | PrecisionPolicy") -> Iterator[PrecisionPolicy]:
    """Scoped :func:`set_precision`; restores the previous policy on exit."""
    previous = _active
    resolved = set_precision(policy)
    try:
        yield resolved
    finally:
        set_precision(previous)


def compute_dtype() -> np.dtype:
    """The dtype new tensors/buffers should allocate in."""
    return _active.compute


#: Per-dtype default tolerances: (fd eps, atol, rtol) for gradient
#: checks and the float32-vs-float64 equivalence comparisons.  The
#: float32 eps sits near cbrt(machine eps) ~ 5e-3, the classic optimum
#: for central finite differences.
_TOLERANCES: Dict[np.dtype, Dict[str, float]] = {
    np.dtype(np.float64): {"eps": 1e-6, "atol": 1e-5, "rtol": 1e-4},
    np.dtype(np.float32): {"eps": 5e-3, "atol": 5e-2, "rtol": 5e-2},
}


def default_tolerances(dtype: "np.dtype | type | str") -> Dict[str, float]:
    """Return ``{"eps", "atol", "rtol"}`` defaults for ``dtype``.

    Unknown floating dtypes fall back to the float64 entry; the dict is
    a fresh copy, safe to mutate.
    """
    key = np.dtype(dtype)
    return dict(_TOLERANCES.get(key, _TOLERANCES[np.dtype(np.float64)]))
