"""Module/parameter system, mirroring ``torch.nn.Module`` semantics.

Modules register :class:`Parameter` attributes and child modules
automatically through ``__setattr__``; ``parameters()`` walks the tree.
State can be exported/imported as plain numpy dictionaries for
checkpointing (used by the trainer's top-3 model selection).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..autograd import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable leaf of a module."""

    def __init__(self, data, requires_grad: bool = True) -> None:
        super().__init__(data, requires_grad=requires_grad)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all neural / circuit building blocks.

    Subclasses implement :meth:`forward`; calling the module invokes it.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_training", True)

    # -- attribute registration ---------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a child module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def register_parameter(self, name: str, param: Parameter) -> None:
        """Explicitly register a parameter under ``name``."""
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    # -- traversal -----------------------------------------------------

    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its descendants."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        """Yield direct child modules."""
        yield from self._modules.values()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # -- train/eval mode -------------------------------------------------

    @property
    def training(self) -> bool:
        """Whether the module is in training mode."""
        return self._training

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects variation sampling)."""
        object.__setattr__(self, "_training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- gradients -------------------------------------------------------

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- precision ---------------------------------------------------------

    def cast_(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place (recursively).

        The precision-policy entry point: ``Trainer.fit`` and the
        evaluation helpers call this so a model built under one policy
        can run under another.  Parameters whose data already has the
        target dtype are left untouched (their array identity is
        preserved); gradients are dropped on any parameter that
        actually changes dtype.
        """
        target = np.dtype(dtype)
        for p in self.parameters():
            if p.data.dtype != target:
                p.data = p.data.astype(target)
                p.grad = None
        return self

    # -- state dict --------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot every parameter's value as a copied numpy array."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from a :meth:`state_dict` snapshot."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = own[name]
            # Load in the *parameter's* dtype: a float32-cast model
            # stays float32 even when restoring a float64 snapshot
            # (and vice versa for the float64 oracle).
            value = np.asarray(value, dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.shape}"
                )
            param.data = value.copy()

    # -- forward ----------------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute the module's output; must be overridden."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [f"  ({name}): {module!r}" for name, module in self._modules.items()]
        body = "\n".join(child_lines)
        header = type(self).__name__
        if body:
            return f"{header}(\n{body}\n)"
        return f"{header}()"
