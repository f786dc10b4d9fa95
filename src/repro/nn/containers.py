"""Module containers: Sequential composition and typed lists."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Union

from ..autograd import Tensor
from .module import Module

__all__ = ["Sequential", "ModuleList"]


def _select(modules: dict, order: List[str], index: Union[int, slice]):
    """One module by position, or a plain list of them for a slice."""
    if isinstance(index, slice):
        return [modules[name] for name in order[index]]
    return modules[order[index]]


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for i, module in enumerate(modules):
            name = str(i)
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: Union[int, slice]) -> Union[Module, List[Module]]:
        return _select(self._modules, self._order, index)


class ModuleList(Module):
    """A list of modules whose parameters are registered with the parent."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Append a module to the list."""
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: Union[int, slice]) -> Union[Module, List[Module]]:
        return _select(self._modules, self._order, index)

    def forward(self, *args, **kwargs):
        raise NotImplementedError("ModuleList is a container; call its items")
