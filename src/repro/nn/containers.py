"""Module container: a typed list of submodules."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Union

from .module import Module

__all__ = ["ModuleList"]


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
        if isinstance(index, slice):
            return [self._modules[name] for name in self._order[index]]
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):
        raise NotImplementedError("ModuleList is a container; call its items")
