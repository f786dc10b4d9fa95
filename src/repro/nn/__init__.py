"""Neural-network module system (the ``torch.nn`` substitute)."""

from . import init
from .containers import ModuleList
from .linear import Linear
from .loss import cross_entropy
from .module import Module, Parameter
from .rnn import ElmanCell, ElmanRNN

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ModuleList",
    "ElmanCell",
    "ElmanRNN",
    "cross_entropy",
    "init",
]
