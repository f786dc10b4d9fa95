"""Dataset import.

The synthetic benchmark suite is deterministic, but users replicating
the paper against the *real* UCR archive need a way in: this module
reads the simple ``label, v0, v1, ...`` CSV layout (one series per
row — the UCR distribution format).
"""

from __future__ import annotations

import pathlib
from typing import Tuple, Union

import numpy as np

__all__ = ["load_series_csv"]

PathLike = Union[str, pathlib.Path]


def load_series_csv(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read a ``label, v0, v1, ...`` CSV; returns ``(x, y)``."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.shape[1] < 2:
        raise ValueError("CSV must have a label column plus at least one sample")
    y = data[:, 0].astype(np.int64)
    if not np.allclose(data[:, 0], y):
        raise ValueError("label column must hold integers")
    return data[:, 1:].copy(), y
