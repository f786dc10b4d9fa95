"""Training-state checkpointing to ``.npz`` files.

State dicts are plain ``{name: ndarray}`` mappings, so numpy's archive
format is a natural, dependency-free checkpoint: one array per
parameter, keyed by its dotted module path.

:func:`save_checkpoint` / :func:`load_checkpoint` store full *training*
checkpoints: arbitrary named array groups (model parameters, optimizer
moments, best-so-far state) plus a JSON metadata document (RNG
bit-generator state, scheduler counters, history) stored inside the
same archive — one file, no pickle, bit-exact round trip.  The
trainer's checkpoint/resume support (:meth:`repro.core.Trainer.fit`)
is built on these two functions.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Tuple, Union

import numpy as np

__all__ = ["save_checkpoint", "load_checkpoint"]

PathLike = Union[str, pathlib.Path]

#: Reserved archive key holding the JSON metadata document.
_META_KEY = "__checkpoint_meta__"


def save_checkpoint(arrays: Dict[str, np.ndarray], meta: Dict, path: PathLike) -> pathlib.Path:
    """Write a ``{name: ndarray}`` mapping plus JSON metadata to ``path``.

    Array names may be slash-namespaced (``"model/blocks.0.theta"``,
    ``"optim/m/3"``).  ``meta`` must be JSON-serialisable; non-finite
    floats survive (the stdlib ``json`` round-trips ``Infinity``/
    ``NaN``).  Writes atomically (temp file + rename) so a run killed
    mid-checkpoint never leaves a truncated archive behind; returns the
    final path (``.npz`` appended if missing).
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved for checkpoint metadata")
    payload = dict(arrays)
    payload[_META_KEY] = np.array(json.dumps(meta, sort_keys=True))
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        np.savez(fh, **payload)
    tmp.replace(path)
    return path


def load_checkpoint(path: PathLike) -> Tuple[Dict[str, np.ndarray], Dict]:
    """Read ``(arrays, meta)`` written by :func:`save_checkpoint`."""
    with np.load(pathlib.Path(path)) as archive:
        if _META_KEY not in archive.files:
            raise ValueError(f"{path} is not a checkpoint archive (missing metadata)")
        meta = json.loads(str(archive[_META_KEY]))
        arrays = {
            name: archive[name].copy() for name in archive.files if name != _META_KEY
        }
    return arrays, meta
