"""Checkpoint archives: ``save_checkpoint`` / ``load_checkpoint``."""

import numpy as np
import pytest

from repro.core import AdaptPNC
from repro.utils.serialization import load_checkpoint, save_checkpoint


class TestStateDictIO:
    def test_roundtrip(self, tmp_path, rng):
        state = {"a.b": rng.normal(size=(3, 4)), "c": rng.normal(size=2)}
        meta = {"epoch": 3, "best": float("inf")}
        path = save_checkpoint(state, meta, tmp_path / "ckpt.npz")
        loaded, loaded_meta = load_checkpoint(path)
        assert set(loaded) == set(state)
        for key in state:
            assert np.array_equal(loaded[key], state[key])
        assert loaded_meta == meta

    def test_suffix_appended(self, tmp_path):
        path = save_checkpoint({"x": np.zeros(1)}, {}, tmp_path / "ckpt")
        assert path == tmp_path / "ckpt.npz" and path.exists()


class TestModelIO:
    def test_model_roundtrip(self, tmp_path):
        model = AdaptPNC(3, rng=np.random.default_rng(0))
        path = save_checkpoint(model.state_dict(), {}, tmp_path / "model.npz")

        clone = AdaptPNC(3, rng=np.random.default_rng(99))  # different init
        clone.load_state_dict(load_checkpoint(path)[0])
        for (name_a, p_a), (name_b, p_b) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert name_a == name_b
            assert np.array_equal(p_a.data, p_b.data)

    def test_roundtrip_preserves_forward(self, tmp_path, rng):
        model = AdaptPNC(2, rng=np.random.default_rng(0))
        x = rng.uniform(-1, 1, (3, 16))
        expected = model(x).data
        path = save_checkpoint(model.state_dict(), {}, tmp_path / "m.npz")
        clone = AdaptPNC(2, rng=np.random.default_rng(123))
        clone.load_state_dict(load_checkpoint(path)[0])
        assert np.allclose(clone(x).data, expected)

    def test_architecture_mismatch_raises(self, tmp_path):
        model = AdaptPNC(3, rng=np.random.default_rng(0))
        path = save_checkpoint(model.state_dict(), {}, tmp_path / "m.npz")
        with pytest.raises((KeyError, ValueError)):
            AdaptPNC(5, rng=np.random.default_rng(0)).load_state_dict(load_checkpoint(path)[0])
