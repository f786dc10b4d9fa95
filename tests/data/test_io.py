"""Dataset import from UCR-style CSV."""

import numpy as np
import pytest

from repro.data import load_series_csv


class TestCSV:
    def test_roundtrip(self, tmp_path, rng):
        x = rng.normal(size=(6, 16))
        y = rng.integers(0, 3, 6)
        path = tmp_path / "series.csv"
        path.write_text(
            "".join(
                ",".join([str(label)] + [repr(float(v)) for v in row]) + "\n"
                for label, row in zip(y, x)
            )
        )
        x2, y2 = load_series_csv(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)

    def test_ucr_style_format(self, tmp_path):
        """Row layout is label-first, one series per line."""
        (tmp_path / "one.csv").write_text("2,0.5,-0.25\n")
        x, y = load_series_csv(tmp_path / "one.csv")
        assert x.tolist() == [[0.5, -0.25]]
        assert y.tolist() == [2]

    def test_rejects_shape_mismatch(self, tmp_path):
        (tmp_path / "labels_only.csv").write_text("0\n1\n")
        with pytest.raises(ValueError, match="label column"):
            load_series_csv(tmp_path / "labels_only.csv")

    def test_rejects_non_integer_labels(self, tmp_path):
        (tmp_path / "bad.csv").write_text("0.5,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_series_csv(tmp_path / "bad.csv")

    def test_loads_external_csv(self, tmp_path):
        (tmp_path / "ext.csv").write_text("0,1.0,2.0,3.0\n1,-1.0,-2.0,-3.0\n")
        x, y = load_series_csv(tmp_path / "ext.csv")
        assert x.shape == (2, 3)
        assert np.array_equal(y, [0, 1])
