"""Benchmark datasets (synthetic UCR-like substitutes) and preprocessing."""

from .datasets import (
    DATASET_INFO,
    DatasetInfo,
    DatasetSplits,
    dataset_names,
    load_dataset,
)
from .generators import GENERATORS, generate
from .io import load_series_csv
from .preprocessing import (
    TARGET_LENGTH,
    normalize_series,
    resize_series,
    train_val_test_split,
)
from .streams import (
    BURST_KINDS,
    STREAM_SCENARIOS,
    SensorStream,
    burst_stream,
    drift_stream,
    inject_bursts,
    long_horizon_stream,
    make_stream,
    resampled_stream,
)

__all__ = [
    "DatasetInfo",
    "DatasetSplits",
    "DATASET_INFO",
    "dataset_names",
    "load_dataset",
    "GENERATORS",
    "generate",
    "resize_series",
    "normalize_series",
    "train_val_test_split",
    "TARGET_LENGTH",
    "load_series_csv",
    "SensorStream",
    "BURST_KINDS",
    "STREAM_SCENARIOS",
    "make_stream",
    "drift_stream",
    "burst_stream",
    "inject_bursts",
    "resampled_stream",
    "long_horizon_stream",
]
