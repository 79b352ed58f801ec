"""Trend-check helpers shared by the test modules."""

import numpy as np


def adjacent_drops(values) -> np.ndarray:
    """Positive decreases between consecutive values."""
    v = np.asarray(values, dtype=np.float64)
    return np.maximum(0.0, v[:-1] - v[1:])
