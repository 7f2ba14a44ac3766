"""Worker functions shipped to the benchmark's worker processes.

Module-level so the process backend and the cluster agents can unpickle
them by reference (the benchmark directory is on their import path).
"""

from __future__ import annotations

import numpy as np


def fine_task(x: int) -> int:
    """A roughly 0-cost task on a small int."""
    return 3 * x + 1


def bulk_task(array: np.ndarray) -> np.ndarray:
    """One pass over a large array, returning a new array of the same size."""
    return array + 1.0


def sweep_cost(point) -> float:
    """Work units of one sweep point: skewed by resolution and by alpha."""
    return 5.0 * (1.0 + point["resolution"]) * (0.95 + 0.1 * (point["alpha"] % 1.0))
