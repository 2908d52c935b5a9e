"""Typed sample columns: categorical and real-valued series.

Both types are thin, immutable wrappers around numpy arrays that enforce
the invariants every estimator relies on (non-empty, category identifiers
within range, finite reals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class CategorySeries:
    """A column of small non-negative category identifiers."""

    values: np.ndarray
    n_categories: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("CategorySeries requires a non-empty 1-D sequence")
        if self.n_categories < 1:
            raise ValueError("n_categories must be >= 1")
        if values.min() < 0 or values.max() >= self.n_categories:
            raise ValueError(
                f"category identifiers must lie in [0, {self.n_categories})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RealSeries:
    """A column of finite real numbers."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("RealSeries requires a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValueError("RealSeries entries must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


Series = Union[CategorySeries, RealSeries]


def as_float_values(series: Series | np.ndarray) -> np.ndarray:
    """Return the underlying values as a float array.

    Category identifiers are used verbatim; for rank-based consumers only
    their order matters.  A NaN raises ``ValueError``: it has no rank, and
    a series cannot hold one.
    """
    if isinstance(series, (CategorySeries, RealSeries)):
        return np.asarray(series.values, dtype=np.float64)
    values = np.asarray(series, dtype=np.float64)
    if np.isnan(values).any():
        raise ValueError("cannot bin or score NaN")
    return values
