"""Empirical growth classification for step-count series."""

from __future__ import annotations

import math
from typing import NamedTuple

SLOPE_LIMIT = 1.05
RATIO_SPREAD_LIMIT = 3.0


class GrowthReport(NamedTuple):
    series: tuple[tuple[int, int], ...]   # (n, steps), sorted by n
    fitted_exponent: float                # log-log least-squares slope
    max_ratio: float                      # max over steps/n
    min_ratio: float
    linear: bool

    @property
    def verdict(self) -> str:
        return "linear" if self.linear else "not-linear"


def fit_growth(series) -> GrowthReport:
    """Least-squares slope of log(steps) against log(n).

    The verdict is ``linear`` iff the slope is at most 1.05 and the spread of
    the steps/n ratios (max over min) is at most 3; loose enough for constant
    factor noise, tight enough to reject a clearly superlinear trend over two
    decades of n.
    """
    pts = sorted((int(n), int(steps)) for n, steps in series)
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    ns = [n for n, _ in pts]
    if len(set(ns)) != len(ns) or min(ns) < 2:
        raise ValueError("sizes must be distinct and >= 2")
    if any(s < 1 for _, s in pts):
        raise ValueError("step counts must be >= 1")
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(s) for _, s in pts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    ratios = [s / n for n, s in pts]
    max_ratio, min_ratio = max(ratios), min(ratios)
    linear = slope <= SLOPE_LIMIT and max_ratio / min_ratio <= RATIO_SPREAD_LIMIT
    return GrowthReport(series=tuple(pts), fitted_exponent=slope,
                        max_ratio=max_ratio, min_ratio=min_ratio, linear=linear)
