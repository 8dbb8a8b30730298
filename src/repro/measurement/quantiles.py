"""Quantile curves: distributions specified by their percentiles.

The paper reports its measurement results as medians, ranges, and CDFs
(Figure 5(a)), and the testbed experiments index delays by percentile
(Figure 6(a): "taking the Nth percentile of delays").  We therefore
represent each measured delay distribution directly by its quantile
function — monotone piecewise-linear through calibrated anchor points —
which makes percentile lookup exact and inverse-CDF draws trivial.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Tuple

__all__ = ["QuantileCurve"]


class QuantileCurve:
    """A distribution defined by (percentile, value) anchors.

    Percentiles are in [0, 100]; values must be non-decreasing in
    percentile (checked).  Lookup interpolates linearly between anchors.
    """

    def __init__(self, anchors: Iterable[Tuple[float, float]], name: str = ""):
        points = sorted((float(p), float(v)) for p, v in anchors)
        if len(points) < 2:
            raise ValueError("need at least two anchors")
        if points[0][0] != 0.0 or points[-1][0] != 100.0:
            raise ValueError("anchors must span percentiles 0 and 100")
        for (p0, v0), (p1, v1) in zip(points, points[1:]):
            if p1 == p0:
                raise ValueError("duplicate percentile %.1f" % p0)
            if v1 < v0:
                raise ValueError(
                    "values must be non-decreasing (%.3f -> %.3f at p%.1f)"
                    % (v0, v1, p1)
                )
        self.name = name
        self._ps = [p for p, _ in points]
        self._vs = [v for _, v in points]

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (linear interpolation)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % p)
        i = bisect.bisect_right(self._ps, p)
        if i == 0:
            return self._vs[0]
        if i == len(self._ps):
            return self._vs[-1]
        p0, p1 = self._ps[i - 1], self._ps[i]
        v0, v1 = self._vs[i - 1], self._vs[i]
        frac = (p - p0) / (p1 - p0)
        return v0 + frac * (v1 - v0)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    def sample_at(self, u: float) -> float:
        """Value at uniform position ``u`` in [0, 1] — lets callers
        correlate several metrics through a shared site 'remoteness'."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("u must be in [0, 1]")
        return self.percentile(u * 100.0)
