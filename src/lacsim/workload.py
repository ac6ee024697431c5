"""Synthetic request workloads: Zipf popularity, Poisson arrivals, per-user streams.

Ranks are 1-based: rank 1 is the most popular object. Requests follow the
independent reference model, so every draw is taken from the same popularity
law regardless of history.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import log

import numpy as np

__all__ = [
    "PopularityModel",
    "zipf_weights",
    "sample_rank",
    "next_interarrival",
    "make_stream",
    "DrawBuffer",
]


@dataclass(frozen=True, eq=False)
class PopularityModel:
    """Truncated Zipf popularity over a finite catalog.

    weights[k-1] = norm_c / k**alpha, normalized so the weights sum to one.
    cumulative is the inclusive prefix-sum table used for inverse-CDF
    sampling; its last entry is pinned to exactly 1.0.
    """

    alpha: float
    catalog_size: int
    weights: np.ndarray
    norm_c: float
    cumulative: list = field(repr=False, default_factory=list)


def zipf_weights(catalog_size: int, alpha: float) -> PopularityModel:
    """Build a PopularityModel for the given catalog size and Zipf exponent.

    Raises ValueError for an empty catalog or a non-positive or non-finite
    exponent.
    """
    if not isinstance(catalog_size, (int, np.integer)) or catalog_size < 1:
        raise ValueError(f"catalog_size must be a positive integer, got {catalog_size!r}")
    if not np.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    ranks = np.arange(1, catalog_size + 1, dtype=np.float64)
    raw = ranks ** (-float(alpha))
    norm_c = 1.0 / raw.sum()
    weights = raw * norm_c
    cumulative = np.cumsum(weights).tolist()
    cumulative[-1] = 1.0  # guard against cumsum rounding below a late uniform draw
    return PopularityModel(
        alpha=float(alpha),
        catalog_size=int(catalog_size),
        weights=weights,
        norm_c=norm_c,
        cumulative=cumulative,
    )


def sample_rank(model: PopularityModel, rng) -> int:
    """Draw one rank by inverse CDF. Consumes exactly one uniform draw.

    rng is any object with a .random() method returning a float in [0, 1).
    Cost is one binary search over the cumulative table.
    """
    u = rng.random()
    return bisect_right(model.cumulative, u) + 1


def next_interarrival(rate: float, rng) -> float:
    """Exponential gap with mean 1/rate via inverse transform, -ln(u)/rate.

    Strictly positive: a zero uniform draw is rejected and redrawn, and
    u -> 1 gives a gap -> 0 without ever reaching it. The rate is taken as
    given; ScenarioConfig.validate checks that it is positive and finite.
    """
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -log(u) / rate


def make_stream(scenario_seed: int, stream_id: int) -> np.random.Generator:
    """Independent per-node random stream.

    Splitting rule: the counter-based Philox generator keyed by
    scenario_seed XOR stream_id. Streams for distinct ids never interact, so
    adding nodes to a scenario does not perturb existing streams.
    """
    return np.random.Generator(np.random.Philox(key=scenario_seed ^ stream_id))


class DrawBuffer:
    """Scalar uniforms served from buffered generator blocks.

    Emits exactly the sequence the wrapped generator would produce from
    repeated .random() calls, amortizing the per-call overhead.
    """

    __slots__ = ("_gen", "_buf", "_pos")

    _BLOCK = 4096

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._buf = []
        self._pos = 0

    def random(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(self._BLOCK).tolist()
            self._pos = 0
        v = self._buf[self._pos]
        self._pos += 1
        return v
