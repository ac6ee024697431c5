"""Synthetic request workloads: Zipf popularity, Poisson arrivals, per-user streams.

Ranks are 1-based: rank 1 is the most popular object. Requests follow the
independent reference model, so every draw is taken from the same popularity
law regardless of history.

Per-user draw order: a user with a quota of q requests draws, from its own
stream, the gap to its first request when the run is set up, then for each
request k < q the gap to request k + 1 followed by the rank of request k, and
for request q its rank alone. A gap rejects a uniform of exactly 0.0 and
draws again, so a rejection shifts every later draw by one uniform.

request_draws serves that sequence in blocks of REQUEST_BLOCK requests. A
block of n requests that each have a next one reads its 2n uniforms with one
gen.random(2 * n) call on the user's own generator; Philox is counter-based,
so that call returns the values that 2n scalar gen.random() calls would. A
0.0 in a gap slot is rejected in the block: that uniform is deleted, one
fresh gen.random(1) is appended at the end, and the gap slots are checked
again. The block's rank slots are then ranked with one searchsorted call and
its gap slots turned into gaps one at a time with math.log, so every value
equals the one the scalar functions (next_interarrival, sample_rank) give.
The last request's rank is drawn with sample_rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log

import numpy as np

__all__ = [
    "PopularityModel",
    "zipf_weights",
    "sample_rank",
    "next_interarrival",
    "request_draws",
    "make_stream",
    "DrawBuffer",
]


@dataclass(frozen=True, eq=False)
class PopularityModel:
    """Truncated Zipf popularity over a finite catalog.

    weights[k-1] = norm_c / k**alpha, normalized so the weights sum to one.
    cumulative is the inclusive prefix-sum table (float64) used for
    inverse-CDF sampling; its last entry is pinned to exactly 1.0.
    """

    weights: np.ndarray
    norm_c: float
    cumulative: np.ndarray = field(repr=False)


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
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0  # guard against cumsum rounding below a late uniform draw
    return PopularityModel(weights=weights, norm_c=norm_c, cumulative=cumulative)


def sample_rank(model: PopularityModel, rng) -> int:
    """Draw one rank by inverse CDF. Consumes exactly one uniform draw.

    rng is any object with a .random() method returning a float in [0, 1).
    Cost is one binary search over the cumulative table; a draw equal to a
    table entry belongs to the next rank.
    """
    u = rng.random()
    return int(model.cumulative.searchsorted(u, side="right")) + 1


def next_interarrival(rate: float, rng) -> float:
    """Exponential gap with mean 1/rate via inverse transform, -ln(u)/rate.

    Strictly positive: a zero uniform draw is rejected and redrawn, and
    u -> 1 gives a gap -> 0 without ever reaching it. The rate is taken as
    given; ScenarioConfig checks that it is positive and finite.
    """
    u = rng.random()
    while u <= 0.0:
        u = rng.random()
    return -log(u) / rate


REQUEST_BLOCK = 4096  # requests per block of request_draws


def request_draws(model: PopularityModel, rate: float, gen: np.random.Generator,
                  quota: int):
    """Iterator of (gap, rank) for requests 1..quota of one user: the gap
    to the next request (None after the last) and the request's rank.

    gen is the user's generator. The gap to the first request is not part
    of it: the caller draws that with next_interarrival first. The pairs
    follow the draw order in the module docstring exactly; at most
    REQUEST_BLOCK of them are held at a time.
    """
    left = quota - 1
    while left > 0:
        n = min(left, REQUEST_BLOCK)
        left -= n
        u = gen.random(2 * n)
        while not u[0::2].all():
            # reject the first zero gap uniform: the rest of the block
            # shifts by one, and one fresh uniform ends it
            u = np.append(np.delete(u, 2 * u[0::2].argmin()), gen.random(1))
        gaps = [-log(v) / rate for v in u[0::2].tolist()]
        ranks = model.cumulative.searchsorted(u[1::2], side="right") + 1
        yield from zip(gaps, ranks.tolist())
    yield None, sample_rank(model, gen)


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
