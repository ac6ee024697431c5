"""Synthetic request workloads: Zipf popularity, Poisson arrivals, per-user streams.

Ranks are 1-based: rank 1 is the most popular object. Requests follow the
independent reference model, so every draw is taken from the same popularity
law regardless of history.

Per-user draw order: a user with a quota of q requests draws, from its own
stream, the gap to its first request when the run is set up, then for each
request k < q the gap to request k + 1 followed by the rank of request k, and
for request q its rank alone. A gap rejects a uniform of exactly 0.0 and
draws again, so a rejection shifts every later draw by one uniform.

request_draws serves that sequence in blocks of REQUEST_BLOCK requests: it
takes the block's uniforms from the user's DrawBuffer at once, ranks them
with one searchsorted call and turns the gap slots into gaps one at a time
with math.log, so every value equals the one the scalar functions
(next_interarrival, sample_rank) give. A block holding a 0.0 in a gap slot
is drawn again through the scalar functions instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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

    alpha: float
    catalog_size: int
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


def request_draws(model: PopularityModel, rate: float, rng: DrawBuffer,
                  quota: int):
    """Iterator of (gap, rank) for requests 1..quota of one user: the gap
    to the next request (None after the last) and the request's rank.

    The gap to the first request is not part of it: the caller draws that
    with next_interarrival first. The pairs follow the draw order in the
    module docstring exactly; at most REQUEST_BLOCK of them are held at a
    time.
    """
    return chain.from_iterable(_request_blocks(model, rate, rng, quota))


def _request_blocks(model, rate, rng, quota):
    left = quota - 1
    while left > 0:
        n = min(left, REQUEST_BLOCK)
        left -= n
        yield _request_block(model, rate, rng, n)
    yield ((None, sample_rank(model, rng)),)


def _request_block(model, rate, rng, n):
    """(gap, rank) of n requests that each have a next one. Its own
    function, so that the block's uniforms are freed once the pairs are
    built, not held while the run reads them."""
    u = rng.take(2 * n)
    gap_u = u[0::2]
    if gap_u.all():
        gaps = [-log(v) / rate for v in gap_u.tolist()]
        ranks = model.cumulative.searchsorted(u[1::2], side="right") + 1
        return zip(gaps, ranks.tolist())
    # a rejected gap shifts the rest of the block by one uniform: replay
    # the block's uniforms through the scalar functions, then continue
    # from the stream
    replay = _Replay(chain(u.tolist(), iter(rng.random, None)))
    return [(next_interarrival(rate, replay), sample_rank(model, replay))
            for _ in range(n)]


class _Replay:
    """An rng whose .random() is the next value of an iterator."""

    __slots__ = ("random",)

    def __init__(self, values):
        self.random = values.__next__


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

    def take(self, n: int) -> np.ndarray:
        """The next n uniforms as a float64 array: what is left of the
        buffer first, then fresh draws from the generator."""
        head = self._buf[self._pos:self._pos + n]
        self._pos += n
        if self._pos >= len(self._buf):
            # free the used-up list now, not at the next random() call
            self._buf, self._pos = [], 0
        return np.concatenate((head, self._gen.random(n - len(head))))
