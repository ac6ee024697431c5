"""Popularity model, rank sampling, Poisson streams, RNG plumbing.

The frozen constants were computed independently with mpmath at 30 digits
(truncated harmonic sums), not read back from the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacsim.workload import (REQUEST_BLOCK, DrawBuffer, PopularityModel,
                             make_stream, next_interarrival, request_draws,
                             sample_rank, zipf_weights)

# sum(k**-1.7, k=1..20000) and the first normalized weights
S_20000_17 = 2.05289504379949150
Q1_20000_17 = 0.48711696344163959
Q2_20000_17 = 0.14992783204667860
Q8_20000_17 = 0.01420300617588371


class FixedRng:
    """Stub rng yielding a scripted sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class FixedDraws(FixedRng):
    """FixedRng that also serves DrawBuffer.take."""

    def take(self, n):
        head, self.values = self.values[:n], self.values[n:]
        return np.array(head, dtype=np.float64)


def test_single_object_catalog_is_certain():
    model = zipf_weights(1, 1.7)
    assert model.weights.tolist() == [1.0]
    assert model.cumulative.tolist() == [1.0]


def test_two_object_catalog_alpha_one():
    model = zipf_weights(2, 1.0)
    np.testing.assert_allclose(model.weights, [2 / 3, 1 / 3], rtol=1e-15)


def test_frozen_head_weights():
    model = zipf_weights(20000, 1.7)
    assert model.norm_c == pytest.approx(1.0 / S_20000_17, rel=1e-10)
    assert model.weights[0] == pytest.approx(Q1_20000_17, rel=1e-10)
    assert model.weights[1] == pytest.approx(Q2_20000_17, rel=1e-10)
    assert model.weights[7] == pytest.approx(Q8_20000_17, rel=1e-10)


def test_rejects_bad_parameters():
    for catalog, alpha in ((0, 1.7), (-3, 1.7), (2.5, 1.7), (10, 0.0),
                           (10, -1.0), (10, float("nan")), (10, float("inf"))):
        with pytest.raises(ValueError):
            zipf_weights(catalog, alpha)


@given(n=st.integers(2, 5000), alpha=st.floats(0.05, 3.0))
@settings(max_examples=60, deadline=None)
def test_weights_are_a_distribution(n, alpha):
    model = zipf_weights(n, alpha)
    assert abs(float(model.weights.sum()) - 1.0) <= 1e-9
    assert np.all(np.diff(model.weights) <= 0)
    assert model.cumulative[-1] == 1.0


@given(n=st.integers(2, 2000), alpha=st.floats(0.1, 3.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank_doubling_ratio(n, alpha, data):
    # q(k)/q(2k) = 2**alpha regardless of normalization
    k = data.draw(st.integers(1, n // 2))
    model = zipf_weights(n, alpha)
    ratio = model.weights[k - 1] / model.weights[2 * k - 1]
    assert ratio == pytest.approx(2.0 ** alpha, rel=1e-9)


def test_sample_rank_boundaries():
    model = zipf_weights(5, 1.7)
    assert sample_rank(model, FixedRng([0.0])) == 1
    assert sample_rank(model, FixedRng([model.cumulative[0] * 0.999999])) == 1
    # a draw exactly on a cumulative boundary belongs to the next rank
    assert sample_rank(model, FixedRng([model.cumulative[0]])) == 2
    assert sample_rank(model, FixedRng([1.0 - 1e-12])) == 5


def test_sample_rank_consumes_one_draw():
    model = zipf_weights(3, 1.0)
    rng = FixedRng([0.0, 0.99])
    assert sample_rank(model, rng) == 1
    assert sample_rank(model, rng) == 3
    assert rng.values == []


def test_sampled_frequencies_match_weights():
    # chi-square on 1e6 draws over a 100-object catalog, fixed stream
    from scipy.stats import chi2

    model = zipf_weights(100, 1.7)
    gen = make_stream(12345, 0)
    u = gen.random(1_000_000)
    ranks = np.searchsorted(model.cumulative, u, side="right") + 1
    observed = np.bincount(ranks, minlength=101)[1:]
    expected = u.size * model.weights
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.99, 99)
    # and sample_rank agrees with the vectorized search on the same draws
    rng = FixedRng(u[:2000].tolist())
    for i in range(2000):
        assert sample_rank(model, rng) == ranks[i]


def test_interarrival_mean_and_scaling():
    gen_a = make_stream(7, 1)
    gen_b = make_stream(7, 1)
    gaps1 = [next_interarrival(1.0, gen_a) for _ in range(200_000)]
    gaps2 = [next_interarrival(2.0, gen_b) for _ in range(200_000)]
    assert sum(gaps1) / len(gaps1) == pytest.approx(1.0, abs=0.01)
    # identical draws, so doubling the rate exactly halves every gap
    assert all(g2 == g1 / 2.0 for g1, g2 in zip(gaps1, gaps2))
    assert all(g > 0.0 for g in gaps1)


def test_interarrival_rejects_zero_draw():
    gap = next_interarrival(1.0, FixedRng([0.0, 0.0, 0.5]))
    assert gap == pytest.approx(-math.log(0.5), rel=1e-15)


def test_streams_reproducible_and_distinct():
    a1 = make_stream(42, 3).random(8)
    a2 = make_stream(42, 3).random(8)
    b = make_stream(42, 4).random(8)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()


def test_stream_key_is_seed_xor_id():
    # the splitting rule is a plain XOR, so swapped pairs coincide
    assert make_stream(5, 9).random(4).tolist() == \
        make_stream(9, 5).random(4).tolist()


def test_draw_buffer_matches_scalar_generator():
    buf = DrawBuffer(make_stream(11, 2))
    ref = make_stream(11, 2)
    # spans two buffer refills
    n = DrawBuffer._BLOCK + 500
    assert [buf.random() for _ in range(n)] == [ref.random() for _ in range(n)]


def test_draw_buffer_take_interleaved_with_random():
    buf = DrawBuffer(make_stream(11, 2))
    got = []
    # a take inside the buffer, one that ends exactly at its end, one that
    # runs past it, a take of nothing, and takes larger than a whole buffer
    for n in (3, DrawBuffer._BLOCK - 4, 0, 5000, 7, 3 * DrawBuffer._BLOCK):
        got.append(buf.random())
        taken = buf.take(n)
        assert taken.dtype == np.float64 and taken.shape == (n,)
        got.extend(taken.tolist())
    got.append(buf.random())
    assert got == make_stream(11, 2).random(len(got)).tolist()


def scalar_requests(model, rate, rng, quota):
    """The first gap, then (gap to the next request or None, rank) per
    request, drawn one call at a time."""
    first = next_interarrival(rate, rng)
    pairs = []
    for k in range(1, quota + 1):
        gap = next_interarrival(rate, rng) if k < quota else None
        pairs.append((gap, sample_rank(model, rng)))
    return first, pairs


def block_requests(model, rate, rng, quota):
    first = next_interarrival(rate, rng)
    return first, list(request_draws(model, rate, rng, quota))


@pytest.mark.parametrize("quota", [1, 2, REQUEST_BLOCK, REQUEST_BLOCK + 1,
                                   REQUEST_BLOCK + 2, 3 * REQUEST_BLOCK + 17])
def test_request_draws_match_scalar_draws(quota):
    model = zipf_weights(20_000, 1.7)
    scalar_rng = DrawBuffer(make_stream(3, 1))
    block_rng = DrawBuffer(make_stream(3, 1))
    expected = scalar_requests(model, 0.7, scalar_rng, quota)
    assert block_requests(model, 0.7, block_rng, quota) == expected
    assert all(isinstance(rank, int) for _, rank in expected[1])
    # both leave the stream at the same place
    assert block_rng.random() == scalar_rng.random()


def _uniforms_with_zeros(count, zeros):
    values = make_stream(5, 0).random(count).tolist()
    for position in sorted(zeros, reverse=True):
        values.insert(position, 0.0)
    return values


# positions of the scripted uniforms: 0 is the first gap, then the pair of
# request k sits at 2k - 1 (gap) and 2k (rank) until a zero shifts them
_QUOTA = REQUEST_BLOCK + 3
_LAST_GAP = 2 * (_QUOTA - 1) - 1


@pytest.mark.parametrize("zeros", [
    [21],                                    # mid-block
    [21, 21, 39],                            # twice in one slot, then again
    [2 * REQUEST_BLOCK - 1],                 # last gap of the first block
    [2 * REQUEST_BLOCK + 1],                 # first gap of the second block
    [2 * REQUEST_BLOCK - 1, 2 * REQUEST_BLOCK + 1],
    [_LAST_GAP],                             # the last gap of all
    [22],                                    # a rank slot: no rejection
])
def test_request_draws_redraw_zero_gaps_as_scalar_draws(zeros):
    model = zipf_weights(50, 1.2)
    values = _uniforms_with_zeros(2 * _QUOTA + 8, zeros)
    scalar_rng, block_rng = FixedRng(values), FixedDraws(values)
    expected = scalar_requests(model, 2.0, scalar_rng, _QUOTA)
    got = block_requests(model, 2.0, block_rng, _QUOTA)
    assert got == expected
    assert block_rng.values == scalar_rng.values
    assert all(gap is None or gap > 0.0 for gap, _ in got[1])
    if 22 in zeros:
        assert got[1][10][1] == 1  # a zero rank draw is rank 1
