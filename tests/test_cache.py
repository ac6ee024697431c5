"""Replacement list, insertion policies, latency estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacsim.cache import (ALWAYS, ASYMMETRIC, FIXED_PROB, LATENCY_AWARE,
                          SYMMETRIC, InsertionPolicy,
                          LatencyEstimator, LruCache, ProtocolError,
                          decide_insertion, parse_policy, split_policy_list)
from lacsim.workload import make_stream


class FixedRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class PoisonRng:
    """Fails the test if any draw is consumed."""

    def random(self):
        raise AssertionError("rng consulted when it must not be")


# ---------------------------------------------------------------- policies

def test_policy_grammar_round_trips():
    cases = {
        "lru": (ALWAYS, ASYMMETRIC, "lru"),
        "lcp:0.1": (FIXED_PROB, ASYMMETRIC, "lcp:0.1"),
        "sym:0.25": (FIXED_PROB, SYMMETRIC, "sym:0.25"),
        "lac:5,5": (LATENCY_AWARE, ASYMMETRIC, "lac:5,5"),
        "sym-la": (LATENCY_AWARE, SYMMETRIC, "sym-la:5,5"),
    }
    for text, (kind, mode, label) in cases.items():
        policy = parse_policy(text)
        assert policy.kind == kind
        assert policy.mtf_mode == mode
        assert policy.label() == label


def test_policy_defaults_come_from_keywords():
    assert parse_policy("lcp").p == 0.1
    assert parse_policy("lcp", lcp_p=0.03).p == 0.03
    lac = parse_policy("lac", lac_beta=3.0, lac_gamma=2.0)
    assert (lac.beta, lac.gamma) == (3.0, 2.0)
    assert lac.label() == "lac:3,2"


def test_policy_parse_errors():
    for text in ("lru:1", "lcp:x", "lac:5", "lac:1,2,3", "bogus", "sym:",
                 "lac:nan,5", "lac:5,inf", "sym-la:nan,1"):
        with pytest.raises(ValueError):
            parse_policy(text)


def test_split_policy_list_keeps_parameter_pairs_together():
    assert split_policy_list("lru,lcp:0.1,sym:0.2,sym-la:2,3,lac:5,5") == \
        ["lru", "lcp:0.1", "sym:0.2", "sym-la:2,3", "lac:5,5"]
    assert split_policy_list(" lru , lac:5,5 ") == ["lru", "lac:5,5"]
    assert split_policy_list("lac:5,5,lru") == ["lac:5,5", "lru"]
    # a bare lac takes preset defaults; a trailing number is not its parameter
    assert split_policy_list("lac,5") == ["lac", "5"]
    # a complete pair never swallows a third number
    assert split_policy_list("lac:1,2,3") == ["lac:1,2", "3"]
    assert split_policy_list("") == []


def test_policy_validation():
    with pytest.raises(ValueError):
        InsertionPolicy(kind="nope")
    with pytest.raises(ValueError):
        InsertionPolicy(mtf_mode="diag")
    with pytest.raises(ValueError):
        InsertionPolicy(kind=FIXED_PROB, p=1.5)
    with pytest.raises(ValueError):
        InsertionPolicy(kind=LATENCY_AWARE, beta=-1.0)


# ---------------------------------------------------------------- lru list

def test_lru_order_and_eviction():
    cache = LruCache(2)
    policy = InsertionPolicy()
    cache.insert(1)
    cache.insert(2)
    assert cache.order() == [2, 1]
    assert cache.lookup(1, policy) is True
    assert cache.order() == [1, 2]
    cache.insert(3)
    assert 2 not in cache
    assert cache.order() == [3, 1]
    assert len(cache) == 2


def test_lookup_miss_changes_nothing():
    cache = LruCache(2)
    cache.insert(1)
    assert cache.lookup(9, InsertionPolicy(), PoisonRng()) is False
    assert cache.order() == [1]


def test_duplicate_insert_rejected():
    cache = LruCache(2)
    cache.insert(1)
    with pytest.raises(ValueError):
        cache.insert(1)


def test_zero_capacity_cache_stores_nothing():
    cache = LruCache(0)
    cache.insert(5)
    assert 5 not in cache
    assert len(cache) == 0
    assert cache.lookup(5, InsertionPolicy(), PoisonRng()) is False


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        LruCache(-1)


def test_asymmetric_hit_never_draws():
    cache = LruCache(2)
    cache.insert(1)
    assert cache.lookup(1, InsertionPolicy(mtf_mode=ASYMMETRIC), PoisonRng())


def test_symmetric_failed_coin_leaves_position():
    cache = LruCache(3)
    policy = InsertionPolicy(kind=FIXED_PROB, p=0.5, mtf_mode=SYMMETRIC)
    for rank in (1, 2, 3):
        cache.insert(rank, mtf_prob=0.5)
    assert cache.order() == [3, 2, 1]
    # draw 0.7 >= 0.5: hit reported, order untouched
    assert cache.lookup(1, policy, FixedRng([0.7])) is True
    assert cache.order() == [3, 2, 1]
    # draw 0.2 < 0.5: refreshed to the front
    assert cache.lookup(1, policy, FixedRng([0.2])) is True
    assert cache.order() == [1, 3, 2]


def test_mtf_prob_is_stored_per_entry():
    # a symmetric hit redraws against the probability its entry was admitted
    # with: draw 0.5 refreshes the entry admitted at 1.0, not the one at 0.25
    cache = LruCache(2)
    policy = InsertionPolicy(kind=FIXED_PROB, p=0.5, mtf_mode=SYMMETRIC)
    cache.insert(1, mtf_prob=0.25)
    cache.insert(2)
    assert cache.lookup(1, policy, FixedRng([0.5])) is True
    assert cache.order() == [2, 1]
    cache.insert(3, mtf_prob=1.0)
    assert cache.order() == [3, 2]
    assert cache.lookup(2, policy, FixedRng([0.5])) is True
    assert cache.order() == [2, 3]


@given(st.lists(st.tuples(st.booleans(), st.integers(1, 12)), max_size=80),
       st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_occupancy_never_exceeds_capacity(ops, capacity):
    cache = LruCache(capacity)
    policy = InsertionPolicy()
    for is_insert, rank in ops:
        if is_insert and rank not in cache:
            cache.insert(rank)
        else:
            cache.lookup(rank, policy)
        assert len(cache) <= capacity
        order = cache.order()
        assert len(order) == len(cache) == len(set(order))


# ---------------------------------------------------------------- estimator

def test_estimator_single_slot_matching():
    est = LatencyEstimator()
    est.record_forward(7, 1.0)
    est.record_forward(8, 3.0)
    # pending-interest aggregation allows one outstanding forward per rank
    with pytest.raises(ProtocolError):
        est.record_forward(7, 2.0)
    assert est.measure_delta_t(7, 5.0) == pytest.approx(4.0)
    assert est.measure_delta_t(8, 6.0) == pytest.approx(3.0)
    # the measurement frees the slot for the next forward of the rank
    with pytest.raises(ProtocolError):
        est.measure_delta_t(7, 8.0)
    est.record_forward(7, 9.0)
    assert est.measure_delta_t(7, 9.5) == pytest.approx(0.5)


def test_delta_t_from_mean_packet_arrival():
    # packets of one object land at t=2 and t=4; forwarded at t=0.
    # measuring at the mean arrival time gives the mean packet latency 3.
    est = LatencyEstimator()
    est.record_forward(1, 0.0)
    assert est.measure_delta_t(1, (2.0 + 4.0) / 2.0) == pytest.approx(3.0)


def test_mean_update_recurrence():
    est = LatencyEstimator()
    assert (est.mean_f, est.count) == (0.0, 0)
    est.update(2.0)
    assert (est.mean_f, est.count) == (2.0, 1)
    est.update(4.0)
    assert est.mean_f == pytest.approx(3.0)
    est.update(6.0)
    assert est.mean_f == pytest.approx(4.0)
    assert est.count == 3


def test_mean_matches_batch_recomputation():
    est = LatencyEstimator()
    gen = make_stream(3, 0)
    values = (gen.random(5000) * 10.0 + 0.01).tolist()
    for v in values:
        est.update(v)
    assert est.mean_f == pytest.approx(float(np.mean(values)), rel=1e-9)


# ---------------------------------------------------------------- decisions

def test_always_decides_without_drawing():
    est = LatencyEstimator()
    decision, prob = decide_insertion(InsertionPolicy(), 9.0, est, PoisonRng())
    assert decision is True and prob == 1.0


def test_fixed_prob_strict_threshold():
    policy = InsertionPolicy(kind=FIXED_PROB, p=0.3)
    est = LatencyEstimator()
    assert decide_insertion(policy, 1.0, est, FixedRng([0.29999])) == (True, 0.3)
    assert decide_insertion(policy, 1.0, est, FixedRng([0.3])) == (False, 0.3)


def test_latency_aware_bootstrap_is_certain():
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=5.0, gamma=5.0)
    est = LatencyEstimator()
    decision, prob = decide_insertion(policy, 0.001, est, FixedRng([0.999999]))
    assert decision is True and prob == 1.0


def test_latency_aware_probability_shape():
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=5.0, gamma=5.0)
    est = LatencyEstimator()
    est.update(2.0)  # mean_f = 2
    # delta_t equal to the mean: 2**5 / 2**5 = 1
    _, prob = decide_insertion(policy, 2.0, est, FixedRng([0.5]))
    assert prob == pytest.approx(1.0)
    # half the mean: (1/2)**5 of the gamma normalizer, 1/32
    _, prob = decide_insertion(policy, 1.0, est, FixedRng([0.5]))
    assert prob == pytest.approx(1.0 / 32.0)
    # double the mean clamps at one
    _, prob = decide_insertion(policy, 4.0, est, FixedRng([0.5]))
    assert prob == 1.0


def test_latency_aware_exponent_asymmetry():
    # beta acts on delta_t, gamma on the normalizer
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=2.0, gamma=3.0)
    est = LatencyEstimator()
    est.update(4.0)
    _, prob = decide_insertion(policy, 2.0, est, FixedRng([0.5]))
    assert prob == pytest.approx(2.0 ** 2 / 4.0 ** 3)


def test_latency_aware_zero_mean_decides_with_certainty():
    # every latency admitted so far was 0, so mean_f**gamma is 0: the
    # decision is certain, as during the bootstrap
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=5.0, gamma=5.0)
    est = LatencyEstimator()
    est.update(0.0)  # count=1, mean_f=0
    assert decide_insertion(policy, 1.0, est, FixedRng([0.999999])) == (True, 1.0)
    assert decide_insertion(policy, 0.0, est, FixedRng([0.999999])) == (True, 1.0)
    # a positive mean whose power underflows to 0 is treated the same way
    est = LatencyEstimator()
    est.update(1e-70)
    assert decide_insertion(policy, 1e-70, est, FixedRng([0.999999])) == (True, 1.0)


def test_latency_aware_overflowing_powers_stay_in_unit_interval():
    # delta_t**beta beyond the float range: the ratio saturates at 1
    est = LatencyEstimator()
    est.update(1.0)
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=400.0, gamma=1.0)
    assert decide_insertion(policy, 10.0, est, FixedRng([0.999999])) == (True, 1.0)
    est = LatencyEstimator()
    est.update(0.0)  # mean_f**0 is 1
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=400.0, gamma=0.0)
    assert decide_insertion(policy, 10.0, est, FixedRng([0.999999])) == (True, 1.0)
    # mean_f**gamma beyond the float range: the ratio is taken in logs
    est = LatencyEstimator()
    est.update(10.0)
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=1.0, gamma=400.0)
    decision, prob = decide_insertion(policy, 5.0, est, FixedRng([0.0]))
    assert decision is False and prob == 0.0
    decision, prob = decide_insertion(policy, 0.0, est, FixedRng([0.0]))
    assert decision is False and prob == 0.0
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=330.0, gamma=320.0)
    decision, prob = decide_insertion(policy, 9.0, est, FixedRng([0.0]))
    assert prob == pytest.approx(math.exp(330 * math.log(9.0) - 320 * math.log(10.0)))
    assert decision is True


def test_measured_delta_never_negative():
    # the mean arrival time of a train can round to just below the forward
    # time when every latency on the path vanishes
    est = LatencyEstimator()
    est.record_forward(3, 1.0)
    assert est.measure_delta_t(3, 1.0 - 2.0 ** -52) == 0.0


def test_fixed_prob_one_matches_always_trajectory():
    """FixedProb(1) consumes draws but must trace the same cache states."""
    gen = make_stream(5, 1)
    script = [(int(gen.random() * 2), int(gen.random() * 10) + 1)
              for _ in range(600)]
    always, fixed = LruCache(4), LruCache(4)
    p_always = InsertionPolicy()
    p_fixed = InsertionPolicy(kind=FIXED_PROB, p=1.0)
    est = LatencyEstimator()
    rng = make_stream(6, 2)
    for is_insert, rank in script:
        if is_insert and rank not in always:
            decision, _ = decide_insertion(p_fixed, 1.0, est, rng)
            assert decision  # u in [0,1) is always below p=1
            always.insert(rank)
            fixed.insert(rank)
        else:
            assert always.lookup(rank, p_always) == \
                fixed.lookup(rank, p_fixed)
        assert always.order() == fixed.order()


def test_latency_aware_at_mean_matches_always_after_bootstrap():
    """When every retrieval costs exactly mean_f, the decision probability
    is pinned at one and the trajectory is plain LRU."""
    policy = InsertionPolicy(kind=LATENCY_AWARE, beta=5.0, gamma=5.0)
    est = LatencyEstimator()
    cache, ref = LruCache(3), LruCache(3)
    rng = make_stream(8, 3)
    for rank in [1, 2, 3, 1, 4, 2, 5, 1, 3, 4] * 10:
        if rank in cache:
            cache.lookup(rank, policy, rng)
            ref.lookup(rank, InsertionPolicy())
        else:
            decision, prob = decide_insertion(policy, 3.0, est, rng)
            assert decision is True
            assert prob == 1.0
            est.update(3.0)
            cache.insert(rank)
            ref.insert(rank)
        assert cache.order() == ref.order()
    assert est.mean_f == pytest.approx(3.0)
