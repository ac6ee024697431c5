"""Metamorphic relations: exact checks of a run against a rescaled run of
itself, with no second implementation.

Time scale by k = 2**j: dividing the request rate and every capacity by k,
and multiplying every propagation delay and the warm-up by k, multiplies
every time of the run by k and leaves every counter, rank and decision
probability as it was. Size scale by k: multiplying the object
size, the packet size and every capacity by k multiplies the bytes by k and
leaves everything else as it was. Both hold to the bit, since scaling by a
power of two commutes with rounding; LAC with beta == gamma is unit-free,
and LAC with beta != gamma is not. Each relation is checked on a full run
and on a short one, which ends after the warm-up but well before the full
run would.
"""

import functools

import pytest

from lacsim.netsim import PRESETS, Simulation, scenario_from_dict
from test_netsim import MIXED_FACES
from test_trains import report_state

# name -> (config mapping, requests per user, warm-up, short requests per
# user)
CASES = {
    "single": (PRESETS["single"], 1000, 250.0, 600),
    "line": (PRESETS["line"], 1000, 250.0, 600),
    "tree": (PRESETS["tree"], 60, 15.0, 35),
    "mixed": (MIXED_FACES, 500, 125.0, 300),  # has a propagation delay
}
POLICIES = ("lru", "lcp:0.1", "lac:3,3")
EXPONENTS = (-3, 1, 4)


def scaled(name: str, policy: str, short: bool, time_k: float = 1.0,
           size_k: float = 1.0) -> dict:
    """The config mapping of a case, time-scaled by time_k and size-scaled
    by size_k."""
    raw, horizon, warmup, short_horizon = CASES[name]
    return dict(
        raw, policy=policy, seed=5,
        requests_per_user=short_horizon if short else horizon,
        request_rate_per_user=raw["request_rate_per_user"] / time_k,
        stats_warmup_s=warmup * time_k,
        object_size_bytes=raw["object_size_bytes"] * size_k,
        packet_size_bytes=raw["packet_size_bytes"] * size_k,
        links=[dict(ls, capacity_bps=ls["capacity_bps"] * size_k / time_k,
                    prop_delay_s=ls.get("prop_delay_s", 0.0) * time_k)
               for ls in raw["links"]])


def run_state(raw: dict) -> dict:
    return report_state(Simulation(scenario_from_dict(raw)).run())


@functools.lru_cache(maxsize=None)
def original(name: str, policy: str, short: bool) -> dict:
    return run_state(scaled(name, policy, short))


def expected(state: dict, time_k: float = 1.0, size_k: float = 1.0) -> dict:
    """state with every time multiplied by time_k and every byte count by
    size_k."""
    state = dict(state)
    for column in ("delivery_completed", "delivery_issued"):
        state[column] = [t * time_k for t in state[column]]
    state["elapsed"] *= time_k
    count, mean, m2 = state["delivery_stats"]
    state["delivery_stats"] = (count, mean * time_k, m2 * time_k * time_k)
    state["links"] = [dict(ls, bytes=ls["bytes"] * size_k,
                           busy_seconds=ls["busy_seconds"] * time_k)
                      for ls in state["links"]]
    return state


@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_time_scale(name, policy, short, j):
    base = original(name, policy, short)
    if short:  # the short run ends after the warm-up, before the full run
        assert CASES[name][2] < base["elapsed"] < \
            original(name, policy, False)["elapsed"]
    k = 2.0 ** j
    assert run_state(scaled(name, policy, short, time_k=k)) == \
        expected(base, time_k=k)


@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_size_scale(name, policy, short, j):
    # every size stays a whole number of bytes down to j = -3
    k = 2.0 ** j
    assert run_state(scaled(name, policy, short, size_k=k)) == \
        expected(original(name, policy, short), size_k=k)


def test_lac_with_unequal_exponents_is_not_time_scale_free():
    # (k delta)**2 / (k mean_f)**5 = k**-3 delta**2 / mean_f**5: the
    # decision probabilities, and with them the run, depend on the unit
    base = run_state(scaled("single", "lac:2,5", False))
    again = run_state(scaled("single", "lac:2,5", False, time_k=2.0))
    assert again["decision_prob_sums"] != base["decision_prob_sums"]
    assert again != expected(base, time_k=2.0)
