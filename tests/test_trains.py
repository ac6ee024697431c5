"""One heap event per object per hop: Simulation.run against the per-packet
loop it replaced (tests/per_packet_oracle.py), on every field of the report,
and invariants of generated tree topologies."""

import dataclasses
import random
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lacsim import netsim
from lacsim.metrics import link_load
from lacsim.netsim import Simulation, preset, scenario_from_dict
from per_packet_oracle import PerPacketSimulation
from test_netsim import MIXED_FACES, assert_flow_conserved, bundle_sha

POLICIES = ("lru", "lcp:0.1", "sym:0.1", "sym-la", "lac", "lac:2,3")
HORIZONS = {"single": 3000, "line": 2000, "tree": 150}


def report_state(report) -> dict:
    """Every field of a report as plain values: delivery lists, counters,
    decision sums, elapsed, and each link's bytes and busy seconds; and the
    derived cache labels (in order) and user request total."""
    state = dict(vars(report))
    state["cache_labels"] = list(report.rank_counters)
    state["user_requests"] = report.user_requests
    state.pop("_delivery_stats", None)
    for name in ("delivery_ranks", "delivery_issued", "delivery_completed"):
        state[name] = list(state[name])
    stats = report.delivery_stats
    state["delivery_stats"] = (stats.count, stats.mean, stats._m2)
    state["links"] = [vars(ls) for ls in report.links]
    return state


def assert_matches_oracle(config):
    """Run both loops on config; return the report of Simulation.run."""
    report = Simulation(config).run()
    assert report_state(report) == report_state(PerPacketSimulation(config).run())
    return report


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(HORIZONS))
def test_presets_match_per_packet_loop(name, policy, seed):
    # seed 7 also splits the counters at a warm-up a quarter into the run
    horizon = HORIZONS[name]
    warmup = horizon / 4.0 if seed == 7 else 0.0
    assert_matches_oracle(preset(name, policy=policy, seed=seed,
                                 requests_per_user=horizon,
                                 stats_warmup_s=warmup))


def test_mixed_faces_match_per_packet_loop():
    report = assert_matches_oracle(scenario_from_dict(MIXED_FACES))
    assert report.deliveries == 4000


@pytest.mark.parametrize("name,cap", [("single", 300.0), ("line", 200.0),
                                      ("tree", 40.0), ("mixed", 500.0),
                                      ("single", 296.25), ("tree", 70.0)])
def test_capped_runs_match_per_packet_loop(name, cap):
    # the cap falls while trains are in flight, so queued packets that
    # arrived by the cap must be applied and later ones must not; at
    # line 200 s, single 296.25 s and tree 70 s it also falls while a
    # delivery is in flight, whose rows must be cut
    if name == "mixed":
        config = scenario_from_dict(MIXED_FACES)
    else:
        config = preset(name, policy="lac", seed=2,
                        requests_per_user=HORIZONS[name])
    if name == "single":
        nodes = list(config.topology.nodes)
        nodes[1] = dataclasses.replace(nodes[1], cache_capacity_objects=0)
        config = dataclasses.replace(
            config, topology=dataclasses.replace(config.topology, nodes=nodes))
    config = dataclasses.replace(config, max_sim_time_s=cap)
    report = assert_matches_oracle(config)
    assert report.elapsed == cap
    quota = config.requests_per_user * len(report.user_request_counts)
    assert 0 < report.deliveries <= report.user_requests < quota


def test_tree_schedules_few_events_per_request(monkeypatch):
    # one heap event per object per hop: 100-packet objects must not bring
    # back a push per packet
    config = preset("tree", policy="lac", seed=3, requests_per_user=100)
    pushes, calls = [0], [0]
    push, transmit = netsim.heappush, netsim.Link.transmit_packet

    def counting_push(heap, item):
        pushes[0] += 1
        push(heap, item)

    def counting_transmit(link, now):
        calls[0] += 1
        return transmit(link, now)

    monkeypatch.setattr(netsim, "heappush", counting_push)
    monkeypatch.setattr(netsim.Link, "transmit_packet", counting_transmit)
    report = Simulation(config).run()
    trains = calls[0]
    calls[0] = 0
    PerPacketSimulation(config).run()
    assert trains == calls[0]
    assert pushes[0] <= 5 * report.user_requests


def test_single_schedules_no_completion_events(monkeypatch):
    # a delivery is recorded when its last packet is reserved, not popped
    # as an event of its own; one completion event per delivery would make
    # 3.38 pushes per request here
    config = preset("single", policy="lac:5,5", seed=3, requests_per_user=2000)
    pushes = [0]
    push = netsim.heappush

    def counting_push(heap, item):
        pushes[0] += 1
        push(heap, item)

    monkeypatch.setattr(netsim, "heappush", counting_push)
    report = Simulation(config).run()
    assert report.deliveries == report.user_requests == 2000
    assert pushes[0] <= 2.5 * report.user_requests
    assert [(type(col), col.typecode) for col in (
        report.delivery_ranks, report.delivery_issued,
        report.delivery_completed)] == [(array, "q"), (array, "d"), (array, "d")]


# ------------------------------------------------------------ generated trees

PACKET_BYTES = 1000
# equal capacities give equal transmission times; at 1e21 bps a 1000-byte
# packet takes 8e-18 s, which rounds away against any time past 0.01 s
SPEEDS = (80_000.0, 160_000.0, 1e21)
# at 1e20 requests/s a user issues all its requests within a few ulps of
# time 0, so after a propagation delay their interests arrive at equal times
# and meet each other's data at equal times
RATES = (0.5, 2.0, 8.0, 1e20)


@st.composite
def trees(draw):
    n_caches = draw(st.integers(1, 6))
    n_users = draw(st.integers(1, 4))
    # ids in any order, so a parent may come after its children
    ids = draw(st.permutations(range(1, n_caches + n_users + 2)))
    repo, caches, users = ids[0], ids[1:n_caches + 1], ids[n_caches + 1:]
    nodes = [{"id": repo, "kind": "repository"}]
    links = []
    link = st.fixed_dictionaries({
        "capacity_bps": st.sampled_from(SPEEDS),
        "prop_delay_s": st.sampled_from([0.0, 0.0, 0.002, 0.01])})
    for i, cid in enumerate(caches):
        up = draw(st.sampled_from([repo] + caches[:i]))
        nodes.append({"id": cid, "kind": "cache",
                      "cache_capacity_objects": draw(st.integers(0, 3))})
        links.append(dict(draw(link), down=cid, up=up))
    for uid in users:
        nodes.append({"id": uid, "kind": "user"})
        links.append(dict(draw(link), down=uid, up=draw(st.sampled_from(caches))))
    ppo = draw(st.sampled_from([1, 2, 3, 5, 20]))
    return {
        "seed": draw(st.integers(0, 2 ** 16)),
        "catalog_size": draw(st.integers(1, 12)),
        "zipf_alpha": 1.2,
        "request_rate_per_user": draw(st.sampled_from(RATES)),
        "object_size_bytes": ppo * PACKET_BYTES,
        "packet_size_bytes": PACKET_BYTES,
        "requests_per_user": draw(st.integers(1, 25)),
        "policy": draw(st.sampled_from(POLICIES)),
        "stats_warmup_s": draw(st.sampled_from([0.0, 2.0])),
        "max_sim_time_s": draw(st.sampled_from([None, None, 4.0, 30.0])),
        "nodes": nodes,
        "links": links,
    }


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=trees())
def test_generated_trees(raw):
    config = scenario_from_dict(raw)
    report = assert_matches_oracle(config)
    sim = Simulation(config)
    again = sim.run()
    assert report_state(again) == report_state(report)

    if raw["max_sim_time_s"] is not None:
        assert report.deliveries <= report.user_requests
    else:
        assert report.deliveries == report.user_requests == \
            raw["requests_per_user"] * len(report.user_request_counts)
        assert_flow_conserved(sim, report)
        assert all(not pending for pending in sim.pit if pending is not None)

    for ls in report.links:
        rho = link_load(ls, report.elapsed)
        assert 0.0 < rho <= 1.0 if ls.bytes else rho == 0.0

    # a delivery takes at least the whole object's transmission and the
    # propagation delay on the user's own link. Deliveries that complete
    # together for one rank came from one user face, and only the first of
    # them registered before any packet went down that face: a later one
    # joined the stream in progress and may take less
    ppo = config.packets_per_object
    floor = min(ppo * sim.uplink[u].tx_packet_s + sim.uplink[u].prop_s
                for u in sim.users)
    previous = None
    for rank, issued, completed in zip(report.delivery_ranks,
                                       report.delivery_issued,
                                       report.delivery_completed):
        if (rank, completed) != previous:
            assert completed - issued >= floor - 1e-9
        previous = (rank, completed)

    if report.deliveries:
        with tempfile.TemporaryDirectory() as tmp:
            first = bundle_sha(report, Path(tmp, "a"))
            assert bundle_sha(again, Path(tmp, "b")) == first


# ------------------------------------------------------------ equal-time ties

def tie_tree(seed: int, ppo: int) -> dict:
    """A fixed random tree on which queued packets and events meet at equal
    times. Every link runs at 1e21 bps, and only the user links have a
    propagation delay, of 1 s. Users issue all their requests within a few
    ulps of time 0, so every interest reaches its cache at 1.0 s, where a
    1000-byte packet's 8e-18 s rounds away: every packet and event at a
    cache has time 1.0, and ticks alone order them."""
    draw = random.Random(seed)
    n_caches, n_users = draw.randint(1, 6), draw.randint(1, 4)
    ids = list(range(1, n_caches + n_users + 2))
    draw.shuffle(ids)
    repo, caches, users = ids[0], ids[1:n_caches + 1], ids[n_caches + 1:]
    nodes = [{"id": repo, "kind": "repository"}]
    links = []
    for i, cid in enumerate(caches):
        nodes.append({"id": cid, "kind": "cache",
                      "cache_capacity_objects": draw.randint(0, 3)})
        links.append({"down": cid, "up": draw.choice([repo] + caches[:i]),
                      "capacity_bps": 1e21})
    for uid in users:
        nodes.append({"id": uid, "kind": "user"})
        links.append({"down": uid, "up": draw.choice(caches),
                      "capacity_bps": 1e21, "prop_delay_s": 1.0})
    return {"seed": seed, "catalog_size": draw.randint(1, 12),
            "zipf_alpha": 1.2, "request_rate_per_user": 1e20,
            "object_size_bytes": ppo * PACKET_BYTES,
            "packet_size_bytes": PACKET_BYTES,
            "requests_per_user": draw.randint(1, 25),
            "policy": draw.choice(POLICIES), "nodes": nodes, "links": links}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("ppo", [2, 20])
def test_equal_time_ties_match_per_packet_loop(ppo, seed):
    # a queued packet tied with an event is applied before it exactly when
    # its record was made before the event was scheduled
    report = assert_matches_oracle(scenario_from_dict(tie_tree(seed, ppo)))
    assert report.deliveries == report.user_requests


@pytest.mark.parametrize("seed", range(1, 6))
def test_interest_tied_with_a_later_record_joins_the_stream(seed):
    # users a and b under cache c, 1000-byte packets at 32 kbps (0.25 s
    # each), 5 per object. a's interest reaches c at 0.75 s and is forwarded;
    # the repository's first packet reaches c at 1.0 s in a record made then,
    # after b's interest, due at c at 1.0 s as well, was pushed. So b joins
    # before that packet and is sent the stream as it arrives: the last
    # packet reaches c at 2.0 s and b at 2.25 + 1.0 s. Had the packet been
    # applied first, b would have joined midway and been sent a whole copy
    # from 2.0 s, complete at 4.25 s
    link = {"capacity_bps": 32e3}
    raw = {"seed": seed, "catalog_size": 1, "zipf_alpha": 1.2,
           "request_rate_per_user": 1e20, "object_size_bytes": 5000,
           "packet_size_bytes": 1000, "requests_per_user": 1,
           "policy": "lru",
           "nodes": [{"id": 1, "kind": "user", "label": "a"},
                     {"id": 2, "kind": "user", "label": "b"},
                     {"id": 3, "kind": "cache", "label": "c",
                      "cache_capacity_objects": 1},
                     {"id": 4, "kind": "repository"}],
           "links": [dict(link, down=1, up=3, prop_delay_s=0.75),
                     dict(link, down=2, up=3, prop_delay_s=1.0),
                     dict(link, down=3, up=4)]}
    report = assert_matches_oracle(scenario_from_dict(raw))
    assert sorted(report.delivery_completed) == [3.0, 3.25]
