"""Event-driven simulator: topologies, pending-interest handling, links,
conservation laws, reproducibility, and agreement with the steady-state
model."""

import dataclasses
import hashlib
import math
import pickle

import pytest
import yaml

from lacsim.analytics import miss_asym, solve_tau
from lacsim.metrics import link_load
from lacsim.netsim import (CACHE, REPOSITORY, USER, ConfigError, Link,
                           LinkSpec, NodeSpec, ScenarioConfig, Simulation,
                           PRESETS, Topology, load_scenario, preset,
                           scenario_from_dict)
from lacsim.workload import zipf_weights


def tiny_config(catalog=1, cap=1, horizon=10, policy="lru", seed=1, rate=1.0,
                user_bps=200_000.0, repo_bps=30_000.0, **kwargs):
    """user1 -> c1 -> repo with a 10 KB single-packet object."""
    topo = Topology(
        nodes=[NodeSpec(1, USER),
               NodeSpec(2, CACHE, cache_capacity_objects=cap, label="c1"),
               NodeSpec(3, REPOSITORY, label="repo")],
        links=[LinkSpec(down=1, up=2, capacity_bps=user_bps),
               LinkSpec(down=2, up=3, capacity_bps=repo_bps)])
    config = ScenarioConfig(
        topology=topo, catalog_size=catalog, zipf_alpha=1.7,
        request_rate=rate, object_size_bytes=10_000,
        packet_size_bytes=10_000, requests_per_user=horizon, seed=seed,
        **kwargs)
    return dataclasses.replace(config, policy=config.resolve_policy(policy))


def requests_hits(report, label) -> tuple:
    """A cache's requests and hits over the whole run."""
    counts = report.rank_counters[label].values()
    return sum(c[0] for c in counts), sum(c[1] for c in counts)


def assert_flow_conserved(sim, report):
    """In an uncapped run every interest a node received was sent by a
    child: a cache forwarding a miss, or a user issuing a request."""
    labels = sim.labels
    sent = {labels[i]: 0 for i in sim.caches + [sim.repo]}
    for i in sim.caches:
        sent[labels[sim.parent[i]]] += report.forwards[labels[i]]
    for i in sim.users:
        sent[labels[sim.parent[i]]] += report.user_request_counts[labels[i]]
    received = {label: requests_hits(report, label)[0]
                for label in report.rank_counters}
    received[labels[sim.repo]] = report.repo_requests
    assert received == sent
    for label in report.rank_counters:
        requests, hits = requests_hits(report, label)
        assert hits + report.forwards[label] <= requests  # joins >= 0


# ---------------------------------------------------------------- basics

def test_one_object_catalog_fetches_once():
    report = Simulation(tiny_config(catalog=1, cap=1, horizon=10)).run()
    assert report.rank_counters["c1"][1][0] == 10
    assert report.forwards["c1"] == 1
    assert report.repo_requests == 1
    assert report.user_requests == 10
    assert report.deliveries == 10
    assert report.overall_miss() == pytest.approx(0.1)


def test_zero_capacity_cache_forwards_everything():
    report = Simulation(tiny_config(catalog=5, cap=0, horizon=40)).run()
    assert requests_hits(report, "c1") == (40, 0)
    assert report.forwards["c1"] == report.repo_requests
    assert report.deliveries == 40


def test_full_catalog_capacity_zero_steady_repo_traffic():
    # capacity above the catalog with unconditional insertion: the
    # repository is consulted once per distinct object, never again
    report = Simulation(tiny_config(catalog=50, cap=60, horizon=600)).run()
    distinct = len(report.rank_counters["c1"])
    assert report.repo_requests == distinct
    assert report.forwards["c1"] == distinct


def test_delivery_time_floor():
    # every delivery pays at least the two transmissions of its last packet
    report = Simulation(tiny_config(catalog=20, cap=4, horizon=50)).run()
    floor = 10_000 * 8 / 200_000.0  # downstream hop alone
    assert report.deliveries == 50
    for issued, completed in zip(report.delivery_issued,
                                 report.delivery_completed):
        assert completed - issued >= floor - 1e-9


# ---------------------------------------------------------------- links

def test_link_queueing_arithmetic():
    link = Link("up->down", 30_000.0, 0.0, 10_000)
    assert link.transmit_packet(0.0) == pytest.approx(8.0 / 3.0)
    # second packet queues behind the first
    assert link.transmit_packet(0.0) == pytest.approx(16.0 / 3.0)
    # idle link restarts at now
    assert link.transmit_packet(10.0) == pytest.approx(10.0 + 8.0 / 3.0)
    assert link.busy_seconds == pytest.approx(8.0)
    assert link.bytes == 30_000
    assert link.transmit_packet(20.0) == pytest.approx(20.0 + 8.0 / 3.0)


def test_link_propagation_delay_not_occupancy():
    link = Link("up->down", 30_000.0, 0.5, 10_000)
    assert link.transmit_packet(0.0) == pytest.approx(8.0 / 3.0 + 0.5)
    assert link.busy_until == pytest.approx(8.0 / 3.0)
    assert link.busy_seconds == pytest.approx(8.0 / 3.0)


# ------------------------------------------------------------ conservation

@pytest.mark.parametrize("name,horizon", [("single", 4000), ("line", 3000),
                                          ("tree", 800)])
def test_flow_conservation(name, horizon):
    sim = Simulation(preset(name, policy="lac", seed=3,
                            requests_per_user=horizon))
    report = sim.run()
    assert_flow_conserved(sim, report)
    assert list(report.rank_counters) == list(report.forwards) == \
        [sim.labels[i] for i in sim.caches]
    for label, issued in report.user_request_counts.items():
        assert issued == horizon
    assert report.user_requests == horizon * len(report.user_request_counts)
    assert report.deliveries == report.user_requests
    # repository link bytes account one object per repo interest
    repo_link = [ls for ls in report.links if ls.label.startswith("repo")]
    assert len(repo_link) == 1
    per_object = report.repo_requests * \
        preset(name).object_size_bytes
    assert repo_link[0].bytes == per_object


def test_single_lru_matches_steady_state_model():
    config = preset("single", policy="lru", seed=1, requests_per_user=60_000)
    report = Simulation(config).run()
    model = zipf_weights(config.catalog_size, config.zipf_alpha)
    tau = solve_tau(8.0, config.request_rate, model).tau
    curve = report.miss_curve("cache1", max_rank=10)
    for rank in range(1, 11):
        expect = float(miss_asym(model.weights[rank - 1], tau, 1.0))
        assert curve[rank] == pytest.approx(expect, abs=0.05)


# -------------------------------------------------------------- randomness

def test_runs_reproduce_byte_identical_csv(tmp_path):
    a = Simulation(preset("single", policy="lac", seed=5,
                          requests_per_user=400)).run()
    b = Simulation(preset("single", policy="lac", seed=5,
                          requests_per_user=400)).run()
    da, db = tmp_path / "a", tmp_path / "b"
    a.export_csv(str(da))
    b.export_csv(str(db))
    for name in ("miss_prob.csv", "delivery.csv", "links.csv", "summary.csv"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


# sha256 over (file name, NUL, contents) of the sorted CSV bundle of seed-1
# runs, recorded before the delivery accumulator and the latency estimator
# were reworked: refactors of the simulator must leave every byte in place
GOLDEN_BUNDLES = [
    ("single", "lac:5,5", 40_000,
     "15851086e8773952e9a3ab283931c53b437c8ba5a35bc7ef7b4a5f63e7570fb3"),
    ("line", "sym-la", 20_000,
     "0ce5b62c48cc683a32558990138debb432f707fd5d9b044b824e0ccee578fb56"),
    ("tree", "lac", 1_000,
     "9bfff5c2be57507a9f3240598768a7724b9d1d7c5dcdf3d22fdb5e5418028cbc"),
]


# Two users under a two-cache chain: cache 4 serves user 2 and cache 3, so
# its pending entries mix user and cache faces, and the slow repository link
# leaves time for faces of both kinds to join midway through a retrieval
MIXED_FACES = {
    "seed": 1, "catalog_size": 20, "zipf_alpha": 1.2,
    "request_rate_per_user": 1.0, "object_size_bytes": 40_000,
    "packet_size_bytes": 10_000, "requests_per_user": 2000,
    "policy": "lac:2,2",
    "nodes": [{"id": 1, "kind": "user"}, {"id": 2, "kind": "user"},
              {"id": 3, "kind": "cache", "cache_capacity_objects": 3},
              {"id": 4, "kind": "cache", "cache_capacity_objects": 2},
              {"id": 5, "kind": "repository"}],
    "links": [{"down": 1, "up": 3, "capacity_bps": 1e6},
              {"down": 3, "up": 4, "capacity_bps": 1e6},
              {"down": 2, "up": 4, "capacity_bps": 1e6},
              {"down": 4, "up": 5, "capacity_bps": 400_000.0,
               "prop_delay_s": 0.01}],
}
GOLDEN_MIXED_FACES = \
    "6552965fd9b9f95e6ef0ec2bc6c76059d112cb30bbd4e9a7b9942589f69376d8"


def bundle_sha(report, outdir) -> str:
    report.export_csv(str(outdir))
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,policy,horizon,sha", GOLDEN_BUNDLES)
def test_bundle_matches_golden_sha(name, policy, horizon, sha, tmp_path):
    report = Simulation(preset(name, policy=policy, seed=1,
                               requests_per_user=horizon)).run()
    assert bundle_sha(report, tmp_path) == sha


def test_mixed_face_bundle_matches_golden_sha(tmp_path):
    report = Simulation(scenario_from_dict(MIXED_FACES)).run()
    assert report.deliveries == 4000
    assert bundle_sha(report, tmp_path) == GOLDEN_MIXED_FACES


def test_second_run_is_refused():
    # a second run would start its clock at 0 on the links, caches and
    # streams the first run left behind
    sim = Simulation(preset("single", policy="lru", seed=1,
                            requests_per_user=2000))
    first = sim.run()
    assert first.mean_delivery() == pytest.approx(1.49, abs=0.01)
    with pytest.raises(RuntimeError, match="run already"):
        sim.run()


def test_seed_changes_the_run():
    a = Simulation(preset("single", seed=1, requests_per_user=400)).run()
    b = Simulation(preset("single", seed=2, requests_per_user=400)).run()
    assert a.delivery_completed != b.delivery_completed


def test_policy_does_not_disturb_request_stream():
    # insertion decisions draw from cache streams, never from user streams,
    # so the issued workload is identical across policies under one seed
    a = Simulation(preset("single", policy="lru", seed=9,
                          requests_per_user=500)).run()
    b = Simulation(preset("single", policy="lac", seed=9,
                          requests_per_user=500)).run()
    # delivery order differs with the policy; the issued workload cannot
    assert sorted(zip(a.delivery_issued, a.delivery_ranks)) == \
        sorted(zip(b.delivery_issued, b.delivery_ranks))


def test_lac_never_loads_repo_more_than_lru():
    lru = Simulation(preset("single", policy="lru", seed=1,
                            requests_per_user=30_000)).run()
    lac = Simulation(preset("single", policy="lac:5,5", seed=1,
                            requests_per_user=30_000)).run()
    assert lac.links[-1].label == lru.links[-1].label == "repo->cache1"
    assert lac.links[-1].bytes <= lru.links[-1].bytes


# A repository link of 1e21 bps with no propagation delay: the latency the
# cache measures is 0 (seed 1) or, as the mean of three packet arrivals,
# rounds to just below 0 (seed 30). LAC must still decide every insertion.
VANISHING = {
    "seed": 1, "catalog_size": 10, "zipf_alpha": 1.2,
    "request_rate_per_user": 2.0, "object_size_bytes": 3000,
    "packet_size_bytes": 1000, "requests_per_user": 50, "policy": "lac",
    "nodes": [{"id": 1, "kind": "user"},
              {"id": 2, "kind": "cache", "cache_capacity_objects": 2},
              {"id": 3, "kind": "repository"}],
    "links": [{"down": 1, "up": 2, "capacity_bps": 1e6},
              {"down": 2, "up": 3, "capacity_bps": 1e21}],
}


@pytest.mark.parametrize("seed", [1, 30])
def test_lac_runs_when_latencies_vanish(seed):
    sim = Simulation(scenario_from_dict(dict(VANISHING, seed=seed)))
    report = sim.run()
    assert report.deliveries == 50
    assert 0.0 < report.mean_decision_prob("cache2") <= 1.0
    assert sim.estimator[sim.caches[0]].mean_f >= 0.0


# ------------------------------------------------------------- accounting

def test_warmup_window_splits_counters():
    config = preset("single", policy="lru", seed=4, requests_per_user=2000,
                    stats_warmup_s=900.0)
    report = Simulation(config).run()
    requests, hits, late_requests, late_hits = report.rank_counters["cache1"][1]
    assert 0 < late_requests < requests
    assert 0 <= late_hits <= min(hits, late_requests)
    # the CSV bundle does not cover the late window, so pin its values
    assert report.miss_curve("cache1", 20, late=True) == {
        1: 0.0, 2: 0.05847953216374269, 3: 0.27906976744186046,
        4: 0.288135593220339, 5: 0.358974358974359, 6: 0.5862068965517241,
        7: 0.8666666666666667, 8: 0.6666666666666666, 9: 0.7333333333333333,
        10: 1.0, 11: 0.6666666666666666, 12: 1.0, 13: 1.0,
        14: 0.7142857142857143, 15: 0.75, 16: 0.7777777777777778, 17: 1.0,
        18: 1.0, 19: 1.0, 20: 1.0}


def test_pending_interest_aggregation():
    # two users hammer a one-object catalog over a slow repository link:
    # concurrent interests must join the outstanding fetch
    topo = Topology(
        nodes=[NodeSpec(1, USER), NodeSpec(2, USER),
               NodeSpec(3, CACHE, cache_capacity_objects=0, label="c"),
               NodeSpec(4, REPOSITORY, label="repo")],
        links=[LinkSpec(1, 3, 1e6), LinkSpec(2, 3, 1e6),
               LinkSpec(3, 4, 30_000.0)])
    config = ScenarioConfig(
        topology=topo, catalog_size=1, zipf_alpha=1.7, request_rate=5.0,
        object_size_bytes=10_000, packet_size_bytes=10_000,
        requests_per_user=200, seed=2)
    report = Simulation(config).run()
    requests, hits = requests_hits(report, "c")
    assert requests - hits - report.forwards["c"] > 0  # joins
    assert report.deliveries == 400
    assert report.user_requests == 400


def test_time_cap_stops_early():
    config = tiny_config(catalog=10, cap=2, horizon=5000,
                         max_sim_time_s=50.0)
    report = Simulation(config).run()
    assert report.deliveries < 5000
    assert report.elapsed <= 51.0


def test_time_cap_clips_elapsed_and_busy_time():
    # a cacheless single preset saturates the 30 Kbps repository link, so
    # transmissions reserved before the cap run past it
    config = preset("single", policy="lru", seed=1, requests_per_user=2000)
    nodes = list(config.topology.nodes)
    nodes[1] = dataclasses.replace(nodes[1], cache_capacity_objects=0)
    config = dataclasses.replace(
        config, topology=dataclasses.replace(config.topology, nodes=nodes),
        max_sim_time_s=300.0)
    report = Simulation(config).run()
    assert report.deliveries < 2000
    assert report.elapsed == 300.0
    rho = {ls.label: link_load(ls, report.elapsed) for ls in report.links}
    assert 0.9 < rho["repo->cache1"] <= 1.0
    assert all(0.0 < r <= 1.0 for r in rho.values())


# ------------------------------------------------------------- validation

def test_node_and_link_validation():
    with pytest.raises(ConfigError):
        NodeSpec(1, "router")
    with pytest.raises(ConfigError):
        NodeSpec(1, CACHE, cache_capacity_objects=-1)

    def topo(nodes, links):
        Topology(nodes=nodes, links=links)

    u, c, r = (NodeSpec(1, USER), NodeSpec(2, CACHE, 4, "c"),
               NodeSpec(3, REPOSITORY))
    good_links = [LinkSpec(1, 2, 1e6), LinkSpec(2, 3, 1e6)]
    topo([u, c, r], good_links)  # sanity: this one is fine

    with pytest.raises(ConfigError):  # duplicate ids
        topo([u, NodeSpec(1, CACHE, 4), r], good_links)
    with pytest.raises(ConfigError):  # two repositories
        topo([u, c, r, NodeSpec(4, REPOSITORY)], good_links)
    with pytest.raises(ConfigError):  # no users
        topo([c, r], [LinkSpec(2, 3, 1e6)])
    with pytest.raises(ConfigError):  # unknown endpoint
        topo([u, c, r], [LinkSpec(1, 2, 1e6), LinkSpec(2, 9, 1e6)])
    with pytest.raises(ConfigError):  # non-positive capacity
        topo([u, c, r], [LinkSpec(1, 2, 0.0), LinkSpec(2, 3, 1e6)])
    with pytest.raises(ConfigError):  # two upstream links
        topo([u, c, r], good_links + [LinkSpec(1, 3, 1e6)])
    with pytest.raises(ConfigError):  # repository has a parent
        topo([u, c, r], good_links + [LinkSpec(3, 2, 1e6)])
    with pytest.raises(ConfigError):  # stranded cache
        topo([u, c, r, NodeSpec(5, CACHE, 4)], good_links)
    with pytest.raises(ConfigError):  # cycle between two caches
        topo([u, c, NodeSpec(4, CACHE, 4), r],
             [LinkSpec(1, 2, 1e6), LinkSpec(2, 4, 1e6), LinkSpec(4, 2, 1e6)])
    with pytest.raises(ConfigError):  # user attached to the repository
        topo([u, c, r], [LinkSpec(1, 3, 1e6), LinkSpec(2, 3, 1e6)])
    with pytest.raises(ConfigError):  # user with a child
        topo([u, c, r, NodeSpec(6, USER)],
             good_links + [LinkSpec(6, 1, 1e6)])
    with pytest.raises(ConfigError, match="cannot have children"):
        topo([u, c, r, NodeSpec(6, CACHE, 4)],
             good_links + [LinkSpec(6, 1, 1e6)])


@pytest.mark.parametrize("labels", [
    ("edge", "edge"),       # two caches under one label
    ("", "cache2"),         # the default label of cache 2 given to cache 3
    ("a,b", "c"), ('a"b', "c"), ("a\nb", "c"),  # unsafe in the CSV bundle
])
def test_node_labels_are_unique_and_csv_safe(labels):
    raw = dict(BASE_YAML)
    raw["nodes"] = [{"id": 1, "kind": "user"},
                    {"id": 2, "kind": "cache", "cache_capacity_objects": 4,
                     "label": labels[0]},
                    {"id": 3, "kind": "cache", "cache_capacity_objects": 4,
                     "label": labels[1]},
                    {"id": 4, "kind": "user"},
                    {"id": 5, "kind": "repository"}]
    raw["links"] = [{"down": 1, "up": 2, "capacity_bps": 200_000},
                    {"down": 4, "up": 3, "capacity_bps": 200_000},
                    {"down": 2, "up": 5, "capacity_bps": 30_000},
                    {"down": 3, "up": 5, "capacity_bps": 30_000}]
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        tiny_config(horizon=0)
    with pytest.raises(ConfigError):
        tiny_config(seed=-1)
    for rate in (0.0, -1.0):
        with pytest.raises(ConfigError):
            tiny_config(rate=rate)
    bad = tiny_config()
    with pytest.raises(ValueError):
        bad.resolve_policy("bogus")
    # object size must split into whole packets
    topo = tiny_config().topology
    with pytest.raises(ConfigError):
        ScenarioConfig(topology=topo, catalog_size=10, zipf_alpha=1.7,
                       request_rate=1.0, object_size_bytes=10_000,
                       packet_size_bytes=3_000, requests_per_user=10)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("bogus")


@pytest.mark.parametrize("name", list(PRESETS))
def test_preset_is_its_config_file(name, tmp_path):
    # a preset is the config file PRESETS[name], overrides included
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(PRESETS[name]))
    assert load_scenario(str(path)) == preset(name)
    assert load_scenario(str(path), policy="sym:0.2", seed=7,
                         requests_per_user=123, stats_warmup_s=4.0) == \
        preset(name, policy="sym:0.2", seed=7, requests_per_user=123,
               stats_warmup_s=4.0)


def test_tree_preset_policy_defaults():
    assert preset("tree", policy="lcp").policy.label() == "lcp:0.03"
    assert preset("tree", policy="lac").policy.label() == "lac:3,3"
    assert preset("single", policy="lac").policy.label() == "lac:5,5"


# ---------------------------------------------------------------- loader

BASE_YAML = {
    "name": "mini",
    "seed": 3,
    "catalog_size": 40,
    "zipf_alpha": 1.7,
    "request_rate_per_user": 1.0,
    "object_size_bytes": 10_000,
    "packet_size_bytes": 10_000,
    "requests_per_user": 60,
    "policy": "lru",
    "nodes": [
        {"id": 1, "kind": "user"},
        {"id": 2, "kind": "cache", "cache_capacity_objects": 4,
         "label": "edge"},
        {"id": 3, "kind": "repository"},
    ],
    "links": [
        {"down": 1, "up": 2, "capacity_bps": 200_000},
        {"down": 2, "up": 3, "capacity_bps": 30_000},
    ],
}


def test_yaml_round_trip(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(yaml.safe_dump(BASE_YAML))
    config = load_scenario(str(path))
    assert config.name == "mini"
    assert config.seed == 3
    report = Simulation(config).run()
    assert report.deliveries == 60
    assert "edge" in report.rank_counters


def test_per_node_policy_override():
    raw = dict(BASE_YAML)
    raw["nodes"] = [dict(n) for n in BASE_YAML["nodes"]]
    raw["nodes"][1]["policy"] = "lcp:0.5"
    config = scenario_from_dict(raw)
    report = Simulation(config).run()
    # FixedProb always reports its own p, so the mean pins the override
    assert report.mean_decision_prob("edge") == pytest.approx(0.5)


def test_policy_defaults_block():
    raw = dict(BASE_YAML)
    raw["policy"] = "lcp"
    raw["policy_defaults"] = {"lcp_p": 0.07}
    config = scenario_from_dict(raw)
    assert config.policy.p == 0.07
    assert config.policy.label() == "lcp:0.07"


def test_loader_rejects_unknown_keys(tmp_path):
    raw = dict(BASE_YAML)
    raw["router_mtu"] = 1500
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)
    raw = dict(BASE_YAML)
    raw["nodes"] = [dict(BASE_YAML["nodes"][0], color="red")] + \
        BASE_YAML["nodes"][1:]
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)
    raw = dict(BASE_YAML)
    raw["links"] = [dict(BASE_YAML["links"][0], mtu=9000)] + \
        BASE_YAML["links"][1:]
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)


@pytest.mark.parametrize("where,key", [
    ("links", "capacity_bps"), ("links", "prop_delay_s"),
    (None, "request_rate_per_user"), (None, "stats_warmup_s"),
    (None, "max_sim_time_s"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_loader_rejects_non_finite_values(where, key, value):
    raw = dict(BASE_YAML)
    if where is None:
        raw[key] = value
    else:
        raw[where] = [dict(BASE_YAML[where][0], **{key: value})] + \
            BASE_YAML[where][1:]
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)


@pytest.mark.parametrize("where,key,value,named", [
    # a packet would take 8e4 / 1e-310 = inf s: the run would end at
    # elapsed = inf with a user-link rho of nan
    ("links", "capacity_bps", 1e-310, "link 2->1 capacity_bps"),
    # crossed by an interest and by data, the delay would end the run at inf
    ("links", "prop_delay_s", 1e308, "link 2->1 prop_delay_s"),
    # 50 gaps of up to 36.74 / rate each
    (None, "request_rate_per_user", 1e-307, "request_rate_per_user"),
    (None, "requests_per_user", 10**400, "requests_per_user"),
], ids=["capacity", "prop_delay", "rate", "requests"])
def test_loader_rejects_runs_whose_times_overflow(where, key, value, named):
    raw = dict(PRESETS["single"], requests_per_user=50)
    if where is None:
        raw[key] = value
    else:
        raw[where] = [dict(raw[where][0], **{key: value})] + raw[where][1:]
    with pytest.raises(ConfigError, match=named):
        scenario_from_dict(raw)


def test_loader_rejects_malformed_input(tmp_path):
    with pytest.raises(ConfigError):
        scenario_from_dict(["not", "a", "mapping"])
    missing = {k: v for k, v in BASE_YAML.items() if k != "catalog_size"}
    with pytest.raises(ConfigError):
        scenario_from_dict(missing)
    bad = tmp_path / "broken.yaml"
    bad.write_text("nodes: [unterminated\n")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


@pytest.mark.parametrize("where,key", [
    (None, "catalog_size"), (None, "requests_per_user"),
    (None, "object_size_bytes"), (None, "packet_size_bytes"), (None, "seed"),
    ("nodes", "id"), ("nodes", "cache_capacity_objects"),
    ("links", "down"), ("links", "up"),
])
@pytest.mark.parametrize("value", ["fraction", True])
def test_loader_rejects_non_integral_counts(where, key, value):
    # a count is never truncated: 1.9 requests is not 1, and true is not 1
    raw = dict(BASE_YAML)
    if where is None:
        entry = raw
    else:
        raw[where] = [dict(e) for e in BASE_YAML[where]]
        entry = raw[where][1 if key == "cache_capacity_objects" else 0]
    entry[key] = entry[key] + 0.5 if value == "fraction" else value
    with pytest.raises(ConfigError, match=key):
        scenario_from_dict(raw)


def test_loader_reads_whole_floats_as_integers():
    config = scenario_from_dict(dict(BASE_YAML, catalog_size=40.0))
    assert config.catalog_size == 40 and isinstance(config.catalog_size, int)


@pytest.mark.parametrize("key,value", [
    ("catalog_size", 0), ("catalog_size", -3),
    ("zipf_alpha", 0.0), ("zipf_alpha", -1.7),
    ("zipf_alpha", math.nan), ("zipf_alpha", math.inf),
    ("seed", 2**128), ("seed", 2**130 + 3),
])
def test_loader_rejects_values_the_run_cannot_use(key, value):
    # each of these used to be accepted and then fail in Simulation with a
    # bare ValueError from zipf_weights or from the stream's Philox key
    with pytest.raises(ConfigError, match=key):
        scenario_from_dict(dict(BASE_YAML, **{key: value}))


def test_stream_keys_stay_below_the_philox_bound():
    # seed ^ node_id keys a Philox stream, which takes keys in [0, 2**128)
    report = Simulation(scenario_from_dict(dict(BASE_YAML, seed=2**128 - 1))).run()
    assert report.deliveries == BASE_YAML["requests_per_user"]
    for node_id in (-1, 2**128):
        with pytest.raises(ConfigError):
            NodeSpec(node_id, USER)


@pytest.mark.parametrize("where", ["top", "node"])
@pytest.mark.parametrize("policy", [5, ["lru"], {"lru": 1}, "bogus", "lcp:2"])
def test_loader_rejects_bad_policies(where, policy):
    raw = dict(BASE_YAML)
    if where == "top":
        raw["policy"] = policy
    else:
        raw["nodes"] = [dict(n) for n in BASE_YAML["nodes"]]
        raw["nodes"][1]["policy"] = policy
    with pytest.raises(ConfigError, match="policy"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("defaults", [{"lcp_q": 0.2}, {"lcp_p": 1.5},
                                      {"lac_beta": -1.0}, ["lcp_p"]])
def test_loader_rejects_bad_policy_defaults(defaults):
    # checked when the config is built, whether or not a policy string uses
    # them
    for policy in ("lru", "lcp", "lac"):
        with pytest.raises(ConfigError, match="policy"):
            scenario_from_dict(dict(BASE_YAML, policy=policy,
                                    policy_defaults=defaults))


@pytest.mark.parametrize("where,key,value", [
    (None, "catalog_size", "x"), (None, "zipf_alpha", "steep"),
    ("links", "capacity_bps", "fast"), ("links", "prop_delay_s", "soon"),
])
def test_loader_reports_unreadable_numbers(where, key, value):
    # a string that int() or float() cannot read is a ConfigError naming
    # the key, not a bare ValueError from the conversion
    raw = dict(BASE_YAML)
    entry = raw
    if where is not None:
        raw[where] = [dict(e) for e in BASE_YAML[where]]
        entry = raw[where][0]
    entry[key] = value
    with pytest.raises(ConfigError, match=key):
        scenario_from_dict(raw)


def test_loader_reads_numeric_strings():
    # PyYAML reads 30e3 and 3.0e4 as strings
    raw = yaml.safe_load("catalog_size: '40'\nzipf_alpha: 1.7e0\n")
    raw = dict(BASE_YAML, **raw)
    raw["links"] = [dict(BASE_YAML["links"][0], capacity_bps="30e3"),
                    dict(BASE_YAML["links"][1], capacity_bps="3.0e4")]
    config = scenario_from_dict(raw)
    assert config.catalog_size == 40 and config.zipf_alpha == 1.7
    assert [ls.capacity_bps for ls in config.topology.links] == [30e3, 30e3]


def test_policy_defaults_are_frozen_and_picklable():
    config = preset("tree", policy="lac", requests_per_user=5)
    with pytest.raises(TypeError):
        config.policy_defaults["lcp_p"] = 2.0
    assert config.resolve_policy("lcp") == preset("tree").resolve_policy("lcp")
    assert pickle.loads(pickle.dumps(config)) == config
    copy = dataclasses.replace(config, seed=4)
    assert copy.policy_defaults == config.policy_defaults
    assert copy.resolve_policy("lac") == config.resolve_policy("lac")
    assert copy.resolve_policy("lac").beta == 3.0


def test_configs_are_frozen_values():
    # a config is checked once, when it is built; it cannot be changed
    # afterwards, and a copy made with dataclasses.replace is checked again
    config = preset("tree", policy="lac", requests_per_user=5)
    topology = config.topology
    for value in (config, topology, topology.nodes[0], topology.links[0]):
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    with pytest.raises(ConfigError):
        dataclasses.replace(config, max_sim_time_s=0.0)
    with pytest.raises(ConfigError):  # the root cache loses its uplink
        dataclasses.replace(topology, links=topology.links[:-1])
    with pytest.raises(ConfigError):
        dataclasses.replace(topology.nodes[0], kind="router")
    copy = dataclasses.replace(config, seed=4)
    assert copy.seed == 4 and copy.topology is topology
    assert copy.policy_defaults == config.policy_defaults
    # the parent map the check computed is kept
    assert topology.parent == {1: 5, 2: 6, 3: 7, 4: 8, 5: 9, 6: 9, 7: 10,
                               8: 10, 9: 11, 10: 11, 11: 12}


def test_simulation_runs_no_scenario_check(monkeypatch):
    config = preset("single", policy="lac", requests_per_user=5)
    monkeypatch.setattr(Topology, "__post_init__",
                        lambda self: pytest.fail("topology checked again"))
    assert Simulation(config).run().deliveries == 5
