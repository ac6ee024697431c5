"""Event-driven simulator: topologies, pending-interest handling, links,
conservation laws, reproducibility, and agreement with the steady-state
model."""

import hashlib
import math

import pytest
import yaml

from lacsim.analytics import miss_asym, solve_tau
from lacsim.netsim import (CACHE, REPOSITORY, USER, ConfigError, Link,
                           LinkSpec, NodeSpec, ScenarioConfig, Simulation,
                           Topology, load_scenario, preset, run_scenario,
                           scenario_from_dict)
from lacsim.workload import zipf_weights

REQ, HIT, FWD, JOIN = range(4)


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
    config.policy = config.resolve_policy(policy)
    return config


# ---------------------------------------------------------------- basics

def test_one_object_catalog_fetches_once():
    report = run_scenario(tiny_config(catalog=1, cap=1, horizon=10))
    req, hit, fwd, join = report.node_totals["c1"]
    assert req == 10
    assert fwd == 1
    assert hit + join == 9
    assert report.repo_requests == 1
    assert report.rank_counters["c1"][1][0] == 10
    assert report.user_requests == 10
    assert report.deliveries == 10
    assert report.overall_miss() == pytest.approx(0.1)


def test_zero_capacity_cache_forwards_everything():
    report = run_scenario(tiny_config(catalog=5, cap=0, horizon=40))
    req, hit, fwd, join = report.node_totals["c1"]
    assert req == 40
    assert hit == 0
    assert fwd + join == 40
    assert fwd == report.repo_requests
    assert report.deliveries == 40


def test_full_catalog_capacity_zero_steady_repo_traffic():
    # capacity above the catalog with unconditional insertion: the
    # repository is consulted once per distinct object, never again
    report = run_scenario(tiny_config(catalog=50, cap=60, horizon=600))
    distinct = len(report.rank_counters["user1"])
    assert report.repo_requests == distinct
    assert report.node_totals["c1"][FWD] == distinct


def test_delivery_time_floor():
    # every delivery pays at least the two transmissions of its last packet
    report = run_scenario(tiny_config(catalog=20, cap=4, horizon=50))
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
    report = run_scenario(preset(name, policy="lac", seed=3,
                                 requests_per_user=horizon))
    for label in report.cache_labels:
        req, hit, fwd, join = report.node_totals[label]
        assert req == hit + fwd + join
        assert req == sum(c[0] for c in report.rank_counters[label].values())
        assert hit == sum(c[1] for c in report.rank_counters[label].values())
    for label, issued in report.user_request_counts.items():
        assert issued == horizon
        assert report.node_totals[label][0] == horizon
    assert report.user_requests == horizon * len(report.user_request_counts)
    assert report.deliveries == report.user_requests
    # interests the repository saw = forwards of its adjacent cache
    top = {"single": "cache1", "line": "cache3", "tree": "cache7"}[name]
    assert report.repo_requests == report.node_totals[top][FWD]
    # repository link bytes account one object per repo interest
    repo_link = [ls for ls in report.links if ls.label.startswith("repo")]
    assert len(repo_link) == 1
    per_object = report.repo_requests * \
        preset(name).object_size_bytes
    assert repo_link[0].bytes == per_object


def test_single_lru_matches_steady_state_model():
    config = preset("single", policy="lru", seed=1, requests_per_user=60_000)
    report = run_scenario(config)
    model = zipf_weights(config.catalog_size, config.zipf_alpha)
    tau = solve_tau(8.0, config.request_rate, model).tau
    curve = report.miss_curve("cache1", max_rank=10)
    for rank in range(1, 11):
        expect = float(miss_asym(model.weights[rank - 1], tau, 1.0))
        assert curve[rank] == pytest.approx(expect, abs=0.05)


# -------------------------------------------------------------- randomness

def test_runs_reproduce_byte_identical_csv(tmp_path):
    a = run_scenario(preset("single", policy="lac", seed=5,
                            requests_per_user=400))
    b = run_scenario(preset("single", policy="lac", seed=5,
                            requests_per_user=400))
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


@pytest.mark.parametrize("name,policy,horizon,sha", GOLDEN_BUNDLES)
def test_bundle_matches_golden_sha(name, policy, horizon, sha, tmp_path):
    report = run_scenario(preset(name, policy=policy, seed=1,
                                 requests_per_user=horizon))
    report.export_csv(str(tmp_path))
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == sha


def test_seed_changes_the_run():
    a = run_scenario(preset("single", seed=1, requests_per_user=400))
    b = run_scenario(preset("single", seed=2, requests_per_user=400))
    assert a.delivery_completed != b.delivery_completed


def test_policy_does_not_disturb_request_stream():
    # insertion decisions draw from cache streams, never from user streams,
    # so the issued workload is identical across policies under one seed
    a = run_scenario(preset("single", policy="lru", seed=9,
                            requests_per_user=500))
    b = run_scenario(preset("single", policy="lac", seed=9,
                            requests_per_user=500))
    assert a.rank_counters["user1"] == b.rank_counters["user1"]
    # delivery order differs with the policy; the issued workload cannot
    assert sorted(a.delivery_issued) == sorted(b.delivery_issued)
    assert sorted(a.delivery_ranks) == sorted(b.delivery_ranks)


def test_lac_never_loads_repo_more_than_lru():
    lru = run_scenario(preset("single", policy="lru", seed=1,
                              requests_per_user=30_000))
    lac = run_scenario(preset("single", policy="lac:5,5", seed=1,
                              requests_per_user=30_000))
    assert lac.link("repo->cache1").bytes <= lru.link("repo->cache1").bytes


# ------------------------------------------------------------- accounting

def test_warmup_window_splits_counters():
    config = preset("single", policy="lru", seed=4, requests_per_user=2000,
                    stats_warmup_s=900.0)
    report = run_scenario(config)
    full = report.rank_counters["cache1"][1][0]
    late = report.rank_counters_late["cache1"][1][0]
    assert 0 < late < full
    assert 0.0 <= report.miss_ratio("cache1", 1, late=True) <= 1.0


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
    report = run_scenario(config)
    assert report.node_totals["c"][JOIN] > 0
    assert report.deliveries == 400
    assert report.user_requests == 400


def test_time_cap_stops_early():
    config = tiny_config(catalog=10, cap=2, horizon=5000,
                         max_sim_time_s=50.0)
    report = run_scenario(config)
    assert report.deliveries < 5000
    assert report.elapsed <= 51.0


def test_time_cap_clips_elapsed_and_busy_time():
    # a cacheless single preset saturates the 30 Kbps repository link, so
    # transmissions reserved before the cap run past it
    config = preset("single", policy="lru", seed=1, requests_per_user=2000)
    config.topology.nodes[1].cache_capacity_objects = 0
    config.max_sim_time_s = 300.0
    report = run_scenario(config)
    assert report.deliveries < 2000
    assert report.elapsed == 300.0
    repo_rho = report.load("repo->cache1")
    assert 0.9 < repo_rho <= 1.0
    for ls in report.links:
        assert 0.0 < report.load(ls.label) <= 1.0


# ------------------------------------------------------------- validation

def test_node_and_link_validation():
    with pytest.raises(ConfigError):
        NodeSpec(1, "router")
    with pytest.raises(ConfigError):
        NodeSpec(1, CACHE, cache_capacity_objects=-1)

    def topo(nodes, links):
        Topology(nodes=nodes, links=links).validate()

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


def test_scenario_validation():
    with pytest.raises(ConfigError):
        tiny_config(horizon=0)
    with pytest.raises(ConfigError):
        tiny_config(seed=-1)
    with pytest.raises(ConfigError):
        tiny_config(rate=0.0)
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
    report = run_scenario(config)
    assert report.deliveries == 60
    assert "edge" in report.cache_labels


def test_per_node_policy_override():
    raw = dict(BASE_YAML)
    raw["nodes"] = [dict(n) for n in BASE_YAML["nodes"]]
    raw["nodes"][1]["policy"] = "lcp:0.5"
    config = scenario_from_dict(raw)
    report = run_scenario(config)
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
