"""Packet-level discrete-event simulation of a cache hierarchy.

Topology is a tree rooted at a single repository; users hang off caches and
issue Poisson request streams over a Zipf catalog. A request pulls one whole
object: the user emits interests for every packet of the object at once, and
interests travel hop by hop toward the repository until some cache holds the
object (or the repository answers). Data packets flow back down the reverse
path through FIFO store-and-forward links, are forwarded packet by packet,
and every cache on the return path makes one insertion decision per
completed object.

Pending-interest aggregation is per (node, object): while a retrieval is in
flight, further interests for the same object join the outstanding entry
instead of traveling upstream. Requesters registered before the first data
packet receive the stream as it is forwarded; a requester that joins midway
through the stream is sent a complete copy when the retrieval finishes (the
node is holding the reassembled object at that moment).

Events are ordered by (time, sequence); the sequence number makes ties
deterministic. Links never need idle/busy events: a FIFO link is fully
described by the time its output becomes free, so each transmission is
scheduled arithmetically (start = max(now, busy_until)) and only packet
arrivals enter the event queue. Interests are zero-sized and incur only
propagation delay; only the data direction is capacitated.

Determinism: every stochastic choice draws from a per-node Philox stream
keyed by scenario_seed XOR node_id, so equal configs and seeds reproduce
runs exactly, and adding nodes never perturbs existing streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush, heappop

import yaml

from .cache import (
    ASYMMETRIC,
    SYMMETRIC,
    InsertionPolicy,
    LatencyEstimator,
    LruCache,
    decide_insertion,
    parse_policy,
)
from .metrics import LinkStats, MetricsReport, RunningStats
from .workload import (
    DrawBuffer,
    RequestSource,
    make_stream,
    next_interarrival,
    sample_rank,
    zipf_weights,
)

__all__ = [
    "ConfigError",
    "NodeSpec",
    "LinkSpec",
    "Topology",
    "ScenarioConfig",
    "Link",
    "Simulation",
    "run_scenario",
    "preset",
    "PRESET_NAMES",
    "load_scenario",
    "scenario_from_dict",
]

USER = "user"
CACHE = "cache"
REPOSITORY = "repository"

# event kinds
_REQUEST = 0
_INTEREST = 1
_DATA = 2
_COMPLETE = 3


class ConfigError(ValueError):
    """The scenario description is malformed or unroutable."""


@dataclass
class NodeSpec:
    node_id: int
    kind: str
    cache_capacity_objects: int = 0
    label: str = ""
    policy: InsertionPolicy = None

    def __post_init__(self):
        if self.kind not in (USER, CACHE, REPOSITORY):
            raise ConfigError(f"unknown node kind {self.kind!r}")
        if self.cache_capacity_objects < 0:
            raise ConfigError("cache capacity must be >= 0")
        if not self.label:
            self.label = f"{self.kind}{self.node_id}"


@dataclass
class LinkSpec:
    """One edge of the tree. down is the node on the user side, up the node
    on the repository side; data is capacitated in the up -> down direction."""

    down: int
    up: int
    capacity_bps: float
    prop_delay_s: float = 0.0


@dataclass
class Topology:
    nodes: list
    links: list

    def node_map(self) -> dict:
        return {n.node_id: n for n in self.nodes}

    def validate(self) -> dict:
        """Check routability and return the parent map node_id -> node_id."""
        nodes = self.node_map()
        if len(nodes) != len(self.nodes):
            raise ConfigError("duplicate node ids")
        repos = [n for n in self.nodes if n.kind == REPOSITORY]
        if len(repos) != 1:
            raise ConfigError(f"expected exactly one repository, found {len(repos)}")
        if not any(n.kind == USER for n in self.nodes):
            raise ConfigError("topology has no users")

        parent = {}
        for ls in self.links:
            if ls.down not in nodes or ls.up not in nodes:
                raise ConfigError(f"link {ls.down}->{ls.up} references unknown nodes")
            if not (math.isfinite(ls.capacity_bps) and ls.capacity_bps > 0.0):
                raise ConfigError(f"link {ls.up}->{ls.down} capacity must be "
                                  f"positive and finite, got {ls.capacity_bps!r}")
            if not (math.isfinite(ls.prop_delay_s) and ls.prop_delay_s >= 0.0):
                raise ConfigError(f"link {ls.up}->{ls.down} propagation delay must "
                                  f"be non-negative and finite, got {ls.prop_delay_s!r}")
            if ls.down in parent:
                raise ConfigError(f"node {ls.down} has more than one upstream link")
            parent[ls.down] = ls.up

        repo_id = repos[0].node_id
        if repo_id in parent:
            raise ConfigError("repository cannot have an upstream link")
        for n in self.nodes:
            if n.kind == REPOSITORY:
                continue
            seen = set()
            cur = n.node_id
            while cur != repo_id:
                if cur not in parent:
                    raise ConfigError(f"node {cur} cannot reach the repository")
                if cur in seen:
                    raise ConfigError("topology contains a cycle")
                seen.add(cur)
                cur = parent[cur]
            if n.kind == USER:
                if nodes[parent[n.node_id]].kind != CACHE:
                    raise ConfigError(f"user {n.node_id} must attach to a cache")
            if n.kind == USER and any(p == n.node_id for p in parent.values()):
                raise ConfigError(f"user {n.node_id} cannot have children")
        return parent


@dataclass
class ScenarioConfig:
    topology: Topology
    catalog_size: int
    zipf_alpha: float
    request_rate: float  # objects/s per user population
    object_size_bytes: int
    packet_size_bytes: int
    requests_per_user: int
    seed: int = 1
    policy: InsertionPolicy = field(default_factory=InsertionPolicy)
    stats_warmup_s: float = 0.0
    max_sim_time_s: float = None
    lcp_default_p: float = 0.1
    lac_default_beta: float = 5.0
    lac_default_gamma: float = 5.0
    name: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Raise ConfigError for an out-of-range scalar field. Simulation
        checks again, because callers such as the CLI overwrite fields after
        construction."""
        if self.requests_per_user < 1:
            raise ConfigError("requests_per_user must be >= 1")
        if self.object_size_bytes < 1 or self.packet_size_bytes < 1:
            raise ConfigError("object and packet sizes must be positive")
        if self.object_size_bytes % self.packet_size_bytes != 0:
            raise ConfigError("object size must be a whole number of packets")
        if not (math.isfinite(self.request_rate) and self.request_rate > 0.0):
            raise ConfigError(f"request_rate must be positive and finite, "
                              f"got {self.request_rate!r}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not math.isfinite(self.stats_warmup_s):
            raise ConfigError(f"stats_warmup_s must be finite, "
                              f"got {self.stats_warmup_s!r}")
        cap = self.max_sim_time_s
        if cap is not None and not (math.isfinite(cap) and cap > 0.0):
            raise ConfigError(f"max_sim_time_s must be positive and finite, "
                              f"got {cap!r}")

    @property
    def packets_per_object(self) -> int:
        return self.object_size_bytes // self.packet_size_bytes

    def resolve_policy(self, text_or_policy) -> InsertionPolicy:
        if isinstance(text_or_policy, InsertionPolicy):
            return text_or_policy
        return parse_policy(text_or_policy, lcp_p=self.lcp_default_p,
                            lac_beta=self.lac_default_beta,
                            lac_gamma=self.lac_default_gamma)


class Link:
    """FIFO store-and-forward output queue for the data direction of an edge."""

    __slots__ = ("label", "capacity_bps", "prop_s", "tx_packet_s",
                 "packet_bytes", "busy_until", "busy_seconds", "bytes")

    def __init__(self, label: str, capacity_bps: float, prop_s: float,
                 packet_bytes: int):
        self.label = label
        self.capacity_bps = capacity_bps
        self.prop_s = prop_s
        self.packet_bytes = packet_bytes
        self.tx_packet_s = packet_bytes * 8.0 / capacity_bps
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.bytes = 0

    def transmit_packet(self, now: float) -> float:
        """Enqueue one packet; returns its arrival time at the far end:
        max(now, busy_until) + packet_bytes * 8 / capacity + prop."""
        start = self.busy_until
        if start < now:
            start = now
        end = start + self.tx_packet_s
        self.busy_until = end
        self.busy_seconds += self.tx_packet_s
        self.bytes += self.packet_bytes
        return end + self.prop_s


class _PitEntry:
    __slots__ = ("expected", "received", "arrival_sum", "cache_faces",
                 "user_reqs", "late_cache_faces", "late_user_reqs")

    def __init__(self, expected: int):
        self.expected = expected
        self.received = 0
        self.arrival_sum = 0.0
        self.cache_faces = []
        self.user_reqs = {}
        self.late_cache_faces = []
        self.late_user_reqs = {}


class Simulation:
    """One scenario wired up and ready to run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        config.validate()
        parent_ids = config.topology.validate()
        nodes = config.topology.nodes
        self.idx_of = {n.node_id: i for i, n in enumerate(nodes)}
        self.labels = [n.label for n in nodes]
        self.kinds = [n.kind for n in nodes]
        self.capacity = [n.cache_capacity_objects for n in nodes]
        self.parent = [self.idx_of[parent_ids[n.node_id]]
                       if n.node_id in parent_ids else -1 for n in nodes]

        # uplink[i]: the Link carrying data from i's parent down to i
        self.uplink = [None] * len(nodes)
        for ls in config.topology.links:
            down = self.idx_of[ls.down]
            label = f"{nodes[self.idx_of[ls.up]].label}->{nodes[down].label}"
            self.uplink[down] = Link(label, ls.capacity_bps, ls.prop_delay_s,
                                     config.packet_size_bytes)

        self.model = zipf_weights(config.catalog_size, config.zipf_alpha)
        self.users = [i for i, k in enumerate(self.kinds) if k == USER]
        self.caches = [i for i, k in enumerate(self.kinds) if k == CACHE]
        self.repo = next(i for i, k in enumerate(self.kinds) if k == REPOSITORY)

        self.policy = [None] * len(nodes)
        self.store = [None] * len(nodes)
        self.estimator = [None] * len(nodes)
        self.pit = [None] * len(nodes)
        self.rng = [None] * len(nodes)
        for i in self.caches:
            spec = nodes[i]
            self.policy[i] = spec.policy if spec.policy is not None else config.policy
            self.store[i] = LruCache(spec.cache_capacity_objects)
            self.estimator[i] = LatencyEstimator()
            self.pit[i] = {}
            self.rng[i] = DrawBuffer(make_stream(config.seed, spec.node_id))
        self.sources = {}
        for i in self.users:
            spec = nodes[i]
            self.sources[i] = RequestSource(config.request_rate)
            self.rng[i] = DrawBuffer(make_stream(config.seed, spec.node_id))

    def run(self) -> MetricsReport:
        cfg = self.config
        ppo = cfg.packets_per_object
        warmup = cfg.stats_warmup_s
        time_cap = cfg.max_sim_time_s
        quota = cfg.requests_per_user
        model = self.model
        parent = self.parent
        uplink = self.uplink
        kinds = self.kinds
        capacity = self.capacity
        policies = self.policy
        stores = self.store
        estimators = self.estimator
        pits = self.pit
        rngs = self.rng
        repo = self.repo
        n_nodes = len(kinds)

        rank_req = [dict() for _ in range(n_nodes)]
        rank_req_late = [dict() for _ in range(n_nodes)]
        totals = [[0, 0, 0, 0] for _ in range(n_nodes)]  # req, hit, fwd, join
        dec_count = [0] * n_nodes
        dec_prob_sum = [0.0] * n_nodes
        user_issued = [0] * n_nodes
        user_delivered = [0] * n_nodes
        repo_requests = 0
        user_requests = 0

        d_ranks = []
        d_issued = []
        d_completed = []
        d_stats = RunningStats()
        add_duration = d_stats.add

        heap = []
        seq = 0
        for u in self.users:
            gap = next_interarrival(self.sources[u], rngs[u])
            heap.append((gap, seq, _REQUEST, u))
            seq += 1
        heap.sort()

        emitted = [0] * n_nodes
        now = 0.0

        while heap:
            ev = heappop(heap)
            t = ev[0]
            assert t >= now, "event times must be non-decreasing"
            if time_cap is not None and t > time_cap:
                now = time_cap
                break
            now = t
            kind = ev[2]

            if kind == _DATA:
                node = ev[3]
                rank = ev[4]
                e = pits[node][rank]
                e.received += 1
                e.arrival_sum += t
                finished = e.received == e.expected
                for f in e.cache_faces:
                    heappush(heap, (uplink[f].transmit_packet(t), seq, _DATA, f, rank))
                    seq += 1
                for u, issues in e.user_reqs.items():
                    arr = uplink[u].transmit_packet(t)
                    if finished:
                        heappush(heap, (arr, seq, _COMPLETE, u, rank, issues))
                        seq += 1
                if finished:
                    est = estimators[node]
                    delta = est.measure_delta_t(rank, e.arrival_sum / e.expected)
                    if capacity[node] > 0:
                        dec, prob = decide_insertion(policies[node], delta, est,
                                                     rngs[node])
                        dec_count[node] += 1
                        dec_prob_sum[node] += prob
                        if dec:
                            stores[node].insert(rank, prob)
                            est.update(delta)
                    for f in e.late_cache_faces:
                        link = uplink[f]
                        for _ in range(ppo):
                            heappush(heap, (link.transmit_packet(t), seq, _DATA,
                                            f, rank))
                            seq += 1
                    for u, issues in e.late_user_reqs.items():
                        link = uplink[u]
                        arr = t
                        for _ in range(ppo):
                            arr = link.transmit_packet(t)
                        heappush(heap, (arr, seq, _COMPLETE, u, rank, issues))
                        seq += 1
                    del pits[node][rank]
                continue

            if kind == _INTEREST:
                node = ev[3]
                rank = ev[4]
                frm = ev[5]
                issue = ev[6]
                if node == repo:
                    repo_requests += 1
                    link = uplink[frm]
                    for _ in range(ppo):
                        heappush(heap, (link.transmit_packet(t), seq, _DATA,
                                        frm, rank))
                        seq += 1
                    continue
                tot = totals[node]
                tot[0] += 1
                ent = rank_req[node].get(rank)
                if ent is None:
                    ent = rank_req[node][rank] = [0, 0]
                ent[0] += 1
                late_win = t >= warmup
                if late_win:
                    lent = rank_req_late[node].get(rank)
                    if lent is None:
                        lent = rank_req_late[node][rank] = [0, 0]
                    lent[0] += 1
                if stores[node].lookup(rank, policies[node], rngs[node]):
                    tot[1] += 1
                    ent[1] += 1
                    if late_win:
                        lent[1] += 1
                    link = uplink[frm]
                    if kinds[frm] == USER:
                        arr = t
                        for _ in range(ppo):
                            arr = link.transmit_packet(t)
                        heappush(heap, (arr, seq, _COMPLETE, frm, rank, [issue]))
                        seq += 1
                    else:
                        for _ in range(ppo):
                            heappush(heap, (link.transmit_packet(t), seq, _DATA,
                                            frm, rank))
                            seq += 1
                    continue
                e = pits[node].get(rank)
                if e is not None:
                    tot[3] += 1
                    if kinds[frm] == USER:
                        if frm in e.user_reqs:
                            e.user_reqs[frm].append(issue)
                        elif e.received == 0:
                            e.user_reqs[frm] = [issue]
                        else:
                            e.late_user_reqs.setdefault(frm, []).append(issue)
                    else:
                        if e.received == 0:
                            e.cache_faces.append(frm)
                        else:
                            e.late_cache_faces.append(frm)
                    continue
                tot[2] += 1
                e = _PitEntry(ppo)
                if kinds[frm] == USER:
                    e.user_reqs[frm] = [issue]
                else:
                    e.cache_faces.append(frm)
                pits[node][rank] = e
                estimators[node].record_forward(rank, t)
                up = parent[node]
                heappush(heap, (t + uplink[node].prop_s, seq, _INTEREST, up,
                                rank, node, 0.0))
                seq += 1
                continue

            if kind == _REQUEST:
                u = ev[3]
                emitted[u] += 1
                if emitted[u] < quota:
                    gap = next_interarrival(self.sources[u], rngs[u])
                    heappush(heap, (t + gap, seq, _REQUEST, u))
                    seq += 1
                rank = sample_rank(model, rngs[u])
                user_requests += 1
                user_issued[u] += 1
                ent = rank_req[u].get(rank)
                if ent is None:
                    ent = rank_req[u][rank] = [0, 0]
                ent[0] += 1
                heappush(heap, (t + uplink[u].prop_s, seq, _INTEREST,
                                parent[u], rank, u, t))
                seq += 1
                continue

            # _COMPLETE: the object's last data packet reached user ev[3]
            u = ev[3]
            rank = ev[4]
            for issue in ev[5]:
                add_duration(t - issue)
                d_ranks.append(rank)
                d_issued.append(issue)
                d_completed.append(t)
                user_delivered[u] += 1

        report = MetricsReport(
            policy_label=self.config.policy.label(),
            seed=cfg.seed,
            elapsed=now,
            stats_warmup_s=warmup,
        )
        report.cache_labels = [self.labels[i] for i in self.caches]
        for i in self.caches:
            report.rank_counters[self.labels[i]] = rank_req[i]
            report.rank_counters_late[self.labels[i]] = rank_req_late[i]
            report.node_totals[self.labels[i]] = totals[i]
            if dec_count[i]:
                report.decision_counts[self.labels[i]] = dec_count[i]
                report.decision_prob_sums[self.labels[i]] = dec_prob_sum[i]
        for i in self.users:
            report.rank_counters[self.labels[i]] = rank_req[i]
            report.user_request_counts[self.labels[i]] = user_issued[i]
            report.node_totals[self.labels[i]] = [user_issued[i],
                                                  user_delivered[i], 0, 0]
        report.repo_requests = repo_requests
        report.user_requests = user_requests
        report.delivery_ranks = d_ranks
        report.delivery_issued = d_issued
        report.delivery_completed = d_completed
        report.delivery_stats = d_stats
        for link in self.uplink:
            if link is not None:
                # every reservation was made at or before `now`, so the busy
                # time past the end of the run is the one block
                # [now, busy_until]; it is empty unless the time cap hit
                busy = link.busy_seconds - max(0.0, link.busy_until - now)
                report.links.append(LinkStats(label=link.label,
                                              capacity_bps=link.capacity_bps,
                                              bytes=link.bytes,
                                              busy_seconds=busy))
        return report


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """Build and run one scenario to completion."""
    return Simulation(config).run()


PRESET_NAMES = ("single", "line", "tree")


def preset(name: str, policy="lru", seed: int = 1,
           requests_per_user: int = 200_000,
           stats_warmup_s: float = 0.0) -> ScenarioConfig:
    """Canned scenarios.

    single: one 8-object cache between a user population and the repository
            (200 Kbps user link, 30 Kbps repository link, 10 KB objects).
    line:   three 8-object caches in tandem (300/200/200/30 Kbps).
    tree:   seven 8-object caches in a binary tree, one user population per
            leaf, 1 MB objects split into 100 packets, 30 Mbps links with a
            9 Mbps repository link.

    policy may be a policy string (parsed with the preset's defaults) or an
    InsertionPolicy. Request rate is 1 object/s per user population.
    """
    if name == "single":
        nodes = [
            NodeSpec(1, USER, label="user1"),
            NodeSpec(2, CACHE, cache_capacity_objects=8, label="cache1"),
            NodeSpec(3, REPOSITORY, label="repo"),
        ]
        links = [
            LinkSpec(down=1, up=2, capacity_bps=200_000.0),
            LinkSpec(down=2, up=3, capacity_bps=30_000.0),
        ]
        object_bytes, packet_bytes = 10_000, 10_000
        lcp_p, beta, gamma = 0.1, 5.0, 5.0
    elif name == "line":
        nodes = [
            NodeSpec(1, USER, label="user1"),
            NodeSpec(2, CACHE, cache_capacity_objects=8, label="cache1"),
            NodeSpec(3, CACHE, cache_capacity_objects=8, label="cache2"),
            NodeSpec(4, CACHE, cache_capacity_objects=8, label="cache3"),
            NodeSpec(5, REPOSITORY, label="repo"),
        ]
        links = [
            LinkSpec(down=1, up=2, capacity_bps=300_000.0),
            LinkSpec(down=2, up=3, capacity_bps=200_000.0),
            LinkSpec(down=3, up=4, capacity_bps=200_000.0),
            LinkSpec(down=4, up=5, capacity_bps=30_000.0),
        ]
        object_bytes, packet_bytes = 10_000, 10_000
        lcp_p, beta, gamma = 0.1, 5.0, 5.0
    elif name == "tree":
        nodes = [NodeSpec(i, USER, label=f"user{i}") for i in range(1, 5)]
        nodes += [NodeSpec(4 + i, CACHE, cache_capacity_objects=8,
                           label=f"cache{i}") for i in range(1, 8)]
        nodes += [NodeSpec(12, REPOSITORY, label="repo")]
        links = [
            LinkSpec(down=1, up=5, capacity_bps=30e6),
            LinkSpec(down=2, up=6, capacity_bps=30e6),
            LinkSpec(down=3, up=7, capacity_bps=30e6),
            LinkSpec(down=4, up=8, capacity_bps=30e6),
            LinkSpec(down=5, up=9, capacity_bps=30e6),
            LinkSpec(down=6, up=9, capacity_bps=30e6),
            LinkSpec(down=7, up=10, capacity_bps=30e6),
            LinkSpec(down=8, up=10, capacity_bps=30e6),
            LinkSpec(down=9, up=11, capacity_bps=30e6),
            LinkSpec(down=10, up=11, capacity_bps=30e6),
            LinkSpec(down=11, up=12, capacity_bps=9e6),
        ]
        object_bytes, packet_bytes = 1_000_000, 10_000
        lcp_p, beta, gamma = 0.03, 3.0, 3.0
    else:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

    config = ScenarioConfig(
        topology=Topology(nodes=nodes, links=links),
        catalog_size=20_000,
        zipf_alpha=1.7,
        request_rate=1.0,
        object_size_bytes=object_bytes,
        packet_size_bytes=packet_bytes,
        requests_per_user=requests_per_user,
        seed=seed,
        stats_warmup_s=stats_warmup_s,
        lcp_default_p=lcp_p,
        lac_default_beta=beta,
        lac_default_gamma=gamma,
        name=name,
    )
    config.policy = config.resolve_policy(policy)
    return config


_SCENARIO_KEYS = {
    "seed", "catalog_size", "zipf_alpha", "request_rate_per_user",
    "object_size_bytes", "packet_size_bytes", "requests_per_user",
    "stats_warmup_s", "max_sim_time_s", "policy", "policy_defaults",
    "nodes", "links", "name",
}
_NODE_KEYS = {"id", "kind", "cache_capacity_objects", "label", "policy"}
_LINK_KEYS = {"down", "up", "capacity_bps", "prop_delay_s"}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed config mapping (see load_scenario)."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        defaults = raw.get("policy_defaults", {}) or {}
        if not set(defaults) <= {"lcp_p", "lac_beta", "lac_gamma"}:
            raise ConfigError(f"unknown policy_defaults keys in {sorted(defaults)}")
        nodes = []
        for nd in raw.get("nodes", []):
            unknown = set(nd) - _NODE_KEYS
            if unknown:
                raise ConfigError(f"unknown node keys: {sorted(unknown)}")
            nodes.append(NodeSpec(
                node_id=int(nd["id"]),
                kind=str(nd["kind"]),
                cache_capacity_objects=int(nd.get("cache_capacity_objects", 0)),
                label=str(nd.get("label", "")),
            ))
        links = []
        for ld in raw.get("links", []):
            unknown = set(ld) - _LINK_KEYS
            if unknown:
                raise ConfigError(f"unknown link keys: {sorted(unknown)}")
            links.append(LinkSpec(
                down=int(ld["down"]),
                up=int(ld["up"]),
                capacity_bps=float(ld["capacity_bps"]),
                prop_delay_s=float(ld.get("prop_delay_s", 0.0)),
            ))
        config = ScenarioConfig(
            topology=Topology(nodes=nodes, links=links),
            catalog_size=int(raw["catalog_size"]),
            zipf_alpha=float(raw["zipf_alpha"]),
            request_rate=float(raw["request_rate_per_user"]),
            object_size_bytes=int(raw["object_size_bytes"]),
            packet_size_bytes=int(raw["packet_size_bytes"]),
            requests_per_user=int(raw["requests_per_user"]),
            seed=int(raw.get("seed", 1)),
            stats_warmup_s=float(raw.get("stats_warmup_s", 0.0)),
            max_sim_time_s=(float(raw["max_sim_time_s"])
                            if raw.get("max_sim_time_s") is not None else None),
            lcp_default_p=float(defaults.get("lcp_p", 0.1)),
            lac_default_beta=float(defaults.get("lac_beta", 5.0)),
            lac_default_gamma=float(defaults.get("lac_gamma", 5.0)),
            name=str(raw.get("name", "")),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed scenario config: {exc!r}") from exc
    config.policy = config.resolve_policy(raw.get("policy", "lru"))
    for nd, spec in zip(raw.get("nodes", []), nodes):
        if nd.get("policy") is not None:
            spec.policy = config.resolve_policy(nd["policy"])
    config.topology.validate()
    return config


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario from a YAML config file.

    Top-level keys: seed, catalog_size, zipf_alpha, request_rate_per_user,
    object_size_bytes, packet_size_bytes, requests_per_user, policy,
    policy_defaults {lcp_p, lac_beta, lac_gamma}, nodes, links, and the
    optional stats_warmup_s / max_sim_time_s / name. Node entries carry
    {id, kind: user|cache|repository, cache_capacity_objects, label, policy};
    link entries {down, up, capacity_bps, prop_delay_s} with down the
    user-side endpoint.
    """
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    return scenario_from_dict(raw)
