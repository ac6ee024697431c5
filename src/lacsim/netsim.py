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
packet receive the stream as it is forwarded, and so does a later request
from a user face that is already receiving it, which gets the rest of the
stream; any other requester that joins midway through the stream is sent a
complete copy when the retrieval finishes (the node is holding the
reassembled object at that moment).

Links never need idle/busy events: a FIFO link is fully described by the
time its output becomes free, so each transmission is scheduled
arithmetically (start = max(now, busy_until)), and a Link holds that time
alone. Simulation.run counts the packets it reserves on each link, and a
link's bytes and busy time are derived from its count after the run (see
busy_time). Events are requests, interest arrivals, and the arrival of an
object's last packet at each cache. Data moves by reservations, each a run
of one object's packets sent down one link in order, and one rule says
what a reservation becomes. On the link to
a cache, the packets before the object's last become one record, in a FIFO
owned by that cache, and are applied just before the first event at that
cache, or at a cache or user below it, that they precede (see
Simulation.run); the last packet becomes an event. On the link to a user,
the last packet's arrival is the delivery: it is recorded, with its arrival
time, when that packet is reserved, and is not an event. Every event
and every record is keyed by (time, tick), with ticks drawn from one
counter in scheduling order and a record's packets sharing the tick taken
when it was made, so ties resolve deterministically: packets on one link in
reservation order, and a packet against an event in the order they were
scheduled. Interests are zero-sized and incur only propagation delay; only
the data direction is capacitated.

Determinism: every stochastic choice draws from a per-node Philox stream
keyed by scenario_seed XOR node_id, so equal configs and seeds reproduce
runs exactly, and adding nodes never perturbs existing streams.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from heapq import heappop, heappush

import numpy as np

from .cache import (
    InsertionPolicy,
    LatencyEstimator,
    LruCache,
    decide_insertion,
    parse_policy,
)
from .metrics import LinkStats, MetricsReport
# sample_rank is not called here, but stays bound: perfbench's tracer
# patches the draw functions by their names in this module
from .workload import (
    DrawBuffer,
    make_stream,
    next_interarrival,
    request_draws,
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
    "busy_time",
    "Simulation",
    "preset",
    "PRESETS",
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


class ConfigError(ValueError):
    """The scenario description is malformed or unroutable."""


# make_stream keys a node's Philox stream with seed ^ node_id, and Philox
# takes keys in [0, 2**128)
_KEY_BOUND = 2**128


def _integer(key: str, value) -> int:
    """value as an int; a bool or a fractional number is refused, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a whole number, got {value!r}") from None


def _real(key: str, value) -> float:
    """value as a float; a bool, a string that float() cannot read or an int
    too large for a float is refused."""
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (OverflowError, TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


# a field's conversion by its annotation, which is a string under
# `from __future__ import annotations`
_CONVERSIONS = {"int": _integer, "float": _real,
                "str": lambda key, value: str(value)}


# characters that a label written unquoted in a CSV file must not hold
_CSV_UNSAFE = ',"\r\n'


def _convert_fields(spec) -> None:
    """Convert each int, float and str field of a frozen spec in place, so a
    spec built by hand or by dataclasses.replace reads its values as the
    config loader does: a None in a field with a default takes the default."""
    for f in fields(spec):
        convert = _CONVERSIONS.get(f.type)
        if convert is not None:
            value = getattr(spec, f.name)
            if value is None and f.default is not MISSING:
                value = f.default
            object.__setattr__(spec, f.name, convert(f.name, value))


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
    kind: str
    cache_capacity_objects: int = 0
    label: str = ""

    def __post_init__(self):
        _convert_fields(self)
        if self.kind not in (USER, CACHE, REPOSITORY):
            raise ConfigError(f"unknown node kind {self.kind!r}")
        if not 0 <= self.node_id < _KEY_BOUND:
            raise ConfigError(f"node id must be in [0, 2**128), got {self.node_id!r}")
        if self.cache_capacity_objects < 0:
            raise ConfigError("cache capacity must be >= 0")
        if not self.label:
            object.__setattr__(self, "label", f"{self.kind}{self.node_id}")


@dataclass(frozen=True)
class LinkSpec:
    """One edge of the tree. down is the node on the user side, up the node
    on the repository side; data is capacitated in the up -> down direction."""

    down: int
    up: int
    capacity_bps: float
    prop_delay_s: float = 0.0

    def __post_init__(self):
        _convert_fields(self)
        if not (math.isfinite(self.capacity_bps) and self.capacity_bps > 0.0):
            raise ConfigError(f"link {self.up}->{self.down} capacity must be "
                              f"positive and finite, got {self.capacity_bps!r}")
        if not (math.isfinite(self.prop_delay_s) and self.prop_delay_s >= 0.0):
            raise ConfigError(f"link {self.up}->{self.down} propagation delay must "
                              f"be non-negative and finite, got {self.prop_delay_s!r}")


@dataclass(frozen=True)
class Topology:
    nodes: tuple
    links: tuple
    parent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check routability and keep the parent map node_id -> node_id."""
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        nodes = {n.node_id: n for n in self.nodes}
        if len(nodes) != len(self.nodes):
            raise ConfigError("duplicate node ids")
        # labels key the report and are written unquoted in the CSV bundle
        labels = set()
        for n in self.nodes:
            if n.label in labels:
                raise ConfigError(f"duplicate node label {n.label!r}")
            if any(c in n.label for c in _CSV_UNSAFE):
                raise ConfigError(f"node label {n.label!r} holds a comma, "
                                  f"quote or line break")
            labels.add(n.label)
        repos = [n for n in self.nodes if n.kind == REPOSITORY]
        if len(repos) != 1:
            raise ConfigError(f"expected exactly one repository, found {len(repos)}")
        if not any(n.kind == USER for n in self.nodes):
            raise ConfigError("topology has no users")

        parent = {}
        for ls in self.links:
            if ls.down not in nodes or ls.up not in nodes:
                raise ConfigError(f"link {ls.down}->{ls.up} references unknown nodes")
            if ls.down in parent:
                raise ConfigError(f"node {ls.down} has more than one upstream link")
            parent[ls.down] = ls.up

        repo_id = repos[0].node_id
        if repo_id in parent:
            raise ConfigError("repository cannot have an upstream link")
        has_children = set(parent.values())
        # the nodes whose path to the repository is checked: a walk stops at
        # the first of them, so each node is walked over once
        placed = {repo_id}
        for n in self.nodes:
            seen = set()
            cur = n.node_id
            while cur not in placed:
                if cur not in parent:
                    raise ConfigError(f"node {cur} cannot reach the repository")
                if cur in seen:
                    raise ConfigError("topology contains a cycle")
                seen.add(cur)
                cur = parent[cur]
            placed |= seen
            if n.kind == USER:
                if nodes[parent[n.node_id]].kind != CACHE:
                    raise ConfigError(f"user {n.node_id} must attach to a cache")
                if n.node_id in has_children:
                    raise ConfigError(f"user {n.node_id} cannot have children")
        object.__setattr__(self, "parent", parent)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, converted and checked when it is built; a copy made with
    dataclasses.replace is converted and checked again. policy may be given
    as a policy string, which is parsed with policy_defaults, and
    policy_defaults as a mapping or as (key, value) pairs."""

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
    policy_defaults: tuple = ()  # sorted (key, value) pairs; a mapping is converted
    name: str = ""

    def __post_init__(self):
        _convert_fields(self)
        # the name is a directory leaf of `lacsim sim`'s output and is written
        # unquoted in sweep.csv
        if any(c in self.name for c in _CSV_UNSAFE + "/\\"):
            raise ConfigError(f"name {self.name!r} holds a path separator, "
                              f"comma, quote or line break")
        defaults = self.policy_defaults
        malformed = ConfigError(f"policy_defaults must be a mapping or (key, value) "
                                f"pairs, got {defaults!r}")
        if not isinstance(defaults, (dict, tuple)):
            raise malformed
        try:
            pairs = dict(defaults).items()
        except (TypeError, ValueError):
            raise malformed from None
        object.__setattr__(self, "policy_defaults", tuple(sorted(
            (str(key), _real(f"policy_defaults {key}", value))
            for key, value in pairs)))
        # every default must make a valid policy, used or not
        for name in ("lcp", "lac"):
            self.resolve_policy(name)
        object.__setattr__(self, "policy", self.resolve_policy(self.policy))
        if self.catalog_size < 1:
            raise ConfigError(f"catalog_size must be >= 1, got {self.catalog_size!r}")
        if not (math.isfinite(self.zipf_alpha) and self.zipf_alpha > 0.0):
            raise ConfigError(f"zipf_alpha must be positive and finite, "
                              f"got {self.zipf_alpha!r}")
        if self.requests_per_user < 1:
            raise ConfigError("requests_per_user must be >= 1")
        if self.object_size_bytes < 1 or self.packet_size_bytes < 1:
            raise ConfigError("object and packet sizes must be positive")
        if self.object_size_bytes % self.packet_size_bytes != 0:
            raise ConfigError("object size must be a whole number of packets")
        if not (math.isfinite(self.request_rate) and self.request_rate > 0.0):
            raise ConfigError(f"request_rate must be positive and finite, "
                              f"got {self.request_rate!r}")
        if not 0 <= self.seed < _KEY_BOUND:
            raise ConfigError(f"seed must be an integer in [0, 2**128), "
                              f"got {self.seed!r}")
        if not math.isfinite(self.stats_warmup_s):
            raise ConfigError(f"stats_warmup_s must be finite, "
                              f"got {self.stats_warmup_s!r}")
        # No run goes past its requests' largest gaps, plus every packet of
        # every request sent over every link, plus each propagation delay
        # crossed by an interest and by data; reject a config whose bound
        # is not finite. A gap is -ln(u) / rate with u >= 2**-53, and
        # -ln(2**-53) < 36.74; an int past 1.8e308 overflows meeting a float.
        users = sum(n.kind == USER for n in self.topology.nodes)
        try:
            latest = self.requests_per_user * 36.74 / self.request_rate
            bits = users * self.requests_per_user * self.object_size_bytes * 8.0
        except OverflowError:
            latest = math.inf
        if not math.isfinite(latest):
            raise ConfigError(f"requests_per_user {self.requests_per_user!r} at "
                              f"request_rate_per_user {self.request_rate!r} "
                              f"lets the run's times overflow")
        for ls in self.topology.links:
            busy = bits / ls.capacity_bps
            latest += busy + 2.0 * ls.prop_delay_s
            if not math.isfinite(latest):
                key = ("capacity_bps" if busy >= 2.0 * ls.prop_delay_s
                       else "prop_delay_s")
                raise ConfigError(f"link {ls.up}->{ls.down} {key} "
                                  f"{getattr(ls, key)!r} lets the run's times "
                                  f"overflow")

    @property
    def packets_per_object(self) -> int:
        return self.object_size_bytes // self.packet_size_bytes

    def resolve_policy(self, text_or_policy) -> InsertionPolicy:
        """text_or_policy, or the policy string text_or_policy parsed with
        policy_defaults."""
        if isinstance(text_or_policy, InsertionPolicy):
            return text_or_policy
        if not isinstance(text_or_policy, str):
            raise ConfigError(f"policy must be a policy string, got {text_or_policy!r}")
        defaults = dict(self.policy_defaults)
        try:
            return parse_policy(text_or_policy, **defaults)
        except (TypeError, ValueError) as exc:  # TypeError: an unknown default
            raise ConfigError(f"{exc} (policy_defaults {defaults})") from exc


class Link:
    """FIFO store-and-forward output queue for the data direction of an edge.

    It holds only its FIFO state, the time its output becomes free.
    Simulation.run counts the packets it reserves on each link, and the
    link's bytes and busy time follow from that count after the run (see
    busy_time)."""

    __slots__ = ("label", "prop_s", "tx_packet_s", "busy_until")

    def __init__(self, label: str, capacity_bps: float, prop_s: float,
                 packet_bytes: int):
        self.label = label
        self.prop_s = prop_s
        self.tx_packet_s = packet_bytes * 8.0 / capacity_bps
        self.busy_until = 0.0

    def transmit_packet(self, now: float) -> float:
        """Enqueue one packet; returns its arrival time at the far end:
        max(now, busy_until) + packet_bytes * 8 / capacity + prop."""
        start = self.busy_until
        if start < now:
            start = now
        end = start + self.tx_packet_s
        self.busy_until = end
        return end + self.prop_s


# busy_time adds at most this many doubles per np.add.accumulate call, which
# bounds its scratch memory at 32 KiB
_BUSY_BLOCK = 4096


def busy_time(tx: float, packets: int) -> float:
    """The busy time of a link that sent packets packets of tx seconds each:
    packets copies of tx added one after another from 0.0, to the bits that
    a running total updated once per packet would hold. np.add.accumulate
    adds in order, a block at a time, carrying the total between blocks."""
    total = 0.0
    block = np.full(min(packets, _BUSY_BLOCK), tx)
    while packets > 0:
        n = min(packets, _BUSY_BLOCK)
        block[0] = total + tx
        total = float(np.add.accumulate(block[:n])[-1])
        packets -= n
    return total


class _PitEntry:
    """One retrieval pending at a cache.

    received counts the object's data packets applied so far and
    arrival_sum adds up their arrival times; the last packet closes the
    entry. faces and late map each requesting face (the child node the data
    goes down to) to the issue times of its user requests, or to None for a
    cache face. A face in faces joined before the first packet, or is a
    user face already there, and is sent every packet as it is forwarded; a
    face in late joined midway and is sent a whole copy when the last
    packet arrives."""

    __slots__ = ("received", "arrival_sum", "faces", "late")

    def __init__(self):
        self.received = 0
        self.arrival_sum = 0.0
        self.faces = {}
        self.late = {}


class Simulation:
    """One scenario wired up and ready to run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        parent_ids = config.topology.parent
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

        # upstream[i]: the caches on the path from the repository down to i
        # (i included when it is a cache), root side first. It extends its
        # parent's, so each walk up stops at the first node already filled
        # and fills the nodes it passed, parents first.
        upstream = [None] * len(nodes)
        upstream[self.repo] = ()
        for i in range(len(nodes)):
            path = []
            top = i
            while upstream[top] is None:
                path.append(top)
                top = self.parent[top]
            for j in reversed(path):
                upstream[j] = (upstream[top] + (j,) if self.kinds[j] == CACHE
                               else upstream[top])
                top = j
        self.upstream = upstream

        self.store = [None] * len(nodes)
        self.estimator = [None] * len(nodes)
        self.pit = [None] * len(nodes)
        self.rng = [None] * len(nodes)
        for i in self.caches:
            spec = nodes[i]
            self.store[i] = LruCache(spec.cache_capacity_objects)
            self.estimator[i] = LatencyEstimator()
            self.pit[i] = {}
            self.rng[i] = DrawBuffer(make_stream(config.seed, spec.node_id))
        # a cache draws its coins one at a time through a DrawBuffer; a user
        # draws its requests in blocks straight from its generator (see
        # request_draws)
        for i in self.users:
            self.rng[i] = make_stream(config.seed, nodes[i].node_id)
        self._ran = False

    def run(self) -> MetricsReport:
        """Run until every request has been delivered and return the report.

        A Simulation runs once: its links, caches, pending entries and
        streams keep the state the run left, so a second call raises
        RuntimeError.

        Every packet is sent by reserve(face, rank, issues, departures,
        last), which reserves on the link down to face the packets leaving
        at departures, then the object's last packet leaving at last (None:
        the run holds no last packet). It is called with a whole object
        leaving at t for the repository's answer, a hit and a late copy
        ((t,) * (ppo - 1), t); with the last packet alone for each face of
        a _DATA event ((), t); and with a record's segment for each face of
        a drain, which never holds the object's last packet (seg, None).

        Only the last packet of an object is a heap event at each cache. The
        earlier ones wait in a FIFO owned by the cache they are bound for, as
        records (rank, arrivals, tick): the arrival times that one reserve
        call made on the link to that cache and that are not yet applied,
        and one tick taken when the record is made, before the tick of the
        _DATA event for the last packet of the same call. Packets are
        applied (counted, added to the pending entry's arrival_sum and
        forwarded on every face) when an event reaches that cache or a
        cache or user below it, root side first. The result is the same as
        with one event per packet, to the byte:

        - One tick per record, taken at reservation, stands for the ticks
          the per-packet loop gave its packets. Those were drawn back to
          back with no event scheduled between them, so every event's tick
          is on the same side of all of them and of the record's tick. A
          packet arriving at a with record tick k thus compares against an
          event keyed (t, tk) as (a, k) < (t, tk), as in the per-packet
          loop.
        - The split is two-sided: an event keyed (t, tk) applies a record up
          to bisect_right(arrivals, t) when k < tk, since a packet tied with
          it in time was scheduled before it, and up to
          bisect_left(arrivals, t) otherwise. A cache is fed by one FIFO
          link, so its packets are sorted by (arrival, tick) across and
          within records, and an event applies exactly the prefix that the
          per-packet loop would have handled before it, at that cache and
          at every cache above it. A partly applied record drops its
          applied prefix; a wholly applied one leaves the FIFO and its list
          is forwarded as it is.
        - A drain forwards a record's segment face by face, where the
          per-packet loop went packet by packet across the faces. Each
          link is fed by its parent alone, and the packets on any one
          link are still reserved in their arrival order, so every link
          gets the same transmit_packet calls in the same order.
        - A queued packet pushes no heap event: a packet that is not its
          object's last is not the last at the next hop either. So events
          are pushed in the per-packet loop's order, and their ticks order
          them as its sequence numbers did.
        - An event draining the caches above its node before it pushes
          anything makes a record forwarded there get an earlier tick than
          an event pushed after it exactly when the per-packet loop handled
          its packets first; these are the only pairs that are ever
          compared.

        So each cache sees its packets, interests and decisions in the
        per-packet loop's order, and every link gets the same
        transmit_packet calls in the same order.

        A delivery is not an event: the last packet's arrival at a user is
        known when reserve reserves it on the user's link, and the delivery
        is recorded then, as one row (arrival time, rank, issue time) per
        issue, appended to one table shared by all users. Where the
        per-packet loop pushed a completion event, which pushed, drew and
        drained nothing else, no tick is drawn; the counter is monotone, so
        every other pair of ticks keeps its order. That event's tick would
        have been drawn at the reservation, so the table's reservation
        order is the order of those ticks, and after the loop a stable sort
        by arrival time puts the rows in the (time, tick) order in which
        the per-packet loop popped its completion events, with the rows of
        one reservation still together. With one user the rows are in that
        order already: its link is a FIFO fed by its parent alone, and
        every reservation on it ends at max(now, busy_until) + tx, so its
        arrival times never decrease in reservation order.
        """
        if self._ran:
            raise RuntimeError("this Simulation has run already; build a new "
                               "Simulation for another run")
        self._ran = True
        cfg = self.config
        ppo = cfg.packets_per_object
        warmup = cfg.stats_warmup_s
        quota = cfg.requests_per_user
        rate = cfg.request_rate
        model = self.model
        parent = self.parent
        uplink = self.uplink
        capacity = self.capacity
        policy = cfg.policy
        stores = self.store
        estimators = self.estimator
        pits = self.pit
        rngs = self.rng
        repo = self.repo
        upstream = self.upstream
        n_nodes = len(self.kinds)

        # per cache: rank -> [requests, hits] from the warm-up on
        rank_req = [dict() for _ in range(n_nodes)]
        forwards = [0] * n_nodes
        dec_count = [0] * n_nodes
        # per link, keyed by the node it feeds: packets reserved on it
        packets = [0] * n_nodes
        dec_prob_sum = [0.0] * n_nodes
        user_issued = [0] * n_nodes
        repo_requests = 0

        # delivery table: one row (completed, rank, issued) per issue, in
        # reservation order
        completed, ranks, issued = array("d"), array("q"), array("d")
        add_completed = completed.append
        add_rank = ranks.append
        add_issued = issued.append

        tick = itertools.count()
        heap = [(next_interarrival(rate, rngs[u]), next(tick),
                 _REQUEST, u) for u in self.users]
        heap.sort()
        # per user: (gap to the next request, rank) of each request, drawn
        # after the first gap
        next_draw = [None] * n_nodes
        for u in self.users:
            next_draw[u] = request_draws(model, rate, rngs[u], quota).__next__
        trains = ppo > 1
        # per cache: (rank, arrivals, tick) records, each the packets of one
        # object that one reservation sent down the link to it and that are
        # still to be applied
        queue = [deque() for _ in range(n_nodes)]

        def reserve(face, rank, issues, departures, last):
            """Reserve packets of rank on the link down to face, in order:
            the ones leaving at departures, which are not the object's last,
            then the object's last packet, leaving at last, unless last is
            None. On a cache face (issues is None) the ones before the last
            become one queue record, and the last one a _DATA event, in that
            tick order. On a user face the last packet's arrival records one
            delivery row per issue."""
            transmit = uplink[face].transmit_packet
            if departures:
                packets[face] += len(departures)
                sent = list(map(transmit, departures))
                if issues is None:
                    queue[face].append((rank, sent, next(tick)))
            if last is None:
                return
            packets[face] += 1
            arrival = transmit(last)
            if issues is None:
                heappush(heap, (arrival, next(tick), _DATA, face, rank))
                return
            for issue in issues:
                add_completed(arrival)
                add_rank(rank)
                add_issued(issue)

        def drain(chain, t, tk):
            """Apply the queued packets whose key precedes (t, tk), cache by
            cache along chain (root side first)."""
            for node in chain:
                q = queue[node]
                while q:
                    rank, arrivals, rec_tick = q[0]
                    if rec_tick < tk:
                        end = bisect_right(arrivals, t)
                    else:
                        end = bisect_left(arrivals, t)
                    if end == 0:
                        break
                    partial = end < len(arrivals)
                    if partial:
                        seg = arrivals[:end]
                        del arrivals[:end]
                    else:
                        seg = arrivals
                        q.popleft()
                    e = pits[node][rank]
                    e.received += end
                    total = e.arrival_sum
                    for a in seg:
                        total += a
                    e.arrival_sum = total
                    # a record never holds its object's last packet
                    for f, issues in e.faces.items():
                        reserve(f, rank, issues, seg, None)
                    if partial:
                        break

        now = 0.0

        while heap:
            ev = heappop(heap)
            t = ev[0]
            assert t >= now, "event times must be non-decreasing"
            now = t
            kind = ev[2]
            if trains:
                drain(upstream[ev[3]], t, ev[1])

            if kind == _DATA:
                # the last packet of the object reached cache ev[3]
                node = ev[3]
                rank = ev[4]
                e = pits[node].pop(rank)
                e.arrival_sum += t
                for f, issues in e.faces.items():
                    reserve(f, rank, issues, (), t)
                est = estimators[node]
                delta = est.measure_delta_t(rank, e.arrival_sum / ppo)
                if capacity[node] > 0:
                    dec, prob = decide_insertion(policy, delta, est,
                                                 rngs[node])
                    dec_count[node] += 1
                    dec_prob_sum[node] += prob
                    if dec:
                        stores[node].insert(rank, prob)
                        est.update(delta)
                for f, issues in e.late.items():
                    reserve(f, rank, issues, (t,) * (ppo - 1), t)
                continue

            if kind == _INTEREST:
                # issue is the user's request time, or None when frm is a cache
                node = ev[3]
                rank = ev[4]
                frm = ev[5]
                issue = ev[6]
                issues = None if issue is None else [issue]
                if node == repo:
                    repo_requests += 1
                    reserve(frm, rank, issues, (t,) * (ppo - 1), t)
                    continue
                hit = stores[node].lookup(rank, policy, rngs[node])
                if t >= warmup:
                    ent = rank_req[node].get(rank)
                    if ent is None:
                        ent = rank_req[node][rank] = [0, 0]
                    ent[0] += 1
                    ent[1] += hit
                if hit:
                    reserve(frm, rank, issues, (t,) * (ppo - 1), t)
                    continue
                e = pits[node].get(rank)
                if e is not None:
                    faces = e.faces if e.received == 0 or frm in e.faces else e.late
                    if issues is not None and frm in faces:
                        faces[frm].append(issue)
                    else:
                        faces[frm] = issues
                    continue
                forwards[node] += 1
                e = pits[node][rank] = _PitEntry()
                e.faces[frm] = issues
                estimators[node].record_forward(rank, t)
                heappush(heap, (t + uplink[node].prop_s, next(tick), _INTEREST,
                                parent[node], rank, node, None))
                continue

            # _REQUEST
            u = ev[3]
            user_issued[u] += 1
            gap, rank = next_draw[u]()
            if gap is not None:
                heappush(heap, (t + gap, next(tick), _REQUEST, u))
            heappush(heap, (t + uplink[u].prop_s, next(tick), _INTEREST,
                            parent[u], rank, u, t))

        if len(self.users) > 1:
            # completion order: reservation order is tick order, so a stable
            # sort by arrival gives the (time, tick) order
            order = np.argsort(np.frombuffer(completed), kind="stable")
            completed, ranks, issued = (
                array(col.typecode,
                      np.frombuffer(col, col.typecode)[order].tobytes())
                for col in (completed, ranks, issued))
        # the run ends at its last event or delivery; every request has
        # been delivered, and the last packet of every object has drained
        # its queue
        now = max(now, completed[-1])

        report = MetricsReport(
            policy_label=self.config.policy.label(),
            seed=cfg.seed,
            elapsed=now,
        )
        for i in self.caches:
            report.rank_counters[self.labels[i]] = rank_req[i]
            report.forwards[self.labels[i]] = forwards[i]
            if dec_count[i]:
                report.decision_counts[self.labels[i]] = dec_count[i]
                report.decision_prob_sums[self.labels[i]] = dec_prob_sum[i]
        for i in self.users:
            report.user_request_counts[self.labels[i]] = user_issued[i]
        report.repo_requests = repo_requests
        report.delivery_completed = completed
        report.delivery_ranks = ranks
        report.delivery_issued = issued
        for link, sent in zip(self.uplink, packets):
            if link is not None:
                report.links.append(LinkStats(
                    label=link.label, bytes=sent * cfg.packet_size_bytes,
                    busy_seconds=busy_time(link.tx_packet_s, sent)))
        return report


def _nodes(users: int, caches: int) -> list:
    """user1..userN, then cache1..cacheM of 8 objects each, then the repository."""
    nodes = [{"id": i, "kind": USER} for i in range(1, users + 1)]
    nodes += [{"id": users + i, "kind": CACHE, "cache_capacity_objects": 8,
               "label": f"cache{i}"} for i in range(1, caches + 1)]
    nodes.append({"id": users + caches + 1, "kind": REPOSITORY, "label": "repo"})
    return nodes


def _links(*edges) -> list:
    return [{"down": down, "up": up, "capacity_bps": bps} for down, up, bps in edges]


_PRESET_WORKLOAD = {"catalog_size": 20_000, "zipf_alpha": 1.7,
                    "request_rate_per_user": 1.0, "requests_per_user": 200_000}

# Canned scenarios, each a complete mapping in the config-file schema (see
# load_scenario); every one uses a 20000-object catalog with Zipf exponent
# 1.7 at 1 object/s per user population.
#   single: one 8-object cache between a user population and the repository
#           (200 Kbps user link, 30 Kbps repository link, 10 KB objects).
#   line:   three 8-object caches in tandem (300/200/200/30 Kbps).
#   tree:   seven 8-object caches in a binary tree, one user population per
#           leaf, 1 MB objects split into 100 packets, 30 Mbps links with a
#           9 Mbps repository link.
PRESETS = {
    "single": dict(_PRESET_WORKLOAD, name="single", object_size_bytes=10_000,
                   packet_size_bytes=10_000, nodes=_nodes(1, 1),
                   links=_links((1, 2, 200e3), (2, 3, 30e3))),
    "line": dict(_PRESET_WORKLOAD, name="line", object_size_bytes=10_000,
                 packet_size_bytes=10_000, nodes=_nodes(1, 3),
                 links=_links((1, 2, 300e3), (2, 3, 200e3), (3, 4, 200e3),
                              (4, 5, 30e3))),
    "tree": dict(_PRESET_WORKLOAD, name="tree", object_size_bytes=1_000_000,
                 packet_size_bytes=10_000, nodes=_nodes(4, 7),
                 links=_links((1, 5, 30e6), (2, 6, 30e6), (3, 7, 30e6),
                              (4, 8, 30e6), (5, 9, 30e6), (6, 9, 30e6),
                              (7, 10, 30e6), (8, 10, 30e6), (9, 11, 30e6),
                              (10, 11, 30e6), (11, 12, 9e6)),
                 policy_defaults={"lcp_p": 0.03, "lac_beta": 3.0,
                                  "lac_gamma": 3.0}),
}
PRESET_NAMES = tuple(PRESETS)


def preset(name: str, **overrides) -> ScenarioConfig:
    """The scenario PRESETS[name] with top-level keys replaced as in
    scenario_from_dict; None keeps the preset's value (or the config
    default)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return scenario_from_dict(PRESETS[name], **overrides)


_SCENARIO_KEYS = {"catalog_size", "zipf_alpha", "request_rate_per_user",
                  "object_size_bytes", "packet_size_bytes", "requests_per_user",
                  "seed", "policy", "policy_defaults", "stats_warmup_s", "name",
                  "nodes", "links"}
_NODE_KEYS = {"id", "kind", "cache_capacity_objects", "label"}
_LINK_KEYS = {"down", "up", "capacity_bps", "prop_delay_s"}
# config-file key -> spec field, where the two names differ
_RENAMED = {"request_rate_per_user": "request_rate", "id": "node_id"}


def _spec_fields(entry, known: set, what: str) -> dict:
    """The keys of one config mapping as spec fields: renamed, and without
    the null ones, which take the field's default."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be a mapping, got {entry!r}")
    unknown = set(entry) - known
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    return {_RENAMED.get(key, key): value for key, value in entry.items()
            if value is not None}


def scenario_from_dict(raw: dict, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed config mapping (see load_scenario).

    Keyword arguments replace top-level keys of raw; a None value leaves
    the key as it is. The specs convert and check the values; this only
    maps keys to their fields.
    """
    config = {**_spec_fields(raw, _SCENARIO_KEYS, "config"),
              **_spec_fields(overrides, _SCENARIO_KEYS, "config")}
    try:
        nodes = [NodeSpec(**_spec_fields(nd, _NODE_KEYS, "node"))
                 for nd in config.pop("nodes", [])]
        links = [LinkSpec(**_spec_fields(ld, _LINK_KEYS, "link"))
                 for ld in config.pop("links", [])]
        return ScenarioConfig(topology=Topology(nodes, links), **config)
    except TypeError as exc:  # a required key is missing, or a list is not one
        raise ConfigError(f"malformed scenario config: {exc!r}") from exc


def load_scenario(path: str, **overrides) -> ScenarioConfig:
    """Load a scenario from a YAML config file; overrides replace top-level
    keys as in scenario_from_dict.

    Required top-level keys: catalog_size, zipf_alpha, request_rate_per_user,
    object_size_bytes, packet_size_bytes, requests_per_user, nodes, links.
    Optional ones, which default to the ScenarioConfig fields: seed, policy,
    policy_defaults, stats_warmup_s, name. policy is the
    one insertion policy of every cache. Node entries carry {id, kind:
    user|cache|repository, cache_capacity_objects, label}; link entries
    {down, up, capacity_bps, prop_delay_s} with down the user-side
    endpoint. A null value, at the top level or in a node or link entry,
    takes the field's default; a required key cannot be null. Counts and
    ids must be whole numbers. PRESETS holds complete examples.

    policy_defaults is a mapping {lcp_p, lac_beta, lac_gamma} of the
    parse_policy keywords that a policy string without parameters takes; a
    key left out keeps parse_policy's default.
    The config holds it as sorted (key, value) pairs. A number may also be
    given as a string that int() or float() reads (PyYAML reads 30e3 as
    one); any other string is a ConfigError.

    The loader only maps keys to fields: NodeSpec, LinkSpec and
    ScenarioConfig convert and check their own values. So the result is a
    frozen value, converted and checked once as it is built: it cannot be
    changed afterwards, and dataclasses.replace makes a changed copy, which
    is converted and checked the same way.
    """
    import yaml  # only config files need it

    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    return scenario_from_dict(raw, **overrides)
