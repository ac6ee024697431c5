"""The per-packet event loop of lacsim.netsim, kept as a test oracle.

`PerPacketSimulation.run` is `Simulation.run` as it stood when every data
packet was its own heap event at every hop, copied verbatim together with
the pending-interest entry it uses; only its counters and the report
assembly follow the report's current layout. It still accumulates delivery
statistics inside the loop, as Simulation.run once did, and hands them to
the report in place of the ones MetricsReport derives from the delivery
columns. The differential tests in
tests/test_trains.py run both loops on the same configs and compare every
field of the two reports.
"""

import itertools
from heapq import heappop, heappush

from lacsim.metrics import LinkStats, MetricsReport, RunningStats
from lacsim.netsim import (_COMPLETE, _DATA, _INTEREST, _REQUEST, Simulation,
                           decide_insertion, next_interarrival, sample_rank)


class _PitEntry:
    """One retrieval pending at a cache.

    received counts the object's data packets that have arrived and
    arrival_sum adds up their arrival times. faces and late map each
    requesting face (the child node the data goes down to) to the issue
    times of its user requests, or to None for a cache face. A face in
    faces joined before the first packet, or is a user face already there,
    and is sent every packet as it is forwarded; a face in late joined
    midway and is sent a whole copy when the last packet arrives."""

    __slots__ = ("received", "arrival_sum", "faces", "late")

    def __init__(self):
        self.received = 0
        self.arrival_sum = 0.0
        self.faces = {}
        self.late = {}



class PerPacketSimulation(Simulation):
    """Simulation whose run() schedules one heap event per packet per hop."""

    def run(self) -> MetricsReport:
        cfg = self.config
        ppo = cfg.packets_per_object
        warmup = cfg.stats_warmup_s
        time_cap = cfg.max_sim_time_s
        quota = cfg.requests_per_user
        rate = cfg.request_rate
        model = self.model
        parent = self.parent
        uplink = self.uplink
        capacity = self.capacity
        policies = self.policy
        stores = self.store
        estimators = self.estimator
        pits = self.pit
        rngs = self.rng
        repo = self.repo
        n_nodes = len(self.kinds)

        # per cache: rank -> [requests, hits, late_requests, late_hits]
        rank_req = [dict() for _ in range(n_nodes)]
        forwards = [0] * n_nodes
        dec_count = [0] * n_nodes
        dec_prob_sum = [0.0] * n_nodes
        user_issued = [0] * n_nodes
        repo_requests = 0

        d_ranks = []
        d_issued = []
        d_completed = []
        d_stats = RunningStats()
        add_duration = d_stats.add

        tick = itertools.count()
        heap = [(next_interarrival(rate, rngs[u]), next(tick),
                 _REQUEST, u) for u in self.users]
        heap.sort()

        def send_object(face, rank, issues, t):
            """Reserve one whole object on the link down to face at time t.
            A user face gets one _COMPLETE at the last packet's arrival; a
            cache face (issues is None) gets one _DATA per packet."""
            link = uplink[face]
            if issues is None:
                for _ in range(ppo):
                    heappush(heap, (link.transmit_packet(t), next(tick), _DATA,
                                    face, rank))
                return
            for _ in range(ppo):
                arr = link.transmit_packet(t)
            heappush(heap, (arr, next(tick), _COMPLETE, face, rank, issues))

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
                finished = e.received == ppo
                for f, issues in e.faces.items():
                    arr = uplink[f].transmit_packet(t)
                    if issues is None:
                        heappush(heap, (arr, next(tick), _DATA, f, rank))
                    elif finished:
                        heappush(heap, (arr, next(tick), _COMPLETE, f, rank,
                                        issues))
                if finished:
                    est = estimators[node]
                    delta = est.measure_delta_t(rank, e.arrival_sum / ppo)
                    if capacity[node] > 0:
                        dec, prob = decide_insertion(policies[node], delta, est,
                                                     rngs[node])
                        dec_count[node] += 1
                        dec_prob_sum[node] += prob
                        if dec:
                            stores[node].insert(rank, prob)
                            est.update(delta)
                    for f, issues in e.late.items():
                        send_object(f, rank, issues, t)
                    del pits[node][rank]
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
                    send_object(frm, rank, issues, t)
                    continue
                ent = rank_req[node].get(rank)
                if ent is None:
                    ent = rank_req[node][rank] = [0, 0, 0, 0]
                ent[0] += 1
                late_win = t >= warmup
                if late_win:
                    ent[2] += 1
                if stores[node].lookup(rank, policies[node], rngs[node]):
                    ent[1] += 1
                    if late_win:
                        ent[3] += 1
                    send_object(frm, rank, issues, t)
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

            if kind == _REQUEST:
                u = ev[3]
                user_issued[u] += 1
                if user_issued[u] < quota:
                    gap = next_interarrival(rate, rngs[u])
                    heappush(heap, (t + gap, next(tick), _REQUEST, u))
                rank = sample_rank(model, rngs[u])
                heappush(heap, (t + uplink[u].prop_s, next(tick), _INTEREST,
                                parent[u], rank, u, t))
                continue

            # _COMPLETE: the object's last data packet reached user ev[3]
            rank = ev[4]
            for issue in ev[5]:
                add_duration(t - issue)
                d_ranks.append(rank)
                d_issued.append(issue)
                d_completed.append(t)

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
        report.delivery_ranks = d_ranks
        report.delivery_issued = d_issued
        report.delivery_completed = d_completed
        # the loop's own accumulator stands in for the statistics that
        # MetricsReport derives from the columns, so the differential tests
        # compare the two
        report._delivery_stats = d_stats
        for link in self.uplink:
            if link is not None:
                # every reservation was made at or before `now`, so the busy
                # time past the end of the run is the one block
                # [now, busy_until]; it is empty unless the time cap hit
                busy = link.busy_seconds - max(0.0, link.busy_until - now)
                report.links.append(LinkStats(label=link.label,
                                              bytes=link.bytes,
                                              busy_seconds=busy))
        return report
