"""Run metrics: per-rank hit counters, delivery series, link loads, CSV export.

A MetricsReport is a plain result container assembled by the simulator at
the end of a run. It holds each measured quantity once, as the run loop
wrote it; totals such as the number of user requests are derived from those
records. All CSV emission lives here so the on-disk schema stays in
one place: four files (miss_prob, delivery, links, summary), each versioned
with a header comment naming the schema and the scenario seed, columns in a
fixed order, floats printed with nine decimals, newline-terminated. A given
config and seed reproduces the files byte for byte.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import islice

__all__ = [
    "LinkStats",
    "RunningStats",
    "link_load",
    "MetricsReport",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


class RunningStats:
    """Numerically stable one-pass mean and population stddev (Welford)."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def stddev(self) -> float:
        if self.count == 0:
            return 0.0
        return math.sqrt(self._m2 / self.count)


@dataclass
class LinkStats:
    """Byte and busy-time accounting for the data direction of one link."""

    label: str
    bytes: int = 0
    busy_seconds: float = 0.0


def link_load(stats: LinkStats, elapsed: float) -> float:
    """Utilization rho = busy_seconds / elapsed."""
    if elapsed <= 0.0:
        raise ValueError(f"elapsed must be positive, got {elapsed!r}")
    return stats.busy_seconds / elapsed


def csv_field(text: str) -> str:
    """Quote a CSV field that embeds a comma (policy labels like "lac:5,5").

    Labels never contain double quotes, so minimal quoting suffices.
    """
    return f'"{text}"' if "," in text else text


@dataclass
class MetricsReport:
    """Everything measured in one simulation run.

    rank_counters maps each cache label, in node order, to rank -> [requests,
    hits, late_requests, late_hits]: the first two count the whole run (they
    are miss_prob.csv), the last two count from stats_warmup_s into the run
    on and serve steady-state comparisons (miss_curve(late=True)). A rank is
    present once the cache has seen a request for it. forwards maps each
    cache label to the interests it sent upstream, one per pending entry it
    opened; the interests that joined a pending entry are requests - hits -
    forwards. user_request_counts maps each user label to the requests it
    issued, and user_requests is their sum. Deliveries are stored
    column-wise in completion order. The delivery statistics are derived
    from the delivery_issued and delivery_completed columns: delivery_stats
    adds each duration completed - issued to a RunningStats in completion
    order, once per report, on first use or in export_csv's cumulative
    pass, whichever comes first. The cumulative mean at any completion index
    (cum_mean_at) is rebuilt from the columns with the same accumulator.
    """

    policy_label: str
    seed: int
    elapsed: float = 0.0

    rank_counters: dict = field(default_factory=dict)
    forwards: dict = field(default_factory=dict)
    user_request_counts: dict = field(default_factory=dict)
    repo_requests: int = 0

    delivery_ranks: list = field(default_factory=list)
    delivery_issued: list = field(default_factory=list)
    delivery_completed: list = field(default_factory=list)

    links: list = field(default_factory=list)

    decision_counts: dict = field(default_factory=dict)  # label -> count
    decision_prob_sums: dict = field(default_factory=dict)

    _delivery_stats: RunningStats = field(default=None, init=False, repr=False,
                                          compare=False)

    @property
    def cache_labels(self) -> list:
        return list(self.rank_counters)

    @property
    def user_requests(self) -> int:
        return sum(self.user_request_counts.values())

    # -- deliveries ---------------------------------------------------------

    @property
    def deliveries(self) -> int:
        return len(self.delivery_ranks)

    @property
    def delivery_stats(self) -> RunningStats:
        """Mean and stddev of every delivery's duration, accumulated in
        completion order on first use."""
        if self._delivery_stats is None:
            acc = RunningStats()
            for issued, completed in zip(self.delivery_issued,
                                         self.delivery_completed):
                acc.add(completed - issued)
            self._delivery_stats = acc
        return self._delivery_stats

    def mean_delivery(self) -> float:
        if self.delivery_stats.count == 0:
            raise ValueError("no deliveries recorded")
        return self.delivery_stats.mean

    def stddev_delivery(self) -> float:
        if self.delivery_stats.count == 0:
            raise ValueError("no deliveries recorded")
        return self.delivery_stats.stddev

    def cum_mean_at(self, completion_seq: int) -> float:
        """Mean duration of the first completion_seq deliveries."""
        if not 1 <= completion_seq <= self.deliveries:
            raise ValueError(
                f"completion_seq {completion_seq} outside 1..{self.deliveries}")
        acc = RunningStats()
        for issued, completed in islice(zip(self.delivery_issued,
                                            self.delivery_completed),
                                        completion_seq):
            acc.add(completed - issued)
        return acc.mean

    # -- per-rank counters --------------------------------------------------

    def miss_curve(self, node_label: str, max_rank: int, late: bool = False) -> dict:
        """rank -> miss ratio for ranks 1..max_rank that saw any requests in
        the whole run, or with late=True from stats_warmup_s on."""
        first = 2 if late else 0
        out = {}
        for rank, counts in self.rank_counters.get(node_label, {}).items():
            requests, hits = counts[first:first + 2]
            if rank <= max_rank and requests > 0:
                out[rank] = (requests - hits) / requests
        return out

    def overall_miss(self) -> float:
        """Fraction of user requests no cache answered: interest bursts that
        reached the repository over total user requests. Interests collapsed
        into an already-pending retrieval count toward the fetch that serves
        them, so this matches what the repository link actually carries."""
        if self.user_requests == 0:
            raise ValueError("no user requests recorded")
        return self.repo_requests / self.user_requests

    # -- decisions -----------------------------------------------------------

    def mean_decision_prob(self, node_label: str = None) -> float:
        if node_label is not None:
            count = self.decision_counts.get(node_label, 0)
            if count == 0:
                raise ValueError(f"no insertion decisions at {node_label!r}")
            return self.decision_prob_sums[node_label] / count
        total = sum(self.decision_counts.values())
        if total == 0:
            raise ValueError("no insertion decisions recorded")
        return sum(self.decision_prob_sums.values()) / total

    def min_mean_decision_prob(self) -> float:
        """Smallest per-node mean decision probability (calibration knob)."""
        means = [self.decision_prob_sums[n] / c
                 for n, c in self.decision_counts.items() if c > 0]
        if not means:
            raise ValueError("no insertion decisions recorded")
        return min(means)

    # -- CSV export ----------------------------------------------------------

    def _header(self, fh):
        fh.write(f"# schema={SCHEMA_VERSION} seed={self.seed}\n")

    def export_csv(self, outdir: str):
        """Write miss_prob.csv, delivery.csv, links.csv and summary.csv."""
        os.makedirs(outdir, exist_ok=True)

        with open(os.path.join(outdir, "miss_prob.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("node_id,rank,requests,misses,miss_ratio\n")
            for label, node in self.rank_counters.items():
                for rank in sorted(node):
                    requests, hits = node[rank][:2]
                    if requests == 0:
                        raise ValueError(
                            f"empty counter for {label!r} rank {rank} at export")
                    misses = requests - hits
                    fh.write(f"{label},{rank},{requests},{misses},"
                             f"{misses / requests:.9f}\n")

        with open(os.path.join(outdir, "delivery.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("completion_seq,rank,duration,cum_mean,cum_stddev\n")
            acc = RunningStats()
            for seq, (rank, issued, completed) in enumerate(
                    zip(self.delivery_ranks, self.delivery_issued,
                        self.delivery_completed), start=1):
                duration = completed - issued
                acc.add(duration)
                fh.write(f"{seq},{rank},{duration:.9f},"
                         f"{acc.mean:.9f},{acc.stddev:.9f}\n")
        if self._delivery_stats is None:
            self._delivery_stats = acc

        with open(os.path.join(outdir, "links.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("link_id,bytes,rho\n")
            for ls in self.links:
                fh.write(f"{ls.label},{ls.bytes},"
                         f"{link_load(ls, self.elapsed):.9f}\n")

        # a mean with no samples is an empty field: no delivery (a run capped
        # before its first), no user request, or no insertion decision (every
        # cache at capacity 0)
        delivered = self.delivery_stats.count > 0
        means = (
            f"{self.mean_delivery():.9f}" if delivered else "",
            f"{self.stddev_delivery():.9f}" if delivered else "",
            f"{self.overall_miss():.9f}" if self.user_requests else "",
            f"{self.mean_decision_prob():.9f}"
            if any(self.decision_counts.values()) else "",
        )
        with open(os.path.join(outdir, "summary.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("policy,mean_delivery,stddev_delivery,overall_miss,"
                     "mean_decision_prob\n")
            fh.write(f"{csv_field(self.policy_label)},{','.join(means)}\n")
