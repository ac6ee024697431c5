"""Run metrics: per-rank hit counters, delivery series, link loads, CSV export.

A MetricsReport is a plain result container assembled by the simulator at
the end of a run. It holds each measured quantity once, as the run loop
wrote it; totals such as the number of user requests are derived from those
records. The run's CSV bundle is written here, so its schema stays in one
place: four files (miss_prob, delivery, links, summary), each versioned
with a header comment naming the schema and the scenario seed, columns in a
fixed order, floats printed with nine decimals, newline-terminated. A given
config and seed reproduces the files byte for byte. delivery.csv's running
mean and stddev come from the same Welford pass that gives the report's
delivery statistics, and its rows are written a block at a time. The other
CSV files are written elsewhere: model_curves.csv, model_sym.csv and
model_eta.csv by cli, and each sweep.csv row by harness.RunSummary.csv_row.
"""

from __future__ import annotations

import math
import os
from array import array
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

DELIVERY_BLOCK = 2048  # delivery.csv rows per write, about 100 KB of text
_DELIVERY_ROW = "%d,%d,%.9f,%.9f,%.9f\n"


class RunningStats:
    """Count, mean and population stddev of a series, as one Welford pass
    (MetricsReport._welford) leaves them; _m2 is the sum of squared
    deviations from the mean."""

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, count: int, mean: float, m2: float):
        self.count = count
        self.mean = mean
        self._m2 = m2

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
    hits] over the interests that reached the cache at or after
    stats_warmup_s, the whole run when that is 0 (they are miss_prob.csv and
    miss_curve). A rank is present once the cache has counted a request for
    it. Every other count covers the whole run. forwards maps each cache
    label to the interests it sent upstream, one per pending entry it
    opened; when stats_warmup_s is 0, the interests that joined a pending
    entry are requests - hits - forwards. user_request_counts maps each
    user label to the requests it issued, and user_requests is their sum.
    Deliveries are stored column-wise in completion order, in typed arrays:
    delivery_ranks of typecode "q", delivery_issued and delivery_completed
    of typecode "d", 8 bytes per delivery each. The delivery statistics are
    derived from the delivery_issued and delivery_completed columns by one
    Welford pass (_welford) over the durations completed - issued in
    completion order. delivery_stats keeps the pass's RunningStats, made
    once per report, on first use or by export_csv's pass that writes
    delivery.csv, whichever comes first. cum_mean_at runs the same pass
    over a prefix.
    """

    policy_label: str
    seed: int
    elapsed: float = 0.0

    rank_counters: dict = field(default_factory=dict)
    forwards: dict = field(default_factory=dict)
    user_request_counts: dict = field(default_factory=dict)
    repo_requests: int = 0

    delivery_ranks: array = field(default_factory=lambda: array("q"))
    delivery_issued: array = field(default_factory=lambda: array("d"))
    delivery_completed: array = field(default_factory=lambda: array("d"))

    links: list = field(default_factory=list)

    decision_counts: dict = field(default_factory=dict)  # label -> count
    decision_prob_sums: dict = field(default_factory=dict)

    _delivery_stats: RunningStats = field(default=None, init=False, repr=False,
                                          compare=False)

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
            self._delivery_stats = self._welford(self.deliveries)
        return self._delivery_stats

    def _welford(self, count: int, fh=None) -> RunningStats:
        """Welford's recurrence over the first count delivery durations, in
        completion order. With fh, also write each delivery's delivery.csv
        row: its completion seq, rank and duration, and the running mean and
        stddev after it. A row's five fields go into one flat list, which is
        written DELIVERY_BLOCK rows at a time with one %-format; %.9f prints
        the bytes that an f-string's :.9f does."""
        n = 0
        mean = m2 = 0.0
        fields = []
        put = fields.extend
        block = _DELIVERY_ROW * DELIVERY_BLOCK
        sqrt = math.sqrt
        for rank, issued, completed in islice(zip(self.delivery_ranks,
                                                  self.delivery_issued,
                                                  self.delivery_completed),
                                              count):
            duration = completed - issued
            n += 1
            delta = duration - mean
            mean += delta / n
            m2 += delta * (duration - mean)
            if fh is not None:
                put((n, rank, duration, mean, sqrt(m2 / n)))
                if n % DELIVERY_BLOCK == 0:
                    fh.write(block % tuple(fields))
                    fields.clear()
        if fields:
            fh.write((_DELIVERY_ROW * (len(fields) // 5)) % tuple(fields))
        return RunningStats(n, mean, m2)

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
        return self._welford(completion_seq).mean

    # -- per-rank counters --------------------------------------------------

    def miss_curve(self, node_label: str, max_rank: int) -> dict:
        """rank -> miss ratio for ranks 1..max_rank that saw any requests
        from stats_warmup_s on."""
        out = {}
        counters = self.rank_counters.get(node_label, {})
        for rank, (requests, hits) in counters.items():
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
                    requests, hits = node[rank]
                    if requests == 0:
                        raise ValueError(
                            f"empty counter for {label!r} rank {rank} at export")
                    misses = requests - hits
                    fh.write(f"{label},{rank},{requests},{misses},"
                             f"{misses / requests:.9f}\n")

        with open(os.path.join(outdir, "delivery.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("completion_seq,rank,duration,cum_mean,cum_stddev\n")
            acc = self._welford(self.deliveries, fh)
        if self._delivery_stats is None:
            self._delivery_stats = acc

        with open(os.path.join(outdir, "links.csv"), "w", newline="") as fh:
            self._header(fh)
            fh.write("link_id,bytes,rho\n")
            for ls in self.links:
                fh.write(f"{ls.label},{ls.bytes},"
                         f"{link_load(ls, self.elapsed):.9f}\n")

        # a mean with no samples is an empty field: no insertion decision
        # (every cache at capacity 0) in a run, and no delivery or no user
        # request in a report built by hand
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
