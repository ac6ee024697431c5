"""Result containers, running statistics, CSV schema."""

import io
import math
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lacsim.metrics import (DELIVERY_BLOCK, SCHEMA_VERSION, LinkStats,
                            MetricsReport, link_load)
from lacsim.workload import make_stream


def two_pass(values):
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


def report_of(values):
    """A report whose delivery durations are values: each is issued at 0.0,
    and v - 0.0 is v."""
    return MetricsReport(policy_label="lru", seed=1,
                         delivery_ranks=array("q", [1] * len(values)),
                         delivery_issued=array("d", [0.0] * len(values)),
                         delivery_completed=array("d", values))


def stats_of(values):
    return report_of(values).delivery_stats


def test_running_stats_hand_values():
    empty = stats_of([])
    assert (empty.count, empty.mean, empty.stddev) == (0, 0.0, 0.0)
    acc = stats_of([2.0])
    assert (acc.mean, acc.stddev) == (2.0, 0.0)
    acc = stats_of([2.0, 4.0])
    assert acc.mean == pytest.approx(3.0)
    assert acc.stddev == pytest.approx(1.0)
    values = [1.0, 2.0, 3.0, 4.0]
    mean, std = two_pass(values)
    report = report_of(values)
    for i in range(1, len(values) + 1):
        # every prefix agrees with a two-pass recomputation
        pm, ps = two_pass(values[:i])
        acc = stats_of(values[:i])
        assert acc.mean == pytest.approx(pm) and acc.stddev == pytest.approx(ps)
        assert report.cum_mean_at(i) == acc.mean
    acc = report.delivery_stats
    assert acc.count == 4
    assert acc.mean == pytest.approx(mean)        # 2.5
    assert acc.stddev == pytest.approx(std)       # sqrt(1.25), population


def test_running_stats_against_two_pass_large():
    gen = make_stream(21, 0)
    values = (gen.random(1_000_000) * 100.0).tolist()
    acc = stats_of(values)
    mean, std = two_pass(values)
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(mean, rel=1e-9)
    assert acc.stddev == pytest.approx(std, rel=1e-9)


def test_link_load_values():
    # one 10 KB object on a 300 kbps link busies it for 0.2667 s
    ls = LinkStats(label="a->b", bytes=10_000,
                   busy_seconds=10_000 * 8 / 300_000)
    assert link_load(ls, 1.0) == pytest.approx(0.26667, abs=1e-4)
    assert link_load(LinkStats("x"), 5.0) == 0.0
    assert link_load(LinkStats("x", busy_seconds=5.0), 5.0) == 1.0
    with pytest.raises(ValueError):
        link_load(ls, 0.0)


def _small_report():
    report = MetricsReport(
        policy_label="lcp:0.1", seed=7, elapsed=10.0,
        rank_counters={
            "cacheA": {1: [4, 3], 2: [2, 0]},
            "cacheB": {1: [2, 1]},
        },
        user_request_counts={"user1": 4, "user2": 2},
        repo_requests=3,
        delivery_ranks=[1, 2, 1],
        delivery_issued=[0.0, 1.0, 2.0],
        delivery_completed=[2.0, 5.0, 5.0],
        links=[LinkStats("repo->cacheA", 40_000, 4.0)],
        decision_counts={"cacheA": 4, "cacheB": 2},
        decision_prob_sums={"cacheA": 0.8, "cacheB": 1.0},
    )
    return report


def test_miss_ratio_and_curve():
    report = _small_report()
    assert report.miss_curve("cacheA", max_rank=2) == {1: 0.25, 2: 1.0}
    assert report.miss_curve("cacheA", max_rank=1) == {1: 0.25}
    assert 99 not in report.miss_curve("cacheA", max_rank=99)
    assert report.miss_curve("nowhere", max_rank=1) == {}


def test_zero_count_miss_ratio_rejected():
    # a rank with no requests has no miss ratio and is left out of the curve
    report = _small_report()
    report.rank_counters["cacheA"][3] = [0, 0]
    assert report.miss_curve("cacheA", max_rank=3) == {1: 0.25, 2: 1.0}


def test_overall_miss():
    report = _small_report()
    assert report.overall_miss() == pytest.approx(0.5)
    empty = MetricsReport(policy_label="lru", seed=1)
    with pytest.raises(ValueError):
        empty.overall_miss()


def test_delivery_accessors():
    report = _small_report()
    assert report.deliveries == 3
    assert report.mean_delivery() == pytest.approx(3.0)
    assert report.stddev_delivery() == pytest.approx(
        two_pass([2.0, 4.0, 3.0])[1])
    assert report.cum_mean_at(1) == pytest.approx(2.0)
    assert report.cum_mean_at(2) == pytest.approx(3.0)
    assert report.cum_mean_at(3) == report.mean_delivery()
    for bad in (0, 4):
        with pytest.raises(ValueError):
            report.cum_mean_at(bad)
    with pytest.raises(ValueError):
        MetricsReport(policy_label="lru", seed=1).mean_delivery()
    with pytest.raises(ValueError):
        MetricsReport(policy_label="lru", seed=1).stddev_delivery()


class CountingColumn(array):
    """A float column that counts the passes made over it."""

    def __new__(cls, values):
        return super().__new__(cls, "d", values)

    def __init__(self, values):
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_delivery_stats_accumulate_once(tmp_path):
    # export_csv's pass, which writes delivery.csv, is the one pass
    report = _small_report()
    report.delivery_issued = column = CountingColumn(report.delivery_issued)
    report.export_csv(str(tmp_path))
    assert column.passes == 1
    assert (report.mean_delivery(), report.delivery_stats.count) == (3.0, 3)
    report.stddev_delivery()
    assert column.passes == 1
    # without an export, the first accessor makes it
    report = _small_report()
    report.delivery_issued = column = CountingColumn(report.delivery_issued)
    assert report.mean_delivery() == 3.0
    assert column.passes == 1
    report.stddev_delivery()
    assert column.passes == 1


def test_link_accessors():
    report = _small_report()
    [ls] = report.links
    assert (ls.label, ls.bytes) == ("repo->cacheA", 40_000)
    assert link_load(ls, report.elapsed) == pytest.approx(0.4)


def test_decision_prob_accessors():
    report = _small_report()
    assert report.mean_decision_prob("cacheA") == pytest.approx(0.2)
    assert report.mean_decision_prob("cacheB") == pytest.approx(0.5)
    assert report.mean_decision_prob() == pytest.approx(1.8 / 6.0)
    assert report.min_mean_decision_prob() == pytest.approx(0.2)
    empty = MetricsReport(policy_label="lru", seed=1)
    with pytest.raises(ValueError):
        empty.mean_decision_prob()
    with pytest.raises(ValueError):
        empty.min_mean_decision_prob()


def test_csv_schema(tmp_path):
    report = _small_report()
    outdir = tmp_path / "out"
    report.export_csv(str(outdir))

    miss = (outdir / "miss_prob.csv").read_text()
    lines = miss.splitlines()
    assert lines[0] == f"# schema={SCHEMA_VERSION} seed=7"
    assert lines[1] == "node_id,rank,requests,misses,miss_ratio"
    assert lines[2] == "cacheA,1,4,1,0.250000000"
    assert miss.endswith("\n")
    # cacheB follows cacheA, ranks ascending
    assert lines[-1].startswith("cacheB,1,")

    delivery = (outdir / "delivery.csv").read_text().splitlines()
    assert delivery[1] == "completion_seq,rank,duration,cum_mean,cum_stddev"
    assert delivery[2].startswith("1,1,2.000000000,2.000000000,0.000000000")
    # cumulative columns are rebuilt in completion order at export
    assert delivery[4] == "3,1,3.000000000,3.000000000,0.816496581"
    assert len(delivery) == 2 + 3

    links = (outdir / "links.csv").read_text().splitlines()
    assert links[1] == "link_id,bytes,rho"
    assert links[2] == "repo->cacheA,40000,0.400000000"

    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[1] == ("policy,mean_delivery,stddev_delivery,overall_miss,"
                          "mean_decision_prob")
    assert summary[2].split(",")[0] == "lcp:0.1"
    assert summary[2].split(",")[3] == "0.500000000"


def test_csv_quotes_policy_labels_with_commas(tmp_path):
    report = _small_report()
    report.policy_label = "lac:5,5"
    outdir = tmp_path / "out"
    report.export_csv(str(outdir))
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[2].startswith('"lac:5,5",')


def test_csv_export_deterministic(tmp_path):
    report = _small_report()
    a, b = tmp_path / "a", tmp_path / "b"
    report.export_csv(str(a))
    report.export_csv(str(b))
    for name in ("miss_prob.csv", "delivery.csv", "links.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_export_rejects_empty_counter(tmp_path):
    report = _small_report()
    report.rank_counters["cacheA"][9] = [0, 0]
    with pytest.raises(ValueError):
        report.export_csv(str(tmp_path / "bad"))


class Accumulator:
    """Welford's one-pass mean and population stddev, one value at a time:
    the reference writer's own copy of the recurrence."""

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


def reference_delivery_csv(report) -> str:
    """delivery.csv as a per-row f-string loop writes it, one row per write."""
    fh = io.StringIO()
    report._header(fh)
    fh.write("completion_seq,rank,duration,cum_mean,cum_stddev\n")
    acc = Accumulator()
    for seq, (rank, issued, completed) in enumerate(
            zip(report.delivery_ranks, report.delivery_issued,
                report.delivery_completed), start=1):
        duration = completed - issued
        acc.add(duration)
        fh.write(f"{seq},{rank},{duration:.9f},"
                 f"{acc.mean:.9f},{acc.stddev:.9f}\n")
    return fh.getvalue()


def delivery_report(n, seed, head):
    """n deliveries: ranks up to 2**62, durations from 1e-9 to 1e9 (the
    values of head first, then log-uniform draws), issue times up to 1e6."""
    gen = np.random.default_rng(seed)
    durations = (list(head) + (10.0 ** gen.uniform(-9.0, 9.0, n)).tolist())[:n]
    issued = gen.uniform(0.0, 1e6, n)
    return MetricsReport(
        policy_label="lru", seed=seed,
        delivery_ranks=array("q", gen.integers(1, 2**62, n,
                                               endpoint=True).tolist()),
        delivery_issued=array("d", issued.tolist()),
        delivery_completed=array("d", (issued + durations).tolist()))


EDGE_LENGTHS = (0, 1, DELIVERY_BLOCK - 1, DELIVERY_BLOCK, DELIVERY_BLOCK + 1,
                2 * DELIVERY_BLOCK + 3)


def _with_edge_lengths(test):
    for n in EDGE_LENGTHS:
        test = example(n=n, seed=n, head=[1e-9, 1e9])(test)
    return test


@settings(max_examples=25, deadline=None)
@_with_edge_lengths
@given(n=st.integers(0, 3 * DELIVERY_BLOCK), seed=st.integers(0, 2**32 - 1),
       head=st.lists(st.floats(1e-9, 1e9), max_size=3))
def test_delivery_blocks_equal_row_by_row_writes(n, seed, head):
    report = delivery_report(n, seed, head)
    with tempfile.TemporaryDirectory() as outdir:
        report.export_csv(outdir)
        with open(f"{outdir}/delivery.csv", newline="") as fh:
            written = fh.read()
    # compared as lines, which keeps a failure's report short
    assert (written.splitlines(keepends=True)
            == reference_delivery_csv(report).splitlines(keepends=True))
    # the export's statistics are the ones a fresh report derives, to the bit
    fresh = delivery_report(n, seed, head)
    stats = fresh.delivery_stats
    assert (report.delivery_stats.count, report.delivery_stats.mean,
            report.delivery_stats._m2) == (stats.count, stats.mean, stats._m2)
    assert stats.count == n
    if n:
        last = written.splitlines()[-1].split(",")
        assert last[3:] == [f"{stats.mean:.9f}", f"{stats.stddev:.9f}"]
        assert fresh.cum_mean_at(n) == fresh.mean_delivery()
