"""Batch-running helpers: one-line summaries per run, seed sweeps, and the
LAC -> LCP calibration step used by the comparison experiments."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .cache import ASYMMETRIC, FIXED_PROB, LATENCY_AWARE, InsertionPolicy
from .metrics import MetricsReport, csv_field, link_load
from .netsim import ScenarioConfig, Simulation, preset

__all__ = ["RunSummary", "summarize", "run_summary", "run_matrix",
           "calibrated_lcp_policy"]


@dataclass(frozen=True)
class RunSummary:
    """Plain-value digest of one run; cheap to collect in big sweeps."""

    name: str
    policy_label: str
    seed: int
    requests: int
    elapsed: float
    mean_delivery: float
    stddev_delivery: float
    overall_miss: float
    link_loads: dict = field(default_factory=dict)
    cum_means: dict = field(default_factory=dict)

    CSV_FIELDS = ("name", "policy_label", "seed", "requests", "elapsed",
                  "mean_delivery", "stddev_delivery", "overall_miss")

    def csv_row(self) -> str:
        return (f"{self.name},{csv_field(self.policy_label)},{self.seed},"
                f"{self.requests},{self.elapsed:.9f},{self.mean_delivery:.9f},"
                f"{self.stddev_delivery:.9f},{self.overall_miss:.9f}")


def summarize(config: ScenarioConfig, report: MetricsReport,
              cum_marks=()) -> RunSummary:
    loads = {ls.label: link_load(ls, report.elapsed) for ls in report.links}
    marks = {seq: report.cum_mean_at(seq) for seq in cum_marks
             if seq <= report.deliveries}
    return RunSummary(
        name=config.name or "custom",
        policy_label=report.policy_label,
        seed=report.seed,
        requests=report.user_requests,
        elapsed=report.elapsed,
        mean_delivery=report.mean_delivery(),
        stddev_delivery=report.stddev_delivery(),
        overall_miss=report.overall_miss(),
        link_loads=loads,
        cum_means=marks,
    )


def run_summary(config: ScenarioConfig, cum_marks=()) -> RunSummary:
    return summarize(config, Simulation(config).run(), cum_marks)


def run_matrix(preset_name: str, policies, seeds, requests_per_user: int,
               cum_marks=()):
    """Run every (policy, seed) pair on one preset; returns RunSummary list.
    A requests_per_user of None keeps the preset's. Every config is built
    before the first run, so a bad policy fails before any run."""
    configs = [preset(preset_name, policy=policy, seed=seed,
                      requests_per_user=requests_per_user)
               for policy in policies for seed in seeds]
    return [run_summary(config, cum_marks) for config in configs]


def calibrated_lcp_policy(config: ScenarioConfig) -> InsertionPolicy:
    """Run the scenario under its latency-aware policy and return a FixedProb
    policy whose p is the smallest per-node mean decision probability, the
    calibration the comparison experiments prescribe."""
    probe = config
    if config.policy.kind != LATENCY_AWARE:
        probe = dataclasses.replace(config, policy="lac")
    report = Simulation(probe).run()
    p = report.min_mean_decision_prob()
    return InsertionPolicy(kind=FIXED_PROB, p=p, mtf_mode=ASYMMETRIC)
