"""Acceptance gates for the whole package, one test per criterion.

Each test prints and registers a single "criterion NN: PASS/FAIL" line with
the measured quantity, then asserts the gate. Tolerances are pinned here and
never loosened to fit the implementation: gates the simulator does not meet
are left failing on purpose. Criteria 4 to 8 are red (LAC settles at a higher
steady-state delivery time and load than lcp:0.1 on the single and line
presets), and criterion 3 may be red (a systematic head-rank bias of LAC
against its calibrated twin); the "Acceptance status" section of README.md
gives the measured cause of each.

The heavy fixtures (10-seed sweeps of the three presets) are module scoped,
so the full module costs a few minutes of wall time on one core.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_verdict
from lacsim.analytics import eta_asym, eta_sym, fig1_grid, miss_asym, miss_sym, solve_tau
from lacsim.cache import ASYMMETRIC, FIXED_PROB, InsertionPolicy
from lacsim.harness import run_matrix
from lacsim.netsim import Simulation, preset
from lacsim.workload import zipf_weights

SEEDS = tuple(range(1, 11))
RANK_TOL = 0.05   # per-rank miss ratio gates
LOAD_TOL = 0.06   # bottleneck utilization gates
GATE_RANKS = 20
CUM_MARK = 20_000
FLAT_HORIZON = 200_000
TREE_HORIZON = 15_000  # per user; 4 users give 60k deliveries per run


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    record_verdict(line)
    assert ok, line


def _by_policy(summaries):
    """{policy kind: {seed: RunSummary}} for one preset sweep."""
    out = {}
    for s in summaries:
        out.setdefault(s.policy_label.split(":")[0], {})[s.seed] = s
    return out


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _curve_delta(curve_a, curve_b, max_rank=GATE_RANKS):
    """(worst |a-b|, rank where it happens) over ranks both curves observed."""
    worst, where = -1.0, 0
    for rank in range(1, max_rank + 1):
        if rank not in curve_a or rank not in curve_b:
            raise AssertionError(f"rank {rank} unobserved; run longer")
        d = abs(curve_a[rank] - curve_b[rank])
        if d > worst:
            worst, where = d, rank
    return worst, where


def _mean_curve(curves, max_rank=GATE_RANKS):
    """Rank-by-rank average of per-seed miss curves over ranks 1..max_rank."""
    out = {}
    for rank in range(1, max_rank + 1):
        if any(rank not in curve for curve in curves):
            raise AssertionError(f"rank {rank} unobserved; run longer")
        out[rank] = _mean(curve[rank] for curve in curves)
    return out


@pytest.fixture(scope="module")
def single_sweep():
    runs = run_matrix("single", ("lru", "lcp:0.1", "lac:5,5"), SEEDS,
                      FLAT_HORIZON, cum_marks=(CUM_MARK,))
    return _by_policy(runs)


@pytest.fixture(scope="module")
def line_sweep():
    runs = run_matrix("line", ("lru", "lcp:0.1", "lac:5,5"), SEEDS,
                      FLAT_HORIZON, cum_marks=(CUM_MARK,))
    return _by_policy(runs)


@pytest.fixture(scope="module")
def tree_sweep():
    # bare policy names pick up the tree preset defaults (lcp 0.03, lac 3,3)
    runs = run_matrix("tree", ("lru", "lcp", "lac"), SEEDS,
                      TREE_HORIZON, cum_marks=(CUM_MARK,))
    return _by_policy(runs)


def test_c01_single_lru_matches_model_curve():
    config = preset("single", policy="lru", seed=1,
                    requests_per_user=FLAT_HORIZON)
    t0 = time.perf_counter()
    report = Simulation(config).run()
    wall = time.perf_counter() - t0

    pop = zipf_weights(config.catalog_size, config.zipf_alpha)
    tau = solve_tau(8, config.request_rate, pop, 1.0).tau
    model = {k: float(miss_asym(config.request_rate * pop.weights[k - 1],
                                tau, 1.0))
             for k in range(1, GATE_RANKS + 1)}
    sim = report.miss_curve("cache1", GATE_RANKS)
    worst, where = _curve_delta(sim, model)
    ok = worst <= RANK_TOL and wall < 60.0
    _verdict(1, ok, f"LRU vs model max|delta|={worst:.4f} at rank {where} "
                    f"(tol {RANK_TOL}), run took {wall:.1f}s (cap 60s)")


def test_c02_symmetric_sim_tracks_lru_in_second_half():
    curves = {}
    for policy in ("lru", "sym:0.1"):
        config = preset("single", policy=policy, seed=1,
                        requests_per_user=FLAT_HORIZON,
                        stats_warmup_s=100_000.0)
        report = Simulation(config).run()
        curves[policy] = report.miss_curve("cache1", GATE_RANKS)
    worst, where = _curve_delta(curves["sym:0.1"], curves["lru"])
    ok = worst <= RANK_TOL
    _verdict(2, ok, f"sym:0.1 vs LRU second-half max|delta|={worst:.4f} "
                    f"at rank {where} (tol {RANK_TOL})")


def test_c03_latency_aware_converges_to_calibrated_fixed_prob():
    # One seed's final-quarter curve is too noisy for the 0.05 tolerance: a
    # calibrated lcp run against itself at another seed differs by up to
    # 0.12. Each seed calibrates its own twin, and the gate compares the
    # rank-by-rank means of the per-seed curves.
    horizon, warmup = 400_000, 300_000.0
    lac_curves, lcp_curves, p_cals = [], [], []
    for seed in SEEDS:
        lac_cfg = preset("single", policy="lac:5,5", seed=seed,
                         requests_per_user=horizon, stats_warmup_s=warmup)
        lac_rep = Simulation(lac_cfg).run()
        p_cal = lac_rep.min_mean_decision_prob()

        lcp_cfg = preset("single", seed=seed, requests_per_user=horizon,
                         stats_warmup_s=warmup,
                         policy=InsertionPolicy(kind=FIXED_PROB, p=p_cal,
                                                mtf_mode=ASYMMETRIC))
        lcp_rep = Simulation(lcp_cfg).run()

        lac_curves.append(lac_rep.miss_curve("cache1", GATE_RANKS))
        lcp_curves.append(lcp_rep.miss_curve("cache1", GATE_RANKS))
        p_cals.append(p_cal)

    worst, where = _curve_delta(_mean_curve(lac_curves),
                                _mean_curve(lcp_curves))
    ok = worst <= RANK_TOL
    _verdict(3, ok, f"lac:5,5 vs lcp calibrated per seed "
                    f"(p {min(p_cals):.4f}-{max(p_cals):.4f}), final-quarter "
                    f"{len(SEEDS)}-seed mean curves max|delta|={worst:.4f} "
                    f"at rank {where} (tol {RANK_TOL})")


def test_c04_single_latency_aware_cuts_mean_delivery(single_sweep):
    lac = _mean(s.mean_delivery for s in single_sweep["lac"].values())
    lru = _mean(s.mean_delivery for s in single_sweep["lru"].values())
    ratio = lac / lru
    ok = ratio <= 0.75
    _verdict(4, ok, f"single mean delivery lac/lru={ratio:.3f} "
                    f"({lac:.2f}s vs {lru:.2f}s, gate 0.75, 10 seeds)")


def test_c05_line_latency_aware_cuts_mean_delivery(line_sweep):
    lac = _mean(s.mean_delivery for s in line_sweep["lac"].values())
    lru = _mean(s.mean_delivery for s in line_sweep["lru"].values())
    ratio = lac / lru
    ok = ratio <= 0.60
    _verdict(5, ok, f"line mean delivery lac/lru={ratio:.3f} "
                    f"({lac:.2f}s vs {lru:.2f}s, gate 0.60, 10 seeds)")


def test_c06_latency_aware_leads_fixed_prob_early(single_sweep, line_sweep,
                                                  tree_sweep):
    wins = {}
    for name, sweep in (("single", single_sweep), ("line", line_sweep),
                        ("tree", tree_sweep)):
        wins[name] = sum(
            1 for seed in SEEDS
            if sweep["lac"][seed].cum_means[CUM_MARK]
            < sweep["lcp"][seed].cum_means[CUM_MARK])
    ok = all(w >= 8 for w in wins.values())
    detail = ", ".join(f"{name} {w}/10" for name, w in wins.items())
    _verdict(6, ok, f"lac below lcp at delivery {CUM_MARK}: {detail} "
                    f"(need >=8/10 in every preset)")


def test_c07_single_bottleneck_utilization(single_sweep):
    rho = {kind: _mean(s.link_loads["repo->cache1"]
                       for s in single_sweep[kind].values())
           for kind in ("lru", "lcp", "lac")}
    targets = {"lru": 0.56, "lcp": 0.41, "lac": 0.37}
    hits = {k: abs(rho[k] - targets[k]) <= LOAD_TOL for k in targets}
    ordered = rho["lac"] < rho["lcp"] < rho["lru"]
    ok = all(hits.values()) and ordered
    detail = ", ".join(f"{k}={rho[k]:.3f} (target {targets[k]})"
                       for k in ("lru", "lcp", "lac"))
    _verdict(7, ok, f"single repo link rho: {detail}, ordering "
                    f"lac<lcp<lru={ordered} (tol {LOAD_TOL})")


def test_c08_line_repository_link_offload(line_sweep):
    rho_lac = _mean(s.link_loads["repo->cache3"]
                    for s in line_sweep["lac"].values())
    rho_lru = _mean(s.link_loads["repo->cache3"]
                    for s in line_sweep["lru"].values())
    ok = (abs(rho_lac - 0.22) <= LOAD_TOL
          and abs(rho_lru - 0.5) <= LOAD_TOL
          and rho_lac < rho_lru)
    _verdict(8, ok, f"line repo link rho: lac={rho_lac:.3f} (target 0.22), "
                    f"lru={rho_lru:.3f} (target 0.5), tol {LOAD_TOL}")


def test_c09_model_miss_grid_monotone_in_admission_prob():
    # The head is ranks 1..x-1, strictly inside the cache. Rank x is where
    # the per-rank curves cross: its miss falls slightly as mean_p rises
    # from about 0.68 to 1, as do the tail ranks beyond it.
    pop = zipf_weights(20_000, 1.7)
    x = 8
    mean_ps = (0.01, 0.1, 0.5, 1.0)
    t0 = time.perf_counter()
    rows = fig1_grid(pop, x=x, rate_lambda=1.0, mean_p_list=mean_ps,
                     max_rank=x - 1)
    wall = time.perf_counter() - t0
    pi = {(rank, mean_p): value for rank, mean_p, value, _ in rows}
    worst, where = 0.0, None
    for rank in range(1, x):
        for lo, hi in zip(mean_ps, mean_ps[1:]):
            drop = pi[(rank, lo)] - pi[(rank, hi)]
            if drop > worst:
                worst, where = drop, (rank, lo, hi)
    ok = worst <= 0.0 and wall < 1.0
    spot = f" at rank {where[0]} between mean_p {where[1]} and {where[2]}" \
        if where else ""
    _verdict(9, ok, f"worst head-rank (ranks 1..{x - 1}) miss decrease in "
                    f"mean_p = {worst:.2e}{spot} (need <= 0), grid took "
                    f"{wall * 1000:.0f}ms (cap 1s)")


def test_c10_characteristic_size_ratio_floor():
    pop = zipf_weights(20_000, 1.7)
    mean_p, eps, alpha = 1e-4, 0.01, 1.7
    tau = solve_tau(8, 1.0, pop, mean_p).tau
    ratio = (eta_asym(1.0, pop.norm_c, tau, mean_p, eps, alpha)
             / eta_sym(8, alpha, eps))
    floor = (-math.log(eps)) ** (1.0 / alpha) * 0.95
    ok = ratio > floor
    _verdict(10, ok, f"eta_asym/eta_sym={ratio:.4f} at mean_p={mean_p}, "
                     f"floor {floor:.4f}")


def test_c11_tree_latency_aware_shrinks_delivery_spread(tree_sweep):
    lac = _mean(s.stddev_delivery for s in tree_sweep["lac"].values())
    lru = _mean(s.stddev_delivery for s in tree_sweep["lru"].values())
    ratio = lac / lru
    ok = ratio <= 0.7
    _verdict(11, ok, f"tree delivery stddev lac/lru={ratio:.3f} "
                     f"({lac:.2f}s vs {lru:.2f}s, gate 0.7, 10 seeds)")


def test_c12_equal_seed_runs_export_identical_csv(tmp_path):
    outs = []
    for tag in ("a", "b"):
        config = preset("single", policy="lac:5,5", seed=5,
                        requests_per_user=3_000)
        report = Simulation(config).run()
        outdir = tmp_path / tag
        report.export_csv(str(outdir))
        outs.append(outdir)
    names = ("miss_prob.csv", "delivery.csv", "links.csv", "summary.csv")
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    _verdict(12, same, f"byte-identical CSV bundle across equal-seed runs: "
                       f"{same} ({len(names)} files)")


def test_c13_frozen_model_constants_reproduced():
    # expected values below come from independent high-precision evaluation
    # (mpmath, 25+ digits), frozen before the implementation existed
    pop = zipf_weights(20_000, 1.7)
    checks = []

    S = 1.0 / pop.norm_c
    checks.append(S == pytest.approx(2.05289504379949150, rel=1e-12))
    checks.append(pop.weights[0] == pytest.approx(0.48711696344163959, rel=1e-12))
    checks.append(pop.weights[1] == pytest.approx(0.14992783204667860, rel=1e-12))
    checks.append(pop.weights[7] == pytest.approx(0.01420300617588371, rel=1e-12))
    checks.append(math.gamma(1.0 - 1.0 / 1.7)
                  == pytest.approx(2.15338021735489, rel=1e-12))

    tau1 = solve_tau(8, 1.0, pop, 1.0).tau
    checks.append(tau1 == pytest.approx(21.2499054056, rel=1e-8))
    agg = float(np.dot(pop.weights, miss_asym(pop.weights, tau1, 1.0)))
    checks.append(agg == pytest.approx(0.2351441278, rel=1e-8))

    tau01 = solve_tau(8, 1.0, pop, 0.1).tau
    checks.append(tau01 == pytest.approx(112.010011009, rel=1e-8))
    checks.append(float(miss_asym(pop.weights[3], tau01, 0.1))
                  == pytest.approx(0.0541417110942, rel=1e-9))
    checks.append(float(miss_asym(pop.weights[4], tau01, 0.1))
                  == pytest.approx(0.230598800261, rel=1e-9))

    tau4 = solve_tau(8, 1.0, pop, 1e-4).tau
    checks.append(tau4 == pytest.approx(692.97605027, rel=1e-8))
    ratio = (eta_asym(1.0, pop.norm_c, tau4, 1e-4, 0.01, 1.7)
             / eta_sym(8, 1.7, 0.01))
    checks.append(ratio == pytest.approx(4.33333874, rel=1e-6))

    checks.append(miss_sym(1, 8, 1.7) == pytest.approx(9.05182810987e-05, rel=1e-9))
    checks.append(eta_sym(8, 1.7, 0.01) == pytest.approx(1.5129506, rel=1e-6))

    ok = all(checks)
    _verdict(13, ok, f"{sum(checks)}/{len(checks)} frozen model constants "
                     f"reproduced at pinned tolerance")
