"""Command line front end.

Four subcommands:

  sim      run one scenario, write the CSV bundle
  model    evaluate the analytical miss and sizing curves, write CSVs
  compare  run a simulation and check it against the model
  sweep    cartesian (policy x seed) batches, one summary row per run and
           a per-policy table of means over the seeds

Exit codes: 0 success, 1 usage or configuration error, 2 model gate
failure in `compare`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import __version__
from .analytics import (eta_asym, eta_sym, fig1_grid, miss_sym, solve_tau,
                        write_model_curves)
from .cache import (ALWAYS, LATENCY_AWARE, SYMMETRIC, ProtocolError,
                    split_policy_list)
from .harness import RunSummary, calibrated_lcp_policy, run_matrix
from .metrics import link_load
from .netsim import (PRESET_NAMES, ConfigError, ScenarioConfig, Simulation,
                     load_scenario, preset)
from .workload import zipf_weights

USAGE_ERROR = 1
GATE_ERROR = 2
GATE_TOLERANCE = 0.05
GATE_RANKS = 20


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for gate
    # failures, so remap usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _outdir(args, default_leaf: str) -> str:
    if args.outdir:
        return args.outdir
    base = os.environ.get("LACSIM_OUTDIR", "lacsim-out")
    return os.path.join(base, default_leaf)


def _build_config(args) -> ScenarioConfig:
    # flags replace keys of the YAML file or the preset only when given, so
    # their argparse defaults are None (or "" for --policy)
    overrides = dict(policy=args.policy or None, seed=args.seed,
                     requests_per_user=args.horizon,
                     stats_warmup_s=args.warmup)
    if args.config:
        return load_scenario(args.config, **overrides)
    return preset(args.preset, **overrides)


def cmd_sim(args) -> int:
    config = _build_config(args)
    if args.calibrate_lcp:
        config = dataclasses.replace(config,
                                     policy=calibrated_lcp_policy(config))
        print(f"calibrated policy: {config.policy.label()}")
    report = Simulation(config).run()
    outdir = _outdir(args, f"{config.name or 'run'}-{report.policy_label}"
                           f"-s{report.seed}")
    report.export_csv(outdir)
    # a run capped before its first delivery (or request) has no means
    line = (f"policy={report.policy_label} seed={report.seed}"
            f" requests={report.user_requests}"
            f" deliveries={report.deliveries}")
    if report.deliveries:
        line += (f" mean_delivery={report.mean_delivery():.4f}"
                 f" stddev={report.stddev_delivery():.4f}")
    if report.user_requests:
        line += f" miss={report.overall_miss():.4f}"
    print(line)
    for ls in report.links:
        print(f"  link {ls.label}: rho={link_load(ls, report.elapsed):.4f}")
    print(f"wrote {outdir}")
    return 0


def cmd_model(args) -> int:
    outdir = _outdir(args, "model")
    os.makedirs(outdir, exist_ok=True)
    probs = args.mean_p
    popularity = zipf_weights(args.catalog, args.alpha)
    curves = os.path.join(outdir, "model_curves.csv")
    rows = fig1_grid(popularity, args.x, args.rate, probs,
                     max_rank=args.max_rank)
    write_model_curves(curves, rows)
    sym_path = os.path.join(outdir, "model_sym.csv")
    with open(sym_path, "w") as fh:
        fh.write("rank,pi_sym\n")
        for k in range(1, args.max_rank + 1):
            fh.write(f"{k},{miss_sym(k, args.x, args.alpha):.9f}\n")
    eta_path = os.path.join(outdir, "model_eta.csv")
    with open(eta_path, "w") as fh:
        fh.write("mean_p,epsilon,eta_sym,eta_asym\n")
        for p in probs:
            tau = solve_tau(args.x, args.rate, popularity, mean_p=p).tau
            for eps in args.epsilon:
                e_s = eta_sym(args.x, args.alpha, eps)
                e_a = eta_asym(args.rate, popularity.norm_c, tau, p, eps,
                               args.alpha)
                fh.write(f"{p:.9f},{eps:.9f},{e_s:.9f},{e_a:.9f}\n")
    print(f"wrote {curves}")
    print(f"wrote {sym_path}")
    print(f"wrote {eta_path}")
    return 0


def _gated_cache(config: ScenarioConfig):
    """The cache that compare checks against the model: the lowest-id cache
    with capacity > 0 (the leaf, in the presets)."""
    caches = [n for n in config.topology.nodes
              if n.kind == "cache" and n.cache_capacity_objects > 0]
    if not caches:
        raise ConfigError("compare needs a cache with capacity > 0")
    return min(caches, key=lambda n: n.node_id)


def _model_curve(config: ScenarioConfig, x: int, mean_p: float, mtf_mode: str):
    """Steady state miss probability at a cache of x objects for ranks
    1..GATE_RANKS, or up to the catalog size when it is smaller."""
    if mtf_mode == SYMMETRIC:
        ranks = range(1, min(GATE_RANKS, config.catalog_size) + 1)
        return [float(miss_sym(k, x, config.zipf_alpha)) for k in ranks]
    popularity = zipf_weights(config.catalog_size, config.zipf_alpha)
    rows = fig1_grid(popularity, x, config.request_rate, [mean_p],
                     max_rank=GATE_RANKS)
    return [pi for _, _, pi, _ in rows]


def cmd_compare(args) -> int:
    config = _build_config(args)
    cache = _gated_cache(config)
    label = cache.label
    report = Simulation(config).run()
    policy = config.policy
    if policy.kind == LATENCY_AWARE:
        mean_p = report.mean_decision_prob(label)
        gated = False
    elif policy.kind == ALWAYS:
        mean_p, gated = 1.0, True
    else:  # FIXED_PROB
        mean_p, gated = policy.p, True
    model = _model_curve(config, cache.cache_capacity_objects, mean_p,
                         policy.mtf_mode)
    late = config.stats_warmup_s > 0
    curve = report.miss_curve(label, GATE_RANKS, late=late)
    worst = 0.0
    print(f"cache={label} policy={report.policy_label} mean_p={mean_p:.4f}")
    print("rank,sim,model,delta")
    for k, pi in enumerate(model, start=1):
        if k not in curve:
            raise ValueError(f"rank {k} saw no requests at {label}; "
                             "increase --horizon to use the model gate")
        sim = curve[k]
        delta = abs(sim - pi)
        worst = max(worst, delta)
        print(f"{k},{sim:.4f},{pi:.4f},{delta:.4f}")
    print(f"max|delta| over ranks 1..{len(model)}: {worst:.4f}"
          f" (gate {'on' if gated else 'off'}, tol {GATE_TOLERANCE})")
    if gated and worst > GATE_TOLERANCE:
        print("model gate FAILED", file=sys.stderr)
        return GATE_ERROR
    return 0


def _parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"--seeds {text!r} names no seed")
    return seeds


def _print_policy_table(rows):
    """One line per policy: the mean over its seeds of the mean delivery
    time, its stddev, the overall miss ratio and every link's rho."""
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row.policy_label, []).append(row)
    links = list(rows[0].link_loads) if rows else []
    print(f"{'policy':>12} {'delivery':>9} {'stddev':>8} {'miss':>7}"
          + "".join(f" {label:>18}" for label in links))
    for label, group in by_policy.items():
        n = len(group)
        print(f"{label:>12}"
              f" {sum(r.mean_delivery for r in group) / n:9.4f}"
              f" {sum(r.stddev_delivery for r in group) / n:8.4f}"
              f" {sum(r.overall_miss for r in group) / n:7.4f}"
              + "".join(f" {sum(r.link_loads[link] for r in group) / n:18.4f}"
                        for link in links))


def cmd_sweep(args) -> int:
    seeds = _parse_seeds(args.seeds)
    rows = run_matrix(args.preset, split_policy_list(args.policies), seeds,
                      args.horizon, args.warmup)
    outdir = _outdir(args, f"sweep-{args.preset}")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "sweep.csv")
    with open(path, "w") as fh:
        fh.write(",".join(RunSummary.CSV_FIELDS) + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
    _print_policy_table(rows)
    print(f"wrote {path}")
    return 0


def _add_scenario_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=PRESET_NAMES, default="single",
                       help="built in topology (default: single)")
    group.add_argument("--config", metavar="PATH",
                       help="YAML scenario file instead of a preset")
    sub.add_argument("--policy", default="",
                     help="lru | lcp:<p> | sym:<p> | sym-la | lac:<b>,<g>")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--horizon", type=int, default=None, metavar="N",
                     help="requests per user (default: 200000)")
    sub.add_argument("--warmup", type=float, default=None, metavar="SECONDS",
                     help="discard per rank stats before this sim time")
    sub.add_argument("--outdir", default="",
                     help="output directory (default: $LACSIM_OUTDIR)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lacsim",
                     description="cache network simulator and model toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sim = subs.add_parser("sim", help="run one scenario, write CSVs")
    _add_scenario_flags(sim)
    sim.add_argument("--calibrate-lcp", action="store_true",
                     help="probe with the latency aware policy, then run "
                          "FixedProb at its smallest per node mean "
                          "decision probability")
    sim.set_defaults(func=cmd_sim)

    model = subs.add_parser("model", help="write analytical curves")
    model.add_argument("--x", type=int, default=8, help="cache size, objects")
    model.add_argument("--catalog", type=int, default=20_000)
    model.add_argument("--alpha", type=float, default=1.7)
    model.add_argument("--rate", type=float, default=1.0)
    model.add_argument("--mean-p", type=float, nargs="+",
                       default=[1.0, 0.1, 0.05, 0.02])
    model.add_argument("--epsilon", type=float, nargs="+", default=[0.01])
    model.add_argument("--max-rank", type=int, default=100)
    model.add_argument("--outdir", default="")
    model.set_defaults(func=cmd_model)

    comp = subs.add_parser("compare", help="simulation vs model gate")
    _add_scenario_flags(comp)
    comp.set_defaults(func=cmd_compare)

    sweep = subs.add_parser("sweep", help="policy x seed batch")
    sweep.add_argument("--preset", choices=PRESET_NAMES, default="single")
    sweep.add_argument("--policies", default="lru,lcp:0.1,lac:5,5",
                       help="comma separated policy specs")
    sweep.add_argument("--seeds", default="1-5",
                       help="e.g. 1-10 or 1,3,7")
    sweep.add_argument("--horizon", type=int, default=200_000)
    sweep.add_argument("--warmup", type=float, default=0.0)
    sweep.add_argument("--outdir", default="")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except (ConfigError, ProtocolError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
