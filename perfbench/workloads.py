"""The benchmark's workloads and the inputs each one generates from a seed.

This module does not import lacsim: the job process times `import lacsim`
itself, so nothing of the package may be loaded before the clock starts.
Why each workload exists is recorded in BENCHMARK.json; the sizes below were
chosen so that one job takes one to three seconds on a 2-core Xeon with
Python 3.11, which gives several samples per measured run.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace

SIM = "sim"      # `lacsim sim`: one run, CSV bundle written
SWEEP = "sweep"  # harness.run_matrix over policies x consecutive seeds
MODEL = "model"  # `lacsim model`: analytic curves, no simulator

# The scenario seed is the workload seed reduced to the range every numpy
# Philox key and the config loader accept.
SEED_MODULUS = 2 ** 32


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    preset: str = ""
    policies: tuple = ()
    horizon: int = 0        # requests per user in each simulation run
    users: int = 0          # user populations of the preset
    sweep_seeds: int = 0    # consecutive scenario seeds per policy
    grid_points: int = 0    # --mean-p values of the model grid
    epsilons: int = 0       # --epsilon values of the model grid

    def spec(self) -> dict:
        """The definition as JSON values (policies as a list)."""
        return dict(asdict(self), policies=list(self.policies))

    def ops_per_job(self) -> int:
        """Runs, or solve_tau calls: `lacsim model` solves each grid point
        twice, once inside fig1_grid and once for the eta table."""
        if self.kind == MODEL:
            return 2 * self.grid_points
        if self.kind == SWEEP:
            return len(self.policies) * self.sweep_seeds
        return 1

    def requests_per_run(self) -> int:
        return self.horizon * self.users

    def smoke(self) -> "Workload":
        """A copy small enough for a warm-up job or a self-test."""
        if self.kind == MODEL:
            return replace(self, grid_points=3, epsilons=2)
        return replace(self, horizon=max(5, self.horizon // 1000))


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("single-lac", SIM, preset="single", policies=("lac:5,5",),
                 horizon=200_000, users=1),
        Workload("tree-lac", SIM, preset="tree", policies=("lac",),
                 horizon=10_000, users=4),
        Workload("line-sweep", SWEEP, preset="line",
                 policies=("lru", "lcp:0.1", "sym:0.1", "lac:5,5", "sym-la"),
                 horizon=20_000, users=1, sweep_seeds=2),
        Workload("model-grid", MODEL, grid_points=60, epsilons=4),
    )
}


def scenario_seed(seed: int) -> int:
    return seed % SEED_MODULUS


def model_grid(wl: Workload, seed: int):
    """Seeded --mean-p and --epsilon values: log-uniform on [1e-3, 1] and
    [1e-3, 0.2]. Printed with repr so the CLI parses the exact floats."""
    rng = random.Random(seed)
    mean_p = sorted(10.0 ** rng.uniform(-3.0, 0.0) for _ in range(wl.grid_points))
    eps = sorted(10.0 ** rng.uniform(-3.0, -0.7) for _ in range(wl.epsilons))
    return [repr(p) for p in mean_p], [repr(e) for e in eps]


def cli_argv(wl: Workload, seed: int, outdir: str) -> list:
    """`lacsim` arguments of a SIM or MODEL job."""
    if wl.kind == SIM:
        return ["sim", "--preset", wl.preset, "--policy", wl.policies[0],
                "--seed", str(scenario_seed(seed)), "--horizon", str(wl.horizon),
                "--outdir", outdir]
    if wl.kind == MODEL:
        mean_p, eps = model_grid(wl, seed)
        return ["model", "--mean-p", *mean_p, "--epsilon", *eps,
                "--outdir", outdir]
    raise ValueError(f"{wl.name} is not a CLI job")


def sweep_seeds(wl: Workload, seed: int) -> list:
    first = scenario_seed(seed)
    return list(range(first, first + wl.sweep_seeds))
